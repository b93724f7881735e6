// Package mapreduce is a small in-process job runner with a configurable
// worker pool: ForEach for batch map-only jobs and Pipeline (pipeline.go)
// for streaming ones. It stands in for the paper's Hadoop deployment
// (Section 5.4, Appendix C): the three framework jobs — scalar function
// computation, feature identification, and relationship computation — are
// embarrassingly parallel, so a worker pool reproduces the scaling
// behaviour (Figure 10) with workers playing the role of cluster nodes.
package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
)

// Config controls a job's parallelism.
type Config struct {
	// Workers is the number of concurrent workers ("nodes"). Zero or negative means runtime.NumCPU().
	Workers int
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

// ForEach runs fn over inputs on the worker pool (a map-only job) and
// returns the per-input outputs in input order.
func ForEach[I any, O any](cfg Config, inputs []I, fn func(I) (O, error)) ([]O, error) {
	w := cfg.workers()
	results := make([]O, len(inputs))
	errs := make([]error, w)
	idx := make(chan int)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := range idx {
				if errs[wi] != nil {
					continue
				}
				out, err := fn(inputs[i])
				if err != nil {
					errs[wi] = fmt.Errorf("mapreduce: input %d: %w", i, err)
					continue
				}
				results[i] = out
			}
		}(wi)
	}
	for i := range inputs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
