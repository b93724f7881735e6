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
	"sync/atomic"
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
// returns the per-input outputs in input order. Workers claim input indices
// from one shared cursor, so handing out an input costs an atomic add, not
// a channel wake-up. Once an input fails no further index is claimed; the
// inputs already claimed finish, and the error returned is that of the
// lowest failing index — every lower index was claimed before it, so the
// answer does not depend on scheduling.
func ForEach[I any, O any](cfg Config, inputs []I, fn func(I) (O, error)) ([]O, error) {
	results := make([]O, len(inputs))
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errAt  = len(inputs)
		err    error
		wg     sync.WaitGroup
	)
	for range min(cfg.workers(), len(inputs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				out, ierr := fn(inputs[i])
				if ierr != nil {
					mu.Lock()
					if i < errAt {
						errAt, err = i, fmt.Errorf("mapreduce: input %d: %w", i, ierr)
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				results[i] = out
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return results, nil
}
