// Package mapreduce is a small in-process job runner: ForEach runs a
// map-only job on a worker pool. It stands in for the paper's Hadoop
// deployment (Section 5.4, Appendix C): the three framework jobs — scalar
// function computation, feature identification, and relationship
// computation — are embarrassingly parallel, so a worker pool reproduces
// the scaling behaviour (Figure 10) with workers playing the role of
// cluster nodes.
package mapreduce

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ForEach runs fn over inputs on a pool of workers ("nodes"; fewer than
// one means one) and returns the per-input outputs in input order. Workers
// claim input indices from one shared cursor, so handing out an input
// costs an atomic add, not a channel wake-up. Once an input fails no
// further index is claimed; the inputs already claimed finish, and the
// error returned is that of the lowest failing index — every lower index
// was claimed before it, so the answer does not depend on scheduling.
func ForEach[I any, O any](workers int, inputs []I, fn func(I) (O, error)) ([]O, error) {
	results := make([]O, len(inputs))
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errAt  = len(inputs)
		err    error
		wg     sync.WaitGroup
	)
	for range min(max(workers, 1), len(inputs)) {
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
