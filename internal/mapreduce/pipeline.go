package mapreduce

import (
	"sort"
	"sync"
)

// This file implements the streaming half of the package: a Pipeline of
// Stream stages connected by bounded channels. Where ForEach is a batch
// job with a full barrier after it — every output is materialised before
// the caller's next phase starts — a Pipeline fuses its stages:
// an item flows through all stages as soon as it is produced, so at most
// O(workers) intermediate values exist per stage at any time. The framework
// uses this to stream scalar functions straight into merge-tree indexing
// without ever holding the whole corpus of raw functions in memory.

// Pipeline owns the shared state of one streaming job: the worker-pool
// configuration, cancellation, and the first error raised by any stage.
type Pipeline struct {
	cfg    Config
	cancel chan struct{}
	mu     sync.Mutex
	err    error
}

// NewPipeline creates a pipeline whose stages each run cfg.Workers
// concurrent workers.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg, cancel: make(chan struct{})}
}

// fail records the first error and cancels every stage.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
		close(p.cancel)
	}
}

// Err returns the first error raised by any stage, if any.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *Pipeline) cancelled() bool {
	select {
	case <-p.cancel:
		return true
	default:
		return false
	}
}

// item carries a value through the pipeline together with its lexicographic
// position: Emit assigns [i], and each FlatThrough expansion appends the
// output's index within its parent. Collect sorts by this position, so the
// final order is deterministic regardless of worker interleaving.
type item[T any] struct {
	ord []int
	val T
}

func ordLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Stream is a sequence of values flowing through a Pipeline stage.
type Stream[T any] struct {
	p  *Pipeline
	ch chan item[T]
}

// Emit feeds inputs into the pipeline as its source stream.
func Emit[T any](p *Pipeline, inputs []T) *Stream[T] {
	s := &Stream[T]{p: p, ch: make(chan item[T], p.cfg.workers())}
	go func() {
		defer close(s.ch)
		for i := range inputs {
			select {
			case s.ch <- item[T]{ord: []int{i}, val: inputs[i]}:
			case <-p.cancel:
				return
			}
		}
	}()
	return s
}

// Through adds a stage that transforms each item with fn, running the
// pipeline's worker count concurrently. Items flow through as they arrive;
// there is no barrier. The first error cancels the pipeline.
func Through[I, O any](s *Stream[I], fn func(I) (O, error)) *Stream[O] {
	p := s.p
	out := &Stream[O]{p: p, ch: make(chan item[O], p.cfg.workers())}
	var wg sync.WaitGroup
	for wi := 0; wi < p.cfg.workers(); wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range s.ch {
				if p.cancelled() {
					continue // drain upstream after an error
				}
				o, err := fn(it.val)
				if err != nil {
					p.fail(err)
					continue
				}
				select {
				case out.ch <- item[O]{ord: it.ord, val: o}:
				case <-p.cancel:
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out.ch)
	}()
	return out
}

// FlatThrough is Through for stages that expand one item into zero or more
// outputs (e.g. a scalar function plus its gradient).
func FlatThrough[I, O any](s *Stream[I], fn func(I) ([]O, error)) *Stream[O] {
	p := s.p
	out := &Stream[O]{p: p, ch: make(chan item[O], p.cfg.workers())}
	var wg sync.WaitGroup
	for wi := 0; wi < p.cfg.workers(); wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range s.ch {
				if p.cancelled() {
					continue
				}
				os, err := fn(it.val)
				if err != nil {
					p.fail(err)
					continue
				}
				for j, o := range os {
					ord := make([]int, len(it.ord)+1)
					copy(ord, it.ord)
					ord[len(it.ord)] = j
					select {
					case out.ch <- item[O]{ord: ord, val: o}:
					case <-p.cancel:
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out.ch)
	}()
	return out
}

// Drain consumes the stream in the caller's goroutine, invoking fn once per
// item (in arrival order, which is nondeterministic), and returns the first
// error raised anywhere in the pipeline. fn needs no synchronisation: it is
// the only consumer.
func Drain[T any](s *Stream[T], fn func(T) error) error {
	for it := range s.ch {
		if s.p.cancelled() {
			continue
		}
		if err := fn(it.val); err != nil {
			s.p.fail(err)
		}
	}
	return s.p.Err()
}

// Collect gathers the stream into a slice ordered by source position (the
// order Emit received the inputs, with FlatThrough expansions in emission
// order). It materialises the stage's full output — use Drain when the
// point of the pipeline is to avoid that.
func Collect[T any](s *Stream[T]) ([]T, error) {
	var items []item[T]
	for it := range s.ch {
		if s.p.cancelled() {
			continue
		}
		items = append(items, it)
	}
	if err := s.p.Err(); err != nil {
		return nil, err
	}
	sort.Slice(items, func(i, j int) bool { return ordLess(items[i].ord, items[j].ord) })
	out := make([]T, len(items))
	for i, it := range items {
		out[i] = it.val
	}
	return out, nil
}
