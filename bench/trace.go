package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call (spans inside the program are a later
// change), kept in memory, and written out when the run ends.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0 = root
	Name    string             `json:"name"`
	Request string             `json:"request,omitempty"` // spans of one request share it
	StartNS int64              `json:"startNs"`           // since the tracer was created
	EndNS   int64              `json:"endNs"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// pass runs the same code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(parent int, name, request string, start, end time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Request: request,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// open reserves a span that encloses work still to run; close it with
// finish. Children recorded in between name it as their parent.
func (t *tracer) open(parent int, name, request string) int {
	now := time.Now()
	return t.add(parent, name, request, now, now, nil)
}

func (t *tracer) finish(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	t.spans[id-1].Counts = counts
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(parent, name, "", start, time.Now(), nil)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (concurrent work) and are clipped to the parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// selfByName sums self time per span name over the subtree rooted at root
// (root itself included), and returns the subtree's total self time.
func selfByName(spans []span, root int) (map[string]time.Duration, time.Duration) {
	self := selfTimes(spans)
	inTree := map[int]bool{root: true}
	// A parent is always recorded before its children (opened first, or
	// added and then given children), so one forward pass finds the tree.
	for _, s := range spans {
		if inTree[s.Parent] {
			inTree[s.ID] = true
		}
	}
	by := map[string]time.Duration{}
	var total time.Duration
	for _, s := range spans {
		if inTree[s.ID] {
			by[s.Name] += self[s.ID]
			total += self[s.ID]
		}
	}
	return by, total
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
