package core

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// This file is the append path of the corpus lifecycle layer: AppendSlice
// extends a registered data set with new tuples — typically a fresh time
// slice of a continuously collected urban feed — without tearing down the
// derived state the way AddDataset does when the corpus time range grows.
//
// The tiled temporal domain (temporal.TileWidth, tile.go) is what makes
// this incremental. Extending the corpus maximum timestamp appends steps to
// every shared timeline (Timeline.Extend keeps existing step indices), so a
// tile whose step range did not change — every complete tile before the old
// end of time — keeps byte-identical feature bits, thresholds, and critical
// points, and only the dirty suffix of tiles is recomputed:
//
//   - domain growth dirties the old last tile when it was partial (its step
//     range gains steps, so its merge tree and thresholds see a longer
//     sub-domain) plus every wholly new tile, for EVERY entry in the corpus
//     — a from-scratch build of the grown corpus computes those tiles over
//     the longer domain too, and equivalence is bit-level;
//   - the appended tuples additionally dirty, for the target data set only,
//     every tile from the first step that gains a tuple (tuples are binned
//     monotonically, so a slice starting at sliceLo can only land in steps
//     >= the step containing sliceLo).
//
// After the recompute, data sets whose feature bits are unchanged (the
// recomputed tiles produced the same bits, zero-extended over the new
// domain) — and whose occupied tiles all kept their step ranges — provably
// keep every cached per-pair Monte Carlo result: the significance test runs
// over a pair's supporting tiles (window.go), and those tiles' widths and
// contents are untouched. Only pairs involving a changed data set have
// their tested families dropped (dropResultsInvolving), so the next query
// or BuildGraph re-tests exactly the affected pairs and re-adjusts q-values
// over the full family — byte-identical to a from-scratch rebuild.
//
// Concurrency mirrors IngestDataset (ingest.go): snapshot under a brief
// shared lock, compute with no lock held, splice under a brief exclusive
// lock, serialized against other writers on ingestMu, with a full-rebuild
// fallback if an exclusive operation interleaved.

// AppendStats reports what one AppendSlice call did.
type AppendStats struct {
	Dataset  string // the appended data set
	Extended bool   // the corpus time range grew

	OldMaxTS, NewMaxTS int64 // corpus end of time before and after

	// TilesComputed and TilesReused count, across all function tasks, the
	// temporal tiles recomputed versus reused verbatim from the existing
	// index. A tile-aligned append keeps TilesReused high; appending into a
	// partial tile recomputes it for every entry.
	TilesComputed int
	TilesReused   int

	// EntriesRebuilt counts index entries restitched over the grown domain;
	// EntriesReused counts entries kept untouched (no domain growth and no
	// new tuples at their resolution).
	EntriesRebuilt int
	EntriesReused  int

	// ChangedDatasets lists the data sets whose feature bits changed
	// (sorted). Their tested families and memoised answers are
	// invalidated; everything else keeps its cached Monte Carlo results.
	ChangedDatasets []string
	// GraphPairsDropped counts the families dropped under the published
	// graph's signature, for re-test by the next BuildGraph.
	GraphPairsDropped int

	// FellBack reports that the append took the exclusive full-rebuild path
	// (unbuilt framework, or an exclusive operation interleaved with the
	// lock-free compute phase).
	FellBack bool
	// Rebuilds echoes the framework-lifetime rebuild counter after the
	// call (see IndexStats.Rebuilds); an append that did not fall back
	// leaves it unchanged.
	Rebuilds int64

	// ComputeDuration and IndexDuration are cumulative worker time in
	// scalar computation and feature extraction over recomputed tiles.
	ComputeDuration time.Duration
	IndexDuration   time.Duration
	WallDuration    time.Duration
}

// appendTask is one function task of the append recompute.
type appendTask struct {
	t funcTask
	// fromTile is the first dirty tile to recompute; -1 reuses the existing
	// entries untouched.
	fromTile int
	// old holds the task's existing entries in variant order (function,
	// then gradient).
	old []*FunctionEntry
}

// appendTaskResult is the outcome of one appendTask.
type appendTaskResult struct {
	entries  []*FunctionEntry
	reused   bool
	computed int // tiles recomputed
	kept     int // tiles reused
	tm       tileTimings
}

// AppendSlice extends the registered data set slice.Name with the tuples of
// slice, which must match the data set's schema and start no earlier than
// the corpus start of time (appends never extend into the past — that would
// shift every step index). Extending the corpus end of time is the designed
// case and is incremental: no resetIndex, only dirty tiles recomputed, only
// affected graph pairs re-tested.
//
// Like IngestDataset, the expensive recompute runs without the state lock;
// queries proceed concurrently and observe the append as one atomic epoch
// swap. AppendSlice serializes with IngestDataset and other AppendSlice
// calls. The resulting framework state — index entries, p-values, q-values,
// and the relationship graph after the next BuildGraph — is byte-identical
// to a from-scratch build over the merged corpus.
func (f *Framework) AppendSlice(slice *dataset.Dataset) (AppendStats, error) {
	t0 := time.Now()
	var st AppendStats
	st.Dataset = slice.Name
	if err := slice.Validate(); err != nil {
		return st, err
	}
	sliceLo, sliceHi, ok := slice.TimeRange()
	if !ok {
		return st, fmt.Errorf("core: append slice for %q is empty", slice.Name)
	}

	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()

	// Phase 1 — snapshot (brief shared lock): validate against the corpus
	// and capture the immutable domain state the recompute needs.
	f.mu.RLock()
	if err := f.writableLocked(); err != nil {
		f.mu.RUnlock()
		return st, err
	}
	old, registered := f.datasets[slice.Name]
	if !registered {
		f.mu.RUnlock()
		return st, fmt.Errorf("core: dataset %q is not registered (AddDataset or IngestDataset first)", slice.Name)
	}
	if err := sliceSchemaMatch(old, slice); err != nil {
		f.mu.RUnlock()
		return st, err
	}
	if sliceLo < f.minTS {
		f.mu.RUnlock()
		return st, fmt.Errorf("core: append slice for %q starts at %d, before corpus start %d (appends cannot extend into the past)",
			slice.Name, sliceLo, f.minTS)
	}
	if !f.indexedLocked() {
		// Nothing derived to preserve: merge and rebuild exclusively.
		f.mu.RUnlock()
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.appendRebuildLocked(slice, st, t0)
	}
	minTS, maxTS := f.minTS, f.maxTS
	order := append([]string{}, f.order...)
	datasets := maps.Clone(f.datasets)
	// Timelines, graphs, and index entries are immutable once published;
	// copy the map/slice containers so the compute phase never reads shared
	// containers a concurrent exclusive operation may mutate.
	timelines, graphs := maps.Clone(f.timelines), maps.Clone(f.graphs)
	entriesAt := make(map[string]map[Resolution][]*FunctionEntry, len(order))
	for _, n := range order {
		byRes := make(map[Resolution][]*FunctionEntry)
		for _, res := range f.resolutionsFor(f.datasets[n]) {
			byRes[res] = append([]*FunctionEntry{}, f.index.at(n, res)...)
		}
		entriesAt[n] = byRes
	}
	f.mu.RUnlock()

	// Phase 2 — compute (no lock): grow the domain, recompute dirty tiles
	// for every entry, and diff the results against the old bits.
	st.OldMaxTS = maxTS
	newMaxTS := maxTS
	if sliceHi > newMaxTS {
		newMaxTS = sliceHi
	}
	st.NewMaxTS = newMaxTS
	st.Extended = newMaxTS > maxTS
	merged := appendTuples(datasets[slice.Name], slice)

	extTimelines := make(map[temporal.Resolution]*temporal.Timeline, len(timelines))
	extGraphs := make(map[Resolution]*stgraph.Graph, len(graphs))
	// domainFrom is, per temporal resolution, the first tile whose step
	// range changes with the extension: the old last tile when it was
	// partial, else the first wholly new tile. appendFrom is the first tile
	// the slice's own tuples can land in.
	domainFrom := make(map[temporal.Resolution]int, len(timelines))
	appendFrom := make(map[temporal.Resolution]int, len(timelines))
	for tr, tl := range timelines {
		ext := tl
		if st.Extended {
			var err error
			if ext, err = tl.Extend(newMaxTS); err != nil {
				return st, err
			}
		}
		extTimelines[tr] = ext
		oldLen := tl.Len()
		w := temporal.TileWidth(tr)
		df := oldLen / w
		if oldLen%w != 0 {
			df = (oldLen - 1) / w
		}
		domainFrom[tr] = df
		af := ext.TileOfStep(ext.Index(sliceLo))
		if st.Extended && df < af {
			af = df
		}
		appendFrom[tr] = af
	}
	for res, g := range graphs {
		ext := g
		if st.Extended {
			var err error
			ext, err = stgraph.New(g.NumRegions(), extTimelines[res.Temporal].Len(), g.SpatialAdjacency())
			if err != nil {
				return st, err
			}
		}
		extGraphs[res] = ext
	}

	tasks, err := f.appendTasks(slice.Name, merged, order, datasets, entriesAt, domainFrom, appendFrom, st.Extended)
	if err != nil {
		// The existing index lacks an entry the task enumeration expects (a
		// snapshot saved without gradients, opened with them). Fall back to
		// the exclusive rebuild — correct, just not incremental.
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.appendRebuildLocked(slice, st, t0)
	}
	fts := make([]funcTask, len(tasks))
	for i, at := range tasks {
		fts[i] = at.t
	}
	in := newJobInputs(f.opts.City, extTimelines, fts)
	results, err := mapreduce.ForEach(f.workers(), tasks,
		func(at appendTask) (appendTaskResult, error) { return f.runAppendTask(at, in, extTimelines, extGraphs) })
	if err != nil {
		return st, err
	}

	changed := make(map[string]bool)
	for i, r := range results {
		at := tasks[i]
		st.TilesComputed += r.computed
		st.TilesReused += r.kept
		st.ComputeDuration += r.tm.compute
		st.IndexDuration += r.tm.feature
		if r.reused {
			st.EntriesReused += len(r.entries)
			continue
		}
		st.EntriesRebuilt += len(r.entries)
		if changed[at.t.ds.Name] {
			continue
		}
		for vi, e := range r.entries {
			if vi >= len(at.old) || !entryBitsEqual(at.old[vi], e) {
				changed[at.t.ds.Name] = true
				break
			}
		}
	}
	if st.Extended {
		// A data set with feature bits in a tile whose step range changed is
		// dirty even when its bits happen to be identical: its pairs'
		// supporting windows (window.go) span that tile, whose width — and
		// thus the Monte Carlo null domain — changed.
		for _, n := range order {
			if changed[n] {
				continue
			}
			for res, es := range entriesAt[n] {
				df := domainFrom[res.Temporal]
				for _, e := range es {
					if entryOccupiesTileGE(e, df) {
						changed[n] = true
						break
					}
				}
				if changed[n] {
					break
				}
			}
		}
	}
	for n := range changed {
		st.ChangedDatasets = append(st.ChangedDatasets, n)
	}
	sort.Strings(st.ChangedDatasets)

	// Phase 3 — splice (brief exclusive lock): publish the grown corpus.
	f.mu.Lock()
	defer f.mu.Unlock()
	interleaved := f.minTS != minTS || f.maxTS != maxTS || !f.indexedLocked() || len(f.order) != len(order)
	if !interleaved {
		for _, n := range order {
			if f.datasets[n] != datasets[n] {
				interleaved = true
				break
			}
		}
	}
	if interleaved {
		// An exclusive operation (AddDataset, Load, IngestDataset, ...)
		// changed the corpus between our snapshot and the splice: the
		// recomputed entries may be over the wrong domain. Correctness
		// first — rebuild from the registered state.
		st.ChangedDatasets = nil
		return f.appendRebuildLocked(slice, st, t0)
	}
	f.datasets[slice.Name] = merged
	f.maxTS = newMaxTS
	f.timelines = extTimelines
	f.graphs = extGraphs
	ix := newIndex()
	for _, r := range results {
		for _, e := range r.entries {
			ix.add(e)
		}
	}
	for _, n := range order {
		ix.sort(n)
		ix.markDone(n)
	}
	f.index = ix

	if len(changed) > 0 {
		// Delta refresh: drop only the families whose supporting state
		// changed; the next query or BuildGraph recomputes exactly those.
		// Everything else keeps its Monte Carlo run.
		st.GraphPairsDropped = f.dropResultsInvolving(st.ChangedDatasets...)
	}
	st.Rebuilds = f.rebuilds.Load()
	st.WallDuration = time.Since(t0)
	mAppends.Inc()
	mAppendDuration.Observe(st.WallDuration.Seconds())
	mIndexFunctions.Set(float64(f.index.numFunctions()))
	return st, nil
}

// appendTasks enumerates the per-function recompute tasks of an append.
// It returns an error when the captured index does not carry the entries
// the enumeration expects (the caller falls back to a full rebuild).
func (f *Framework) appendTasks(target string, merged *dataset.Dataset, order []string,
	datasets map[string]*dataset.Dataset, entriesAt map[string]map[Resolution][]*FunctionEntry,
	domainFrom, appendFrom map[temporal.Resolution]int, extended bool) ([]appendTask, error) {

	var tasks []appendTask
	for _, n := range order {
		d := datasets[n]
		if n == target {
			d = merged
		}
		for _, res := range f.resolutionsFor(d) {
			byKey := make(map[string]*FunctionEntry)
			for _, e := range entriesAt[n][res] {
				byKey[e.Key] = e
			}
			from := -1
			if n == target {
				from = appendFrom[res.Temporal]
			} else if extended {
				from = domainFrom[res.Temporal]
			}
			for _, spec := range scalar.Specs(d) {
				keys := []string{entryKey(n, spec.Name(), res)}
				if f.opts.IncludeGradients {
					keys = append(keys, entryKey(n, "grad_"+spec.Name(), res))
				}
				at := appendTask{t: funcTask{ds: d, spec: spec, res: res}, fromTile: from}
				for _, k := range keys {
					e := byKey[k]
					if e == nil {
						return nil, fmt.Errorf("core: index has no entry %s", k)
					}
					at.old = append(at.old, e)
				}
				tasks = append(tasks, at)
			}
		}
	}
	return tasks, nil
}

// runAppendTask executes one append recompute task.
func (f *Framework) runAppendTask(at appendTask, in *jobInputs,
	extTimelines map[temporal.Resolution]*temporal.Timeline,
	extGraphs map[Resolution]*stgraph.Graph) (appendTaskResult, error) {

	tl := extTimelines[at.t.res.Temporal]
	nTiles := tl.NumTiles()
	if at.fromTile < 0 {
		return appendTaskResult{entries: at.old, reused: true, kept: nTiles}, nil
	}
	entries, tm, err := f.rebuildEntryTiles(at.t, in, tl, extGraphs[at.t.res], at.fromTile, at.old)
	if err != nil {
		return appendTaskResult{}, err
	}
	return appendTaskResult{entries: entries, computed: nTiles - at.fromTile, kept: at.fromTile, tm: tm}, nil
}

// entryBitsEqual reports whether the new entry's feature bits equal the old
// entry's, zero-extended to the new domain length.
func entryBitsEqual(old, new *FunctionEntry) bool {
	n := new.NumVertices
	return new.Salient.Positive.Equal(old.Salient.Positive.Grow(n)) &&
		new.Salient.Negative.Equal(old.Salient.Negative.Grow(n)) &&
		new.Extreme.Positive.Equal(old.Extreme.Positive.Grow(n)) &&
		new.Extreme.Negative.Equal(old.Extreme.Negative.Grow(n))
}

// entryOccupiesTileGE reports whether the entry has any feature bit in a
// tile >= from.
func entryOccupiesTileGE(e *FunctionEntry, from int) bool {
	for _, bm := range [][]uint64{e.salientTiles, e.extremeTiles} {
		for t := from; t < 64*len(bm); t++ {
			if bm[t/64]&(1<<uint(t%64)) != 0 {
				return true
			}
		}
	}
	return false
}

// appendRebuildLocked is AppendSlice's fallback: merge the slice into the
// registered data set and rebuild everything under the already-held
// exclusive lock.
func (f *Framework) appendRebuildLocked(slice *dataset.Dataset, st AppendStats, t0 time.Time) (AppendStats, error) {
	old, ok := f.datasets[slice.Name]
	if !ok {
		return st, fmt.Errorf("core: dataset %q is not registered", slice.Name)
	}
	if err := sliceSchemaMatch(old, slice); err != nil {
		return st, err
	}
	merged := appendTuples(old, slice)
	f.datasets[slice.Name] = merged
	oldMax := f.maxTS
	lo, hi, _ := merged.TimeRange()
	if lo < f.minTS {
		f.minTS = lo
	}
	if hi > f.maxTS {
		f.maxTS = hi
	}
	st.OldMaxTS, st.NewMaxTS = oldMax, f.maxTS
	st.Extended = f.maxTS > oldMax
	if f.built || len(f.timelines) > 0 {
		f.resetIndex()
	}
	bst, err := f.buildIndexLocked()
	st.FellBack = true
	st.Rebuilds = bst.Rebuilds
	st.ComputeDuration = bst.ComputeDuration
	st.IndexDuration = bst.IndexDuration
	st.WallDuration = time.Since(t0)
	mAppends.Inc()
	mAppendFallbacks.Inc()
	mAppendDuration.Observe(st.WallDuration.Seconds())
	return st, err
}

// sliceSchemaMatch verifies an append slice carries the same schema as the
// data set it extends.
func sliceSchemaMatch(d, s *dataset.Dataset) error {
	if s.SpatialRes != d.SpatialRes || s.TemporalRes != d.TemporalRes {
		return fmt.Errorf("core: append slice for %q has resolution (%s, %s), dataset has (%s, %s)",
			d.Name, s.SpatialRes, s.TemporalRes, d.SpatialRes, d.TemporalRes)
	}
	if s.HasID != d.HasID {
		return fmt.Errorf("core: append slice for %q disagrees with the dataset on identifiers", d.Name)
	}
	if len(s.Attrs) != len(d.Attrs) {
		return fmt.Errorf("core: append slice for %q has %d attributes, dataset has %d", d.Name, len(s.Attrs), len(d.Attrs))
	}
	for i := range d.Attrs {
		if s.Attrs[i] != d.Attrs[i] {
			return fmt.Errorf("core: append slice for %q names attribute %d %q, dataset has %q", d.Name, i, s.Attrs[i], d.Attrs[i])
		}
	}
	return nil
}

// appendTuples returns a copy of d with the slice's tuples appended. The
// registered data set is never mutated in place: in-flight readers may
// still hold it.
func appendTuples(d, slice *dataset.Dataset) *dataset.Dataset {
	out := *d
	out.Tuples = make([]dataset.Tuple, 0, len(d.Tuples)+len(slice.Tuples))
	out.Tuples = append(append(out.Tuples, d.Tuples...), slice.Tuples...)
	return &out
}

// entryKey reconstructs the index key of a function entry (scalar
// Function.Key format).
func entryKey(ds, fn string, res Resolution) string {
	return fmt.Sprintf("%s/%s@%s,%s", ds, fn, res.Spatial, res.Temporal)
}
