package core

import (
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strings"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// This file is the one corpus write of the lifecycle layer. BuildIndex,
// IngestDataset and AppendSlice all change the corpus through write, in
// three phases:
//
//   - capture (shared lock): the order, the raw data sets, the time range,
//     the timelines, the domain graphs and the index — immutable values in
//     copied containers (a published Index is never mutated; a write
//     publishes a new one);
//   - compute (no lock): grow the domain forward when the corpus end moves
//     (Timeline.Extend keeps every step index, see append.go), then run one
//     mapreduce.ForEach of rebuildEntryTiles tasks, one per function and
//     resolution of every data set;
//   - splice (brief exclusive lock): publish the data sets, time range,
//     timelines, graphs and index at once, and drop the Monte Carlo results
//     of the data sets whose supporting state changed. IngestDataset's
//     data set is registered only here, so no reader sees it unindexed.
//
// One rule sets a task's fromTile, the first tile it recomputes:
//
//   - 0 from no base when the captured index has no entries for the task: a
//     new data set, a registered but unindexed one, or an empty base;
//   - the first tile the appended tuples can reach, for the data set a slice
//     extends;
//   - the first tile whose step range grew, for every other data set, when
//     the timeline at the task's resolution gained steps;
//   - -1, keeping the captured entries, otherwise.
//
// A rebuild is no separate path: it is this write from an empty base. That
// happens when nothing is indexed yet, and when a data set registered but
// not indexed (IngestDataset's, or AddDataset's) starts in a step before
// the first of some captured timeline — every step index shifts, so no
// entry survives; that case drops the derived state at the splice and
// counts one rebuild.
//
// writeMu serializes the writes with AddDataset and Load, so nothing
// changes the corpus between capture and splice, while readers are served
// throughout the compute phase.

// writeTask is one function task of a write.
type writeTask struct {
	funcTask
	// fromTile is the first tile to recompute; -1 keeps base untouched.
	fromTile int
	// base is the task's captured entry, nil when the index has none.
	base *FunctionEntry
}

// writeResult is the outcome of one writeTask.
type writeResult struct {
	entry *FunctionEntry
	tm    tileTimings
}

// write applies one change to the corpus: add registers a new data set
// (IngestDataset), slice extends a registered one (AppendSlice), and with
// neither it indexes whatever is registered but not yet indexed
// (BuildIndex). span is the time span of add or slice, as validating it
// returned.
func (f *Framework) write(add, slice *dataset.Dataset, span dataset.Span) (IndexStats, error) {
	t0 := time.Now()
	var st IndexStats
	f.writeMu.Lock()
	defer f.writeMu.Unlock()

	// Capture (shared lock).
	f.mu.RLock()
	order := slices.Clone(f.order)
	datasets := maps.Clone(f.datasets)
	minTS, maxTS := f.minTS, f.maxTS
	timelines, graphs := maps.Clone(f.timelines), maps.Clone(f.graphs)
	base := f.index
	noop := add == nil && slice == nil && f.indexedLocked()
	err := f.checkWriteLocked(add, slice, span)
	f.mu.RUnlock()
	if noop {
		return f.indexStats(st, 0), nil
	}
	if err != nil {
		return st, err
	}

	newMin, newMax := minTS, maxTS
	if add != nil {
		newMin, newMax = widenRange(len(order) == 0, minTS, maxTS, span)
		order = append(order, add.Name)
		datasets[add.Name] = add
	}
	if slice != nil {
		newMax = max(newMax, span.Max)
		datasets[slice.Name] = appendTuples(datasets[slice.Name], slice)
	}
	// A start in an earlier step shifts every step index of that timeline.
	rebase := false
	for tr, tl := range timelines {
		rebase = rebase || temporal.Bin(newMin, tr) < tl.StepStart(0)
	}
	if rebase {
		base = newIndex()
		timelines = make(map[temporal.Resolution]*temporal.Timeline)
		graphs = make(map[Resolution]*stgraph.Graph)
	}
	st.FellBack = !slices.ContainsFunc(order, base.has)

	// Compute (no lock): grow the captured timelines to the new end. grownFrom
	// is, per temporal resolution that gained steps, the first tile whose
	// step range changed: the old last tile when it was partial, else the
	// first wholly new one.
	grownFrom := make(map[temporal.Resolution]int)
	for tr, tl := range timelines {
		ext, err := tl.Extend(newMax)
		if err != nil {
			return st, err
		}
		if ext.Len() > tl.Len() {
			timelines[tr] = ext
			grownFrom[tr] = tl.TileOfStep(tl.Len())
		}
	}
	st.Extended = newMax > maxTS || len(grownFrom) > 0
	for res, g := range graphs {
		if _, grew := grownFrom[res.Temporal]; grew {
			if graphs[res], err = stgraph.New(g.NumRegions(), timelines[res.Temporal].Len(), g.SpatialAdjacency()); err != nil {
				return st, err
			}
		}
	}

	var tasks []writeTask
	var computing []funcTask
	for _, n := range order {
		d := datasets[n]
		for _, res := range f.resolutionsFor(d) {
			if _, err := f.graph(res, newMin, newMax, timelines, graphs); err != nil {
				return st, err
			}
			old := base.at(n, res)
			for _, spec := range scalar.Specs(d) {
				t := writeTask{funcTask: funcTask{ds: d, spec: spec, res: res}, fromTile: -1}
				if i, ok := slices.BinarySearchFunc(old, entryKey(n, spec.Name(), res), func(e *FunctionEntry, k string) int {
					return strings.Compare(e.Key, k)
				}); ok {
					t.base = old[i]
				}
				from, grew := grownFrom[res.Temporal]
				switch {
				case t.base == nil:
					t.fromTile = 0
				case slice != nil && n == slice.Name:
					tl := timelines[res.Temporal]
					t.fromTile = tl.TileOfStep(tl.Index(span.Min))
					if grew {
						t.fromTile = min(t.fromTile, from)
					}
				case grew:
					t.fromTile = from
				}
				if t.fromTile >= 0 {
					computing = append(computing, t.funcTask)
				}
				tasks = append(tasks, t)
			}
		}
	}
	in := newJobInputs(f.opts.City, timelines, computing)
	results, err := mapreduce.ForEach(f.workers(), tasks, func(t writeTask) (writeResult, error) {
		if t.fromTile < 0 {
			return writeResult{entry: t.base}, nil
		}
		e, tm, err := f.rebuildEntryTiles(t.funcTask, in, timelines[t.res.Temporal], graphs[t.res], t.fromTile, t.base)
		return writeResult{entry: e, tm: tm}, err
	})
	if err != nil {
		return st, err
	}

	// A data set is changed when it (or one of its tasks) had no entries,
	// when a recomputed entry's bits differ beyond zero-extension, or when
	// it holds feature bits in a tile whose width grew: its pairs'
	// supporting windows (window.go) span that tile, so their Monte Carlo
	// null domain changed even where the bits did not.
	changed := make(map[string]bool)
	indexed := 0
	for _, n := range order {
		if !base.has(n) {
			changed[n] = true
			indexed++
		}
	}
	for i, r := range results {
		t := tasks[i]
		st.ComputeDuration += r.tm.compute
		st.IndexDuration += r.tm.feature
		if t.fromTile < 0 {
			st.TilesReused += timelines[t.res.Temporal].NumTiles()
			st.EntriesReused++
			continue
		}
		st.TilesComputed += timelines[t.res.Temporal].NumTiles() - t.fromTile
		st.TilesReused += t.fromTile
		st.Functions++
		if changed[t.ds.Name] {
			continue
		}
		from, grew := grownFrom[t.res.Temporal]
		if t.base == nil || grew && entryOccupiesTileGE(t.base, from) || !entryBitsEqual(t.base, r.entry) {
			changed[t.ds.Name] = true
		}
	}
	st.ChangedDatasets = slices.Sorted(maps.Keys(changed))
	st.FeatureSets = st.Functions

	// Splice (brief exclusive lock).
	ix := newIndex()
	for _, r := range results {
		ix.add(r.entry)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range order {
		ix.sort(n)
	}
	f.order, f.datasets = order, datasets
	f.minTS, f.maxTS = newMin, newMax
	if rebase {
		slog.Warn("core: corpus start moved to an earlier step; rebuilding derived state",
			"datasets", slices.DeleteFunc(slices.Clone(order), f.index.has),
			"minTS", newMin, "maxTS", newMax, "rebuild", f.rebuilds.Add(1))
		mRebuilds.Inc()
		f.resetResults()
	}
	f.timelines, f.graphs = timelines, graphs
	f.index = ix
	f.built = true
	if len(st.ChangedDatasets) > 0 {
		// Drop only the families whose supporting state changed; the next
		// query or BuildGraph recomputes exactly those.
		st.GraphPairsDropped = f.dropResultsInvolving(st.ChangedDatasets...)
	}
	mIndexFunctions.Set(float64(ix.numFunctions()))
	st.WallDuration = time.Since(t0)
	return f.indexStats(st, indexed), nil
}

// checkWriteLocked validates a write against the captured corpus; span is
// the time span of add or slice. The caller holds the state lock.
func (f *Framework) checkWriteLocked(add, slice *dataset.Dataset, span dataset.Span) error {
	if err := f.writableLocked(); err != nil {
		return err
	}
	if add != nil {
		if _, dup := f.datasets[add.Name]; dup {
			return fmt.Errorf("core: duplicate dataset %q", add.Name)
		}
		if len(add.Tuples) == 0 {
			return fmt.Errorf("core: dataset %q is empty", add.Name)
		}
	}
	if slice != nil {
		old, registered := f.datasets[slice.Name]
		if !registered {
			return fmt.Errorf("core: dataset %q is not registered (AddDataset or IngestDataset first)", slice.Name)
		}
		if err := sliceSchemaMatch(old, slice); err != nil {
			return err
		}
		if len(slice.Tuples) == 0 {
			return fmt.Errorf("core: append slice for %q is empty", slice.Name)
		}
		if span.Min < f.minTS {
			return fmt.Errorf("core: append slice for %q starts at %d, before corpus start %d (appends cannot extend into the past)",
				slice.Name, span.Min, f.minTS)
		}
	}
	return nil
}

// widenRange returns the corpus time range [minTS, maxTS] widened to cover
// span; first reports an empty corpus, whose range becomes span.
func widenRange(first bool, minTS, maxTS int64, span dataset.Span) (int64, int64) {
	if first {
		return span.Min, span.Max
	}
	return min(minTS, span.Min), max(maxTS, span.Max)
}

// indexStats completes a write's stats with the corpus-level counters.
// The caller holds writeMu, so the corpus is the one the write published.
func (f *Framework) indexStats(st IndexStats, indexed int) IndexStats {
	st.Datasets = len(f.order)
	st.DatasetsIndexed = indexed
	st.DatasetsReused = len(f.order) - indexed
	return st
}

// IngestDataset registers and indexes one new data set on a live
// framework. Unlike AddDataset + BuildIndex, which leave the new data set
// registered but unindexed in between, it is one write: the indexing runs
// without the state lock and the data set appears, indexed, at the splice,
// so concurrent Query traffic is never blocked behind it (the relationship
// graph is not rebuilt — run BuildGraph afterwards to extend it
// incrementally with the new pairs). A data set that ends after the corpus
// grows the domain forward, recomputing only the grown tiles of the others;
// one that starts in an earlier step rebuilds from an empty base. The
// resulting state is byte-identical to a from-scratch build over the
// enlarged corpus.
func (f *Framework) IngestDataset(d *dataset.Dataset) (IndexStats, error) {
	span, err := d.Validate()
	if err != nil {
		return IndexStats{}, err
	}
	st, err := f.write(d, nil, span)
	if err == nil {
		mIngests.Inc()
	}
	return st, err
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

// entryKey reconstructs the index key of a function entry (scalar
// Function.Key format).
func entryKey(ds, fn string, res Resolution) string {
	return fmt.Sprintf("%s/%s@%s,%s", ds, fn, res.Spatial, res.Temporal)
}

// isEntryKey reports whether key is entryKey(ds, fn, res), without
// building it.
func isEntryKey(key, ds, fn string, res Resolution) bool {
	for _, part := range [...]string{ds, "/", fn, "@", res.Spatial.String(), ",", res.Temporal.String()} {
		var ok bool
		if key, ok = strings.CutPrefix(key, part); !ok {
			return false
		}
	}
	return key == ""
}
