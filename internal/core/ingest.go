package core

import (
	"fmt"
	"maps"

	"github.com/urbandata/datapolygamy/internal/dataset"
)

// This file is the runtime-ingestion path of the corpus lifecycle layer:
// IngestDataset adds a data set to a live, indexed framework while queries
// keep flowing. AddDataset + BuildIndex do the same work correctly, but
// BuildIndex holds the state lock exclusively for the whole scalar-compute
// and feature-identification job — on a serving framework that stalls
// every reader for the duration. IngestDataset instead mirrors the
// relationship-graph builder's pattern (relgraph.go): the expensive work
// runs against an immutable snapshot of the domain state with no lock
// held, and the result is published by a brief exclusive splice — an epoch
// swap readers only ever observe as "the data set was not there, now it
// is".
//
// The fast path applies when the framework is indexed and the new data set
// does not extend the corpus time range (the common case for a long-lived
// corpus: NYC's 300+ data sets share the city's observation window).
// Extending the range changes every shared timeline, so that case — like
// ingesting into an unbuilt framework — falls back to the exclusive
// rebuild path. The result is identical to AddDataset + BuildIndex either
// way; only the locking differs, which the equivalence tests pin down.

// IngestDataset registers and indexes one new data set on a live
// framework. Unlike AddDataset + BuildIndex, the expensive indexing
// job runs without the state lock; the exclusive lock is held only
// for the final splice, so concurrent Query traffic is never blocked
// behind the ingestion (the relationship graph is not rebuilt — run
// BuildGraph afterwards to extend it incrementally with the new pairs).
// IngestDataset calls serialize with each other; the resulting framework
// state is byte-identical to a from-scratch build over the enlarged
// corpus.
func (f *Framework) IngestDataset(d *dataset.Dataset) (IndexStats, error) {
	var stats IndexStats
	if err := d.Validate(); err != nil {
		return stats, err
	}
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()

	// Phase 1 — snapshot (brief shared lock): decide fast vs. fallback and
	// capture the immutable domain state the indexing job needs.
	f.mu.RLock()
	if err := f.writableLocked(); err != nil {
		f.mu.RUnlock()
		return stats, err
	}
	if _, dup := f.datasets[d.Name]; dup {
		f.mu.RUnlock()
		return stats, fmt.Errorf("core: duplicate dataset %q", d.Name)
	}
	lo, hi, ok := d.TimeRange()
	if !ok {
		f.mu.RUnlock()
		return stats, fmt.Errorf("core: dataset %q is empty", d.Name)
	}
	if !f.indexedLocked() || len(f.order) == 0 || lo < f.minTS || hi > f.maxTS {
		// Unbuilt framework, or the corpus time range grows: every shared
		// timeline changes length, so there is nothing to reuse — take the
		// exclusive rebuild path.
		f.mu.RUnlock()
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.ingestRebuildLocked(d)
	}
	minTS, maxTS := f.minTS, f.maxTS
	// Shallow-copy the domain maps: timelines and graphs are immutable
	// once created, but the maps themselves mutate under the exclusive
	// lock (e.g. a concurrent BuildIndex), so the job must not read
	// the shared maps after we release the lock. Tiling keeps this sound:
	// AppendSlice never mutates a published Timeline or Graph — extension
	// goes through temporal.Timeline.Extend, which returns a fresh copy —
	// and it serializes with this function on ingestMu, so the captured
	// pointers cannot change length mid-job. If that serialization
	// were ever relaxed, the minTS/maxTS recheck at the splice below is
	// what catches a domain that moved underneath us.
	timelines, graphs := maps.Clone(f.timelines), maps.Clone(f.graphs)
	f.mu.RUnlock()

	// Phase 2 — compute (no lock): fill in domain state for resolutions
	// the corpus has not used yet and run the indexing job against the
	// captured snapshot. Queries proceed concurrently throughout.
	entries, jstats, err := f.runIndexJob([]*dataset.Dataset{d}, minTS, maxTS, timelines, graphs)
	if err != nil {
		return stats, err
	}

	// Phase 3 — splice (brief exclusive lock): publish the new data set.
	// Readers block only for these map inserts and one sort, not for the
	// indexing job above.
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.datasets[d.Name]; dup {
		return stats, fmt.Errorf("core: duplicate dataset %q", d.Name)
	}
	if f.minTS != minTS || f.maxTS != maxTS || !f.indexedLocked() {
		// An exclusive operation (AddDataset, Load, ...) interleaved
		// between our snapshot and the splice and changed the corpus
		// domain: the computed entries may be over the wrong timelines.
		// Correctness first — rebuild from the registered state.
		return f.ingestRebuildLocked(d)
	}
	f.datasets[d.Name] = d
	f.order = append(f.order, d.Name)
	for tr, tl := range timelines {
		if _, ok := f.timelines[tr]; !ok {
			f.timelines[tr] = tl
		}
	}
	for res, g := range graphs {
		if _, ok := f.graphs[res]; !ok {
			f.graphs[res] = g
		}
	}
	for _, e := range entries {
		f.index.add(e)
	}
	f.index.sort(d.Name)
	f.index.markDone(d.Name)
	f.dropResultsInvolving(d.Name)

	stats = f.corpusStats(jstats, 1)
	mIngests.Inc()
	mIndexFunctions.Set(float64(f.index.numFunctions()))
	return stats, nil
}

// ingestRebuildLocked is IngestDataset's fallback: plain AddDataset +
// BuildIndex under the already-held exclusive lock.
func (f *Framework) ingestRebuildLocked(d *dataset.Dataset) (IndexStats, error) {
	if err := f.addDatasetLocked(d); err != nil {
		return IndexStats{}, err
	}
	st, err := f.buildIndexLocked()
	if err == nil {
		mIngests.Inc()
	}
	return st, err
}
