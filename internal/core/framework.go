// Package core assembles the end-to-end Data Polygamy framework
// (Section 5 of the paper): data sets are registered, transformed into
// scalar functions at every viable spatio-temporal resolution, indexed with
// merge trees, their salient and extreme features precomputed, and finally
// queried with the relationship operator under optional clause filters and
// restricted Monte Carlo significance testing.
//
// The engine is organised in four layers (see DESIGN.md):
//
//   - the worker-pool layer (internal/mapreduce ForEach): scalar function
//     computation and feature identification — the paper's first two
//     map-reduce jobs (Appendix C) — run fused in one task per function,
//     which is merge-tree indexed tile by tile and dropped before the task
//     returns, so the corpus of raw functions is never materialised;
//   - the index layer (index.go): a first-class Index of per-function
//     feature entries that grows incrementally as data sets are added;
//   - the query planner layer (planner.go): relationship queries are turned
//     into a pruned task list using per-entry feature occupancy summaries,
//     so provably unsatisfiable pairs never reach evaluation or the Monte
//     Carlo test (the paper's third job);
//   - the relationship graph layer (relgraph.go + internal/relgraph): the
//     corpus-wide many-many relationship graph, materialized over all data
//     set pairs, persisted alongside the index, and maintained
//     incrementally as data sets are added.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Resolution is a spatio-temporal evaluation resolution pair, e.g.
// (neighborhood, hour).
type Resolution struct {
	Spatial  spatial.Resolution
	Temporal temporal.Resolution
}

// String renders the resolution as "(hour, city)"-style text matching the
// paper's notation (temporal first).
func (r Resolution) String() string {
	return fmt.Sprintf("(%s, %s)", r.Temporal, r.Spatial)
}

// Options configures a Framework.
type Options struct {
	// City is the spatial substrate shared by the corpus. Required.
	City *spatial.CityMap
	// Workers sizes the worker pool ("cluster nodes"); 0 => NumCPU.
	Workers int
	// Seed seeds the Monte Carlo randomization tests. Each pair's own draws
	// derive deterministically from this seed and the pair's identity, the
	// shared toroidal shifts from this seed and the spatial resolution, so
	// p-values are stable across query shapes.
	Seed int64
}

// IndexStats reports what one corpus write (BuildIndex, IngestDataset or
// AppendSlice, write.go) did. The function, tile and duration fields cover
// only the work that write did; untouched entries are reused as they are.
// Framework.Rebuilds counts the writes that rebuilt from an empty base.
type IndexStats struct {
	Datasets        int // data sets registered in the corpus
	DatasetsIndexed int // data sets (re)indexed from no base by this write
	DatasetsReused  int // data sets whose existing entries were the base
	// Functions counts the index entries this write computed, from no base
	// or restitched over a grown domain; EntriesReused those it kept.
	Functions     int
	FeatureSets   int // feature sets extracted by this write
	EntriesReused int

	// TilesComputed and TilesReused count, across all function tasks, the
	// temporal tiles recomputed versus kept from the existing index.
	// Appending into a partial tile recomputes it for every entry.
	TilesComputed int
	TilesReused   int

	// Extended reports that the write moved the end of time past the
	// corpus's, or past the timelines' (a data set registered by AddDataset
	// ends later).
	Extended bool
	// ChangedDatasets lists the data sets whose feature bits changed or that
	// had no entries before (sorted); their families and memoised answers
	// are dropped, and GraphPairsDropped counts those dropped under the
	// published graph's signature, for re-test by the next BuildGraph.
	ChangedDatasets   []string
	GraphPairsDropped int
	// FellBack reports that the write computed every entry from an empty
	// base: nothing was indexed yet, or a rebuild.
	FellBack bool

	// ComputeDuration and IndexDuration are cumulative time spent across
	// workers in scalar computation and feature identification. Each task
	// runs both phases, tile by tile, so they overlap in wall time;
	// WallDuration is the end-to-end elapsed time of the write.
	ComputeDuration time.Duration
	IndexDuration   time.Duration
	WallDuration    time.Duration
}

// Framework is the Data Polygamy engine for one corpus.
//
// # Concurrency
//
// A Framework separates exclusive (index-mutating) operations from shared
// (read-only) ones. AddDataset and Load take the state lock exclusively;
// concurrent readers block until they finish. BuildIndex, IngestDataset and
// AppendSlice compute without it and hold it only to publish (write.go);
// all writers serialize on one mutex. Once BuildIndex
// has succeeded, Query, Entries, Datasets, DatasetIndexStats, Graph,
// RelGraph, NumFunctions, Indexed, and Save are all safe to call from any
// number of goroutines: the
// index, shared timelines, and domain graphs are immutable between builds,
// the family store and the answer memo are guarded by their own mutexes,
// and the memo deduplicates — N identical in-flight queries trigger one
// evaluation, and the other N−1 wait for its result (QueryStats reports
// those as Coalesced cache hits). BuildGraph runs under the shared lock too
// — builders serialize on their own mutex, so materializing the
// relationship graph never stalls query traffic.
type Framework struct {
	opts Options

	// mu is the state lock: AddDataset and Load hold it exclusively, and a
	// corpus write for its splice; every read path (including the whole of
	// Query) shares it. Fields below mu are written only under writeMu and
	// the exclusive lock.
	mu sync.RWMutex

	// order names the corpus in registration order; datasets holds its raw
	// data, which only writes read. A framework opened from a snapshot alone
	// has the names and no raw data (writableLocked).
	datasets map[string]*dataset.Dataset
	order    []string

	// corpus-wide time range (all functions share per-resolution timelines
	// so feature bit vectors are directly comparable).
	minTS, maxTS int64

	timelines map[temporal.Resolution]*temporal.Timeline
	graphs    map[Resolution]*stgraph.Graph

	// shifts holds the toroidal-shift sequence every significance test at a
	// spatial resolution draws from (montecarlo.ShiftPool). It is a function
	// of the city and Options.Seed alone, so it is fixed at New, outlives
	// index rebuilds and appends, is never persisted, and is identical in
	// every process that serves this corpus.
	shifts map[spatial.Resolution]*montecarlo.ShiftPool

	index *Index
	built bool // a corpus write or Load has succeeded at least once

	// families is the one store of Monte Carlo results (see relgraph.go):
	// by test signature (graphSignature), then by data set pair, every
	// tested relationship with its raw p-value. Query and BuildGraph both
	// read it and fill its missing pairs. famMu guards it; it nests inside
	// mu and is never held across an evaluation.
	famMu    sync.Mutex
	families map[string]map[graphPair][]candidate

	// published is the materialized relationship graph with its clause and
	// families (graphRecord), replaced wholesale and read without any lock.
	// A builder publishes under the shared lock, holding graphMu, which
	// serializes BuildGraph against BuildGraph; everything else that
	// replaces it (invalidation, reset, Load) holds mu exclusively.
	graphMu   sync.Mutex
	published atomic.Pointer[graphRecord]

	// writeMu is the one writer mutex: AddDataset, Load and every corpus
	// write (write.go) hold it, so nothing changes the corpus between a
	// write's capture and its splice. It is taken before mu and never while
	// holding it.
	writeMu sync.Mutex

	// cache is the one answer memo (query.go): one entry per query
	// signature, in flight or done. cacheMu guards it. It nests inside mu
	// (Query touches it while holding the read lock) and is never held
	// across a query evaluation: an entry publishes its answer by closing
	// its done channel, so waiters block on the channel, not the mutex.
	cacheMu sync.Mutex
	cache   map[string]*cachedResult

	// rebuilds counts the corpus writes that discarded the derived state
	// (a start in an earlier step, write.go) over the framework's lifetime,
	// so operators can see rebuild storms (every one discards all bit
	// vectors, caches, and the relationship graph). Read by Rebuilds.
	rebuilds atomic.Int64

	// mappings are the snapshot containers adopted by Load: sections are
	// viewed in place, so each must outlive every reachable bit vector,
	// string and edge, and only Close releases them (lock-free readers may
	// hold an older one's views). snapZeroCopy records how the last Load
	// sourced its sections (see LoadedSnapshot).
	mappings     []*store.Mapped
	snapZeroCopy bool
}

// New creates a framework over the given city.
func New(opts Options) (*Framework, error) {
	if opts.City == nil {
		return nil, fmt.Errorf("core: Options.City is required")
	}
	// Every spatial resolution an entry can have; a pool is empty until a
	// test reads it.
	shifts := make(map[spatial.Resolution]*montecarlo.ShiftPool)
	for _, sr := range []spatial.Resolution{spatial.ZipCode, spatial.Neighborhood, spatial.City} {
		shifts[sr] = montecarlo.NewShiftPool(opts.City.Adjacency(sr), shiftSeed(opts.Seed, sr))
	}
	return &Framework{
		opts:      opts,
		datasets:  make(map[string]*dataset.Dataset),
		index:     newIndex(),
		timelines: make(map[temporal.Resolution]*temporal.Timeline),
		graphs:    make(map[Resolution]*stgraph.Graph),
		shifts:    shifts,
		families:  make(map[string]map[graphPair][]candidate),
		cache:     make(map[string]*cachedResult),
	}, nil
}

// workers returns the effective worker-pool size.
func (f *Framework) workers() int {
	if f.opts.Workers <= 0 {
		return runtime.NumCPU()
	}
	return f.opts.Workers
}

// AddDataset registers a data set with the corpus and widens its time
// range; it computes and drops nothing. The next corpus write (write.go)
// indexes it from no base under the one range rule that write applies to
// IngestDataset: a later end grows the domain forward, and only a start in
// an earlier step than some timeline's first rebuilds from an empty base.
//
// AddDataset takes the writer mutex and the state lock exclusively: it
// blocks until an in-flight write finishes and reads drain (see the
// Framework concurrency contract).
func (f *Framework) AddDataset(d *dataset.Dataset) error {
	span, err := d.Validate()
	if err != nil {
		return err
	}
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWriteLocked(d, nil, span); err != nil {
		return err
	}
	f.minTS, f.maxTS = widenRange(len(f.order) == 0, f.minTS, f.maxTS, span)
	f.datasets[d.Name] = d
	f.order = append(f.order, d.Name)
	return nil
}

// Datasets returns the registered data set names in insertion order.
func (f *Framework) Datasets() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string{}, f.order...)
}

// writableLocked refuses a write on a framework whose corpus has no raw
// data: one opened from a snapshot alone (Open without Datasets) holds the
// corpus names, time range and index, but none of the tuples new derived
// state is computed from. The caller must hold the state lock.
func (f *Framework) writableLocked() error {
	if len(f.datasets) < len(f.order) {
		return fmt.Errorf("core: framework was opened from a snapshot without its raw data sets and is read-only")
	}
	return nil
}

// resolutionsFor enumerates the evaluation resolutions — zip code…city ×
// hour…month, the paper's evaluation set (GPS and raw seconds never are) —
// that a data set's native resolutions convert to. Every valid data set
// converts to (city, month).
func (f *Framework) resolutionsFor(d *dataset.Dataset) []Resolution {
	var out []Resolution
	for sr := spatial.ZipCode; sr <= spatial.City; sr++ {
		if !d.SpatialRes.ConvertibleTo(sr) {
			continue
		}
		for tr := temporal.Hour; tr <= temporal.Month; tr++ {
			if !d.TemporalRes.ConvertibleTo(tr) {
				continue
			}
			out = append(out, Resolution{sr, tr})
		}
	}
	return out
}

// graph returns the domain graph at res in graphs, first creating it — and
// the timeline over [minTS, maxTS] it spans, in timelines — when missing.
// The maps are copies a corpus write or Load fills before publishing them.
func (f *Framework) graph(res Resolution, minTS, maxTS int64,
	timelines map[temporal.Resolution]*temporal.Timeline, graphs map[Resolution]*stgraph.Graph) (*stgraph.Graph, error) {
	if g, ok := graphs[res]; ok {
		return g, nil
	}
	tl, ok := timelines[res.Temporal]
	if !ok {
		var err error
		if tl, err = temporal.NewTimeline(minTS, maxTS, res.Temporal); err != nil {
			return nil, err
		}
		timelines[res.Temporal] = tl
	}
	g, err := stgraph.New(f.opts.City.NumRegions(res.Spatial), tl.Len(), f.opts.City.Adjacency(res.Spatial))
	if err != nil {
		return nil, err
	}
	graphs[res] = g
	return g, nil
}

// funcTask is one indexing work unit.
type funcTask struct {
	ds   *dataset.Dataset
	spec scalar.Spec
	res  Resolution
}

// BuildIndex brings the index up to date with the registered data sets:
// every not-yet-indexed data set's scalar functions are computed at every
// viable resolution, merge-tree indexed, and their salient and extreme
// features extracted. The first call indexes the whole corpus; after an
// AddDataset only the new data set is computed, plus the grown tiles of the
// others when it ends later (write.go).
//
// Each function is one ForEach input that computes and feature-indexes it
// tile by tile (tile.go), dropping the raw function before it returns, so
// peak memory holds the index entries plus one function per worker.
//
// BuildIndex is one corpus write (write.go): the job runs without the
// state lock, and reads observe either the previous or the fully built
// index, never a partial one.
func (f *Framework) BuildIndex() (IndexStats, error) {
	st, err := f.write(nil, nil, dataset.Span{})
	if err == nil && st.DatasetsIndexed > 0 {
		mIndexBuilds.Inc()
		mIndexBuildDuration.Observe(st.WallDuration.Seconds())
	}
	return st, err
}

// indexedLocked reports whether the index covers every registered data
// set. The caller must hold the state lock (shared or exclusive).
func (f *Framework) indexedLocked() bool {
	return f.built && !slices.ContainsFunc(f.order, func(n string) bool { return !f.index.has(n) })
}

// Indexed reports whether the index covers every registered data set.
func (f *Framework) Indexed() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.indexedLocked()
}

// Entries returns the indexed function entries of a data set at a
// resolution (nil when absent).
func (f *Framework) Entries(ds string, res Resolution) []*FunctionEntry {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.index.at(ds, res)
}

// DatasetIndexStats returns the per-data-set index statistics, reporting
// ok = false for data sets that are not (yet) indexed.
func (f *Framework) DatasetIndexStats(ds string) (DatasetStats, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.index.datasetStats(ds)
}

// Graph returns the shared domain graph at res, if one was built during
// indexing.
func (f *Framework) Graph(res Resolution) (*stgraph.Graph, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	g, ok := f.graphs[res]
	return g, ok
}

// Rebuilds returns the framework-lifetime count of full derived-state
// rebuilds (index, timelines, graphs, caches all dropped and re-derived).
func (f *Framework) Rebuilds() int64 { return f.rebuilds.Load() }

// NumFunctions returns the total number of indexed scalar functions.
func (f *Framework) NumFunctions() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.index.numFunctions()
}

func sortEntriesByKey(es []*FunctionEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
}
