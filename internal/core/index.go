package core

import (
	"maps"
	"slices"
	"sync"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relgraph"
)

// This file is the index layer of the framework: the Index type stores the
// precomputed feature entries of every indexed function, organised by data
// set and resolution, and reports per-data-set statistics. The Framework
// publishes a new Index with every corpus write (write.go), reusing the
// entries the write did not touch — indexing a newly added data set
// computes only that data set's functions.

// FunctionEntry is one indexed scalar function: its identity, feature sets,
// and per-tile metadata. Raw values and merge trees are dropped after
// feature extraction to keep the index small (the paper stores features,
// not functions, for querying — Section 5.2).
//
// Every entry is tiled and finalized: NumSteps > 0 divides NumVertices, the
// length of its vectors, it has one tile table element per tile, and
// finalize has run. rebuildEntryTiles builds entries of that shape over a
// timeline and its graph; parseFlatIndex refuses a snapshot entry of any
// other, and installIndexLocked one over another number of steps than the
// corpus timeline. No reader handles an entry without that shape.
type FunctionEntry struct {
	Key      string
	Dataset  string
	SpecName string
	Res      Resolution

	Salient *feature.Set
	Extreme *feature.Set

	// SalientOcc and ExtremeOcc are the feature bit-vector occupancy
	// summaries the query planner prunes with.
	SalientOcc, ExtremeOcc Occupancy

	// NumVertices is the size of the domain graph, NumSteps times the
	// number of regions.
	NumVertices int
	// CriticalPoints counts join+split tree critical vertices (index size):
	// the sum of TileCriticalPoints.
	CriticalPoints int

	// NumSteps is the length of the temporal domain the entry was built
	// over. Together with Res.Temporal it determines the tile partition
	// (temporal.TileWidth).
	NumSteps int
	// TileCriticalPoints holds the merge-tree critical point count of each
	// tile, what an append reuses for untouched tiles.
	TileCriticalPoints []int

	// Cached feature unions Σ = positive ∪ negative per class, shared by the
	// planner and relationship evaluation so neither re-derives them per pair,
	// and their word-occupancy bitmaps (bitvec.Occupied), so both walk only
	// the words two unions occupy.
	salientAll, extremeAll     *bitvec.Vector
	salientWords, extremeWords *bitvec.Vector

	// Per-class tile occupancy bitmaps (bit t set ⇔ tile t contains at least
	// one feature bit of that class), installed by finalize. The significance
	// test of a pair runs over the union of both entries' occupied tiles —
	// the supporting window — so a pair's p-value depends only on the tiles
	// that back it and is invariant under appends that leave them untouched.
	salientTiles, extremeTiles []uint64

	// pos is the entry's position in its data set's key-sorted entry list
	// (Index.funcs), the name a tested candidate record gives it.
	pos uint32
}

// classSummary is what an entry keeps of one feature class beside its
// Positive and Negative vectors: their union, its occupancy counts, its
// tile occupancy bitmap (bit t set ⇔ tile t holds a feature bit of the
// class) and its word-occupancy bitmap (bit i set ⇔ word i of the union is
// non-zero). summarize derives it from the vectors when an entry is built;
// the entry's snapshot record carries it, so a load reads it as written.
type classSummary struct {
	all   *bitvec.Vector
	occ   Occupancy
	tiles []uint64
	words *bitvec.Vector
}

// finalize installs both classes' summaries: freshly derived, or read from
// a snapshot record whose unions and bitmaps are zero-copy views into the
// mapping (the snapshot CRC guards them in transit). It runs once per
// entry, after the entry's shape has been checked, before the entry is
// queried.
func (e *FunctionEntry) finalize(salient, extreme classSummary) {
	e.salientAll, e.SalientOcc, e.salientTiles, e.salientWords = salient.all, salient.occ, salient.tiles, salient.words
	e.extremeAll, e.ExtremeOcc, e.extremeTiles, e.extremeWords = extreme.all, extreme.occ, extreme.tiles, extreme.words
}

// tileOcc returns the tile occupancy bitmap of the given class.
func (e *FunctionEntry) tileOcc(c feature.Class) []uint64 {
	if c == feature.Salient {
		return e.salientTiles
	}
	return e.extremeTiles
}

// set returns the feature set of the given class.
func (e *FunctionEntry) set(c feature.Class) *feature.Set {
	if c == feature.Salient {
		return e.Salient
	}
	return e.Extreme
}

// union returns the cached feature union of the given class.
func (e *FunctionEntry) union(c feature.Class) *bitvec.Vector {
	if c == feature.Salient {
		return e.salientAll
	}
	return e.extremeAll
}

// wordOcc returns the word-occupancy bitmap of the given class's union.
func (e *FunctionEntry) wordOcc(c feature.Class) *bitvec.Vector {
	if c == feature.Salient {
		return e.salientWords
	}
	return e.extremeWords
}

// occ returns the occupancy summary of the given class.
func (e *FunctionEntry) occ(c feature.Class) Occupancy {
	if c == feature.Salient {
		return e.SalientOcc
	}
	return e.ExtremeOcc
}

// Occupancy summarises one feature bit vector family by popcounts: how many
// vertices are positive features, negative features, and either. The query
// planner derives sound upper bounds on tau and rho from these counts alone
// (see planner.go), which is what lets it skip evaluation entirely.
type Occupancy struct {
	Pos, Neg, All int
}

// DatasetStats reports the index footprint of one data set.
type DatasetStats struct {
	// Functions is the number of indexed scalar functions (across all
	// resolutions).
	Functions int
	// Resolutions is the number of distinct evaluation resolutions the data
	// set is indexed at.
	Resolutions int
	// CriticalPoints is the total merge-tree critical points across the
	// data set's functions (the paper's index-size measure, Figure 7).
	CriticalPoints int
	// SalientFeatures and ExtremeFeatures are the total feature bits across
	// the data set's functions.
	SalientFeatures, ExtremeFeatures int
}

// Index stores the feature entries of every indexed function. It supports
// incremental growth: entries are added per data set, and a data set can be
// dropped and re-added without touching the others.
//
// An Index is not internally synchronised: a corpus write or Load fills
// it before publishing it, and it is never mutated after — safe for
// lock-free concurrent reads, and for a write to capture as its base (see
// the Framework concurrency contract).
type Index struct {
	// entries[dataset][Resolution] -> function entries at that resolution,
	// sorted by Key within each resolution.
	entries map[string]map[Resolution][]*FunctionEntry
	// funcs[dataset] -> every entry of the data set sorted by key, the
	// order the index section writes them in. A candidate record names its
	// functions by position here (FunctionEntry.pos). Positions outlive any
	// one Index: a data set that is re-indexed has its families dropped
	// (dropResultsInvolving), and one that is not keeps its keys, so its
	// list in the next Index is the same. Every data set the index covers
	// has a key here.
	funcs map[string][]*FunctionEntry

	// tab is the function table graphs and query answers are assembled
	// over, built on first use after a change (table).
	tabMu sync.Mutex
	tab   *funcTable
}

func newIndex() *Index {
	return &Index{
		entries: make(map[string]map[Resolution][]*FunctionEntry),
		funcs:   make(map[string][]*FunctionEntry),
	}
}

// add inserts one entry. Call sort after the last add for a data set.
func (ix *Index) add(e *FunctionEntry) {
	byRes := ix.entries[e.Dataset]
	if byRes == nil {
		byRes = make(map[Resolution][]*FunctionEntry)
		ix.entries[e.Dataset] = byRes
	}
	byRes[e.Res] = append(byRes[e.Res], e)
}

// has reports whether the data set is covered by the index.
func (ix *Index) has(ds string) bool {
	_, ok := ix.funcs[ds]
	return ok
}

// at returns the entries of a data set at a resolution (nil when absent).
func (ix *Index) at(ds string, res Resolution) []*FunctionEntry {
	return ix.entries[ds][res]
}

// numFunctions returns the total number of indexed entries.
func (ix *Index) numFunctions() int {
	n := 0
	for _, byRes := range ix.entries {
		for _, es := range byRes {
			n += len(es)
		}
	}
	return n
}

// sort orders a data set's entries deterministically by key within each
// resolution and lays out its key-sorted entry list, numbering positions;
// the data set is then covered.
func (ix *Index) sort(ds string) {
	var all []*FunctionEntry
	for _, es := range ix.entries[ds] {
		sortEntriesByKey(es)
		all = append(all, es...)
	}
	sortEntriesByKey(all)
	for i, e := range all {
		e.pos = uint32(i)
	}
	ix.funcs[ds] = all
	ix.tabMu.Lock()
	ix.tab = nil
	ix.tabMu.Unlock()
}

// addRun adds a data set's entries from run, its key-ascending entry list
// as a parsed index section holds it (parseFlatIndex refuses any other
// order), and covers the data set. Positions are numbered by the run,
// so the entries keep the positions they were saved with and nothing is
// sorted.
func (ix *Index) addRun(ds string, run []*FunctionEntry) {
	for i, e := range run {
		e.pos = uint32(i)
		ix.add(e)
	}
	ix.funcs[ds] = run
}

// funcTable is the index's functions as one relgraph table: every data
// set's key-sorted entries in data set order, so a candidate record of
// pair (A, B) names table ids base[A]+posA and base[B]+posB.
type funcTable struct {
	*relgraph.Table
	base map[string]uint32
}

// table returns the index's function table, building it on first use
// after a change. Safe for concurrent readers.
func (ix *Index) table() *funcTable {
	ix.tabMu.Lock()
	defer ix.tabMu.Unlock()
	if ix.tab != nil {
		return ix.tab
	}
	names := slices.Sorted(maps.Keys(ix.funcs))
	t := &funcTable{base: make(map[string]uint32, len(names))}
	var fns []relgraph.Function
	for _, ds := range names {
		t.base[ds] = uint32(len(fns))
		for _, e := range ix.funcs[ds] {
			fns = append(fns, relgraph.Function{Key: e.Key, Dataset: e.Dataset, Spec: e.SpecName,
				SRes: e.Res.Spatial, TRes: e.Res.Temporal})
		}
	}
	t.Table = relgraph.NewTable(fns)
	ix.tab = t
	return t
}

// datasetStats sums a data set's entries into its statistics, reporting
// ok = false for data sets the index does not cover.
func (ix *Index) datasetStats(ds string) (DatasetStats, bool) {
	run, ok := ix.funcs[ds]
	st := DatasetStats{Functions: len(run), Resolutions: len(ix.entries[ds])}
	for _, e := range run {
		st.CriticalPoints += e.CriticalPoints
		st.SalientFeatures += e.SalientOcc.All
		st.ExtremeFeatures += e.ExtremeOcc.All
	}
	return st, ok
}
