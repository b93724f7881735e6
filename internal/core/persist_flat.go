package core

// Flat codecs — the one serialisation of derived state. The index section
// and the graph section are written as length-prefixed little-endian slabs
// with 8-byte alignment (internal/store's SlabWriter / SlabReader), so a
// memory-mapped snapshot is *viewed* instead of decoded: feature bit vectors
// (bitvec.ViewBytes), strings (store.SlabReader.String) and tested
// candidate records (viewCandidates) alias the mapping, and replicas on one
// host share the page cache. At paper scale (hundreds of data sets)
// decoding every bit vector and candidate into fresh heap objects would
// cost seconds of warm start and a duplicated heap per process.
//
// Parsing is split from installation: parseFlatIndex / parseFlatGraph are
// pure functions over a byte slice (fuzzed in persist_flat_test.go) whose
// failures all wrap store.ErrCorrupt — the graph parser checks every record
// against the parsed index's entry lists; the framework-aware steps
// (installIndexLocked, stageGraphLocked) then validate the parsed values
// against the registered corpus before anything is mutated.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// flatSnapshotVersion is the generation of the flat encoding, written as
// the word after every payload's magic. It equals store.FormatVersion: the
// per-entry tile table and the clause's query window fields arrived in 5;
// 6 marked p-values drawn under the shared shift sequences
// (montecarlo.ShiftPool); 7 stores each tested candidate as a fixed-width
// record naming its functions by position in the index section; 8 marks
// families whose one-region p-values are enumerated exactly and which hold
// no tuple whose test cannot reach alpha (a v7 family has sampled p-values
// and those tuples); 9 drops the entry-level thresholds (tile 0's) and the
// domain graph's edge count from each index entry; 10 stores each entry's
// occupancy counts and class tile bitmaps, which a load had recomputed from
// the vectors, and drops the per-vector bit lengths and the critical point
// total; 11 marks p-values counted two-sided (|tau*| >= |tau|), where a v10
// family's p-values counted in the observed score's direction only; 12
// drops the graph section's clause signature and selection rule, which
// derive from its clause; 13 drops the per-tile thresholds, which nothing
// read, leaving one critical point count per tile, and the clause's
// exhaustive flag, retired test kind and reserved word; 14 stores each
// candidate's test counts (extreme, visited) in place of its p-value; 15
// stores each class union's word-occupancy bitmap, which relationship
// evaluation and the planner walk instead of every word.
// Evolving any layout or meaning below means bumping both (the format has
// no field tags).
const flatSnapshotVersion = 15

// Payload magics. The final byte is the generation, so another
// generation's layout is "not flat v15" rather than a misparse.
var (
	flatIndexMagic = []byte("DPIXFLT\x0f")
	flatGraphMagic = []byte("DPGRFLT\x0f")
)

// nilSlice is the length sentinel distinguishing a nil clause slice
// (meaning "all") from an empty one.
const nilSlice = ^uint64(0)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: "+format+": %w", append(args, store.ErrCorrupt)...)
}

// openFlat checks a payload's magic and generation word and returns a
// reader positioned after them.
func openFlat(data, magic []byte, what string) (*store.SlabReader, error) {
	if !bytes.HasPrefix(data, magic) {
		return nil, corruptf("%s is not flat v%d", what, flatSnapshotVersion)
	}
	r := store.NewSlabReader(data)
	r.Raw(len(magic))
	if v := r.U64(); r.Err() == nil && v != flatSnapshotVersion {
		return nil, corruptf("flat %s version %d, want %d", what, v, flatSnapshotVersion)
	}
	return r, nil
}

// ---- index section ----

// collectEntriesLocked returns every index entry in the canonical snapshot
// order (data set, then key). The caller must hold the state lock.
func (f *Framework) collectEntriesLocked() []*FunctionEntry {
	var out []*FunctionEntry
	for _, name := range f.order {
		for _, es := range f.index.entries[name] {
			out = append(out, es...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// encodeFlatIndexLocked serialises the built index as a flat section.
// The caller must hold the state lock (shared or exclusive).
func (f *Framework) encodeFlatIndexLocked() ([]byte, error) {
	if !f.indexedLocked() {
		return nil, fmt.Errorf("core: Save requires a built index")
	}
	entries := f.collectEntriesLocked()
	est := 256
	for _, e := range entries {
		est += 256 + len(e.Key) + len(e.Dataset) + len(e.SpecName) + 6*e.Salient.Positive.WordBytes() + 2*e.salientWords.WordBytes()
	}
	w := store.NewSlabWriter(est)
	w.Raw(flatIndexMagic)
	w.U64(flatSnapshotVersion)
	w.I64(f.minTS)
	w.I64(f.maxTS)
	w.U64(uint64(len(f.order)))
	for _, name := range f.order {
		w.String(name)
	}
	w.U64(uint64(len(entries)))
	for _, e := range entries {
		if e.NumVertices > math.MaxUint32 {
			return nil, fmt.Errorf("core: entry %s spans %d vertices, more than a record counts", e.Key, e.NumVertices)
		}
		w.String(e.Key)
		w.String(e.Dataset)
		w.String(e.SpecName)
		w.I64(int64(e.Res.Spatial))
		w.I64(int64(e.Res.Temporal))
		w.I64(int64(e.NumVertices))
		// Tile table: domain length plus per-tile critical point counts, so
		// appends can reuse untouched tiles after a warm open.
		// CriticalPoints is their sum, recomputed at load.
		w.I64(int64(e.NumSteps))
		w.U64(uint64(len(e.TileCriticalPoints)))
		for _, c := range e.TileCriticalPoints {
			w.I64(int64(c))
		}
		// The summaries the builder derived: six occupancy counts, two to a
		// word, and per class its tile bitmap (v10) and its union's
		// word-occupancy bitmap (v15), so a load installs them without
		// reading a feature bit.
		w.U64(packCounts(e.SalientOcc.Pos, e.SalientOcc.Neg))
		w.U64(packCounts(e.SalientOcc.All, e.ExtremeOcc.Pos))
		w.U64(packCounts(e.ExtremeOcc.Neg, e.ExtremeOcc.All))
		for _, c := range [...]feature.Class{feature.Salient, feature.Extreme} {
			for _, word := range e.tileOcc(c) {
				w.U64(word)
			}
			w.AppendFunc(e.wordOcc(c).AppendWords)
		}
		// The derived unions are persisted too: reloading them as views
		// keeps the whole feature working set inside the shared mapping.
		// Every vector is NumVertices bits long, so no slab carries its
		// length.
		for _, v := range []*bitvec.Vector{
			e.Salient.Positive, e.Salient.Negative,
			e.Extreme.Positive, e.Extreme.Negative,
			e.salientAll, e.extremeAll,
		} {
			w.AppendFunc(v.AppendWords)
		}
	}
	return w.Finish(), nil
}

// packCounts lays out two occupancy counts, each at most NumVertices and so
// below 2^32, as one word: lo in the low half, hi in the high half.
func packCounts(lo, hi int) uint64 { return uint64(lo) | uint64(hi)<<32 }

// readOccupancy reads the three words packCounts wrote for an entry's two
// classes.
func readOccupancy(r *store.SlabReader) (salient, extreme Occupancy) {
	var c [6]int
	for i := 0; i < 6; i += 2 {
		v := r.U64()
		c[i], c[i+1] = int(uint32(v)), int(v>>32)
	}
	return Occupancy{Pos: c[0], Neg: c[1], All: c[2]}, Occupancy{Pos: c[3], Neg: c[4], All: c[5]}
}

// readFlatVector builds a zero-copy view of one n-bit vector slab into the
// caller-allocated dst (batched by parseFlatIndex).
func readFlatVector(r *store.SlabReader, dst *bitvec.Vector, n int) error {
	b := r.Raw(8 * bitvec.NumWords(n))
	if err := r.Err(); err != nil {
		return err
	}
	if err := bitvec.ViewBytes(dst, n, b); err != nil {
		return corruptf("%v", err)
	}
	return nil
}

// readSummary checks one class's occupancy counts against the entry's
// vertex count and each other, then views the class's tile bitmap and its
// union's word-occupancy bitmap in place, the latter into the
// caller-allocated words. It reads no feature bit: counts and bitmaps are
// installed as the builder derived them (the snapshot CRC vouches for them
// in transit); what is checked is what no vectors of the entry's shape
// could have: a bitmap bit past the tile or word count, or a bitmap that is
// empty when the union count is not 0, or the other way round.
func readSummary(r *store.SlabReader, e *FunctionEntry, class string, occ Occupancy, nTiles int, words *bitvec.Vector) ([]uint64, error) {
	if occ.Pos > e.NumVertices || occ.Neg > e.NumVertices || occ.All > e.NumVertices {
		return nil, corruptf("entry %s: %s counts %+v exceed its %d vertices", e.Key, class, occ, e.NumVertices)
	}
	if max(occ.Pos, occ.Neg) > occ.All || occ.All > occ.Pos+occ.Neg {
		return nil, corruptf("entry %s: %s union count %d outside [max, sum] of its signs' %d and %d",
			e.Key, class, occ.All, occ.Pos, occ.Neg)
	}
	var tiles bitvec.Vector
	if err := readBitmap(r, &tiles, nTiles, e, class, "tile", occ.All); err != nil {
		return nil, err
	}
	if err := readBitmap(r, words, bitvec.NumWords(e.NumVertices), e, class, "word", occ.All); err != nil {
		return nil, err
	}
	return tiles.Words(), nil
}

// readBitmap views one n-bit summary bitmap into dst and checks that it is
// empty exactly when the class's union count all is 0.
func readBitmap(r *store.SlabReader, dst *bitvec.Vector, n int, e *FunctionEntry, class, what string, all int) error {
	if err := readFlatVector(r, dst, n); err != nil {
		return fmt.Errorf("core: entry %s: %s %s bitmap: %w", e.Key, class, what, err)
	}
	if (all == 0) != !dst.Any() {
		return corruptf("entry %s: %s %s bitmap disagrees with its union count %d", e.Key, class, what, all)
	}
	return nil
}

// flatIndexSnap is a parsed flat index section: the snapshot's identity
// plus fully built entries whose bit vectors view the payload in place, and
// funcs, every listed data set's key-sorted run of entries — the lists a
// graph section's records name positions in.
type flatIndexSnap struct {
	minTS, maxTS int64
	order        []string
	entries      []*FunctionEntry
	funcs        map[string][]*FunctionEntry
}

// parseFlatIndex decodes a flat index payload with no framework access, no
// heap copies of the bit-vector slabs and no read of a feature bit: the
// summaries are installed as the record states them. Every failure —
// truncation, bad counts, tail bits beyond a vector's or bitmap's length,
// an entry whose shape is not a tiled one (see FunctionEntry), summaries
// that no vectors of its shape could have (readSummary), entries that
// are not one key-ascending run per listed data set — wraps
// store.ErrCorrupt.
func parseFlatIndex(data []byte) (flatIndexSnap, error) {
	var snap flatIndexSnap
	r, err := openFlat(data, flatIndexMagic, "index section")
	if err != nil {
		return snap, err
	}
	snap.minTS = r.I64()
	snap.maxTS = r.I64()
	nOrder := r.Count(8)
	snap.order = make([]string, 0, nOrder)
	for i := 0; i < nOrder && r.Err() == nil; i++ {
		snap.order = append(snap.order, r.String())
	}
	nEntries := r.Count(64)
	// Entry, vector, and feature-set headers are batched into three slabs,
	// and the tile tables are carved from a section-wide arena, so warm
	// open allocates per section, not per entry. The counts are bounded by
	// Count, and the loop never outgrows the slabs, so the pointers taken
	// below stay valid. An arena that grows leaves the entries carved so far
	// on its old backing array, every one capped so no append can reach its
	// neighbour.
	entryBuf := make([]FunctionEntry, nEntries)
	vecBuf := make([]bitvec.Vector, 8*nEntries)
	setBuf := make([]feature.Set, 2*nEntries)
	critArena := make([]int, 0, nEntries)
	snap.entries = make([]*FunctionEntry, 0, nEntries)
	for i := 0; i < nEntries && r.Err() == nil; i++ {
		e := &entryBuf[i]
		e.Key = r.String()
		e.Dataset = r.String()
		e.SpecName = r.String()
		e.Res = Resolution{
			Spatial:  spatial.Resolution(r.I64()),
			Temporal: temporal.Resolution(r.I64()),
		}
		nv := r.U64()
		if nv > math.MaxUint32 {
			return snap, corruptf("entry %s: %d vertices, more than a record counts", e.Key, nv)
		}
		e.NumVertices = int(nv)
		e.NumSteps = int(r.I64())
		nTiles := r.Count(8)
		if r.Err() != nil {
			break
		}
		// The shape the vectors are read at and the tiles partition.
		if e.NumSteps <= 0 || e.NumVertices%e.NumSteps != 0 {
			return snap, corruptf("entry %s: %d steps do not divide %d vertices", e.Key, e.NumSteps, e.NumVertices)
		}
		if !e.Res.Temporal.Valid() || nTiles != temporal.NumTilesFor(e.NumSteps, e.Res.Temporal) {
			return snap, corruptf("entry %s: %d tiles for %d steps at temporal resolution %d", e.Key, nTiles, e.NumSteps, e.Res.Temporal)
		}
		t0 := len(critArena)
		for t := 0; t < nTiles && r.Err() == nil; t++ {
			crit := int(r.I64())
			critArena = append(critArena, crit)
			e.CriticalPoints += crit
		}
		e.TileCriticalPoints = critArena[t0:len(critArena):len(critArena)]
		vs := vecBuf[8*i : 8*i+8]
		salOcc, extOcc := readOccupancy(r)
		salTiles, err := readSummary(r, e, "salient", salOcc, nTiles, &vs[6])
		if err != nil {
			return snap, err
		}
		extTiles, err := readSummary(r, e, "extreme", extOcc, nTiles, &vs[7])
		if err != nil {
			return snap, err
		}
		for j := range vs[:6] {
			if err := readFlatVector(r, &vs[j], e.NumVertices); err != nil {
				return snap, err
			}
		}
		e.Salient = &setBuf[2*i]
		e.Extreme = &setBuf[2*i+1]
		*e.Salient = feature.Set{Positive: &vs[0], Negative: &vs[1]}
		*e.Extreme = feature.Set{Positive: &vs[2], Negative: &vs[3]}
		e.finalize(classSummary{&vs[4], salOcc, salTiles, &vs[6]}, classSummary{&vs[5], extOcc, extTiles, &vs[7]})
		snap.entries = append(snap.entries, e)
	}
	if err := r.Done(); err != nil {
		return snap, err
	}
	snap.funcs = make(map[string][]*FunctionEntry, len(snap.order))
	for _, name := range snap.order {
		snap.funcs[name] = nil
	}
	for lo := 0; lo < len(snap.entries); {
		ds := snap.entries[lo].Dataset
		hi := lo + 1
		for ; hi < len(snap.entries) && snap.entries[hi].Dataset == ds; hi++ {
			if snap.entries[hi-1].Key >= snap.entries[hi].Key {
				return snap, corruptf("index entries of %q are not in key order at %q", ds, snap.entries[hi].Key)
			}
		}
		if run, ok := snap.funcs[ds]; !ok || run != nil {
			return snap, corruptf("index entries of %q are not one run of a listed data set", ds)
		}
		snap.funcs[ds] = snap.entries[lo:hi:hi]
		lo = hi
	}
	return snap, nil
}

// installIndexLocked validates a parsed index against the corpus and
// installs it, dropping every Monte Carlo result; on error the framework is
// unchanged. The caller must hold the state lock exclusively and keep the
// payload's backing storage alive for the life of the index (Load adopts
// the snapshot mapping for that).
func (f *Framework) installIndexLocked(snap flatIndexSnap) error {
	if len(snap.order) != len(f.order) {
		return fmt.Errorf("core: index has %d data sets, framework has %d", len(snap.order), len(f.order))
	}
	for i, name := range snap.order {
		if f.order[i] != name {
			return fmt.Errorf("core: index data set %d is %q, framework has %q", i, name, f.order[i])
		}
	}
	if snap.minTS != f.minTS || snap.maxTS != f.maxTS {
		return fmt.Errorf("core: index time range [%d,%d] does not match corpus [%d,%d]",
			snap.minTS, snap.maxTS, f.minTS, f.maxTS)
	}
	ix := newIndex()
	timelines, graphs := maps.Clone(f.timelines), maps.Clone(f.graphs)
	for _, name := range snap.order {
		run := snap.funcs[name]
		if !f.indexesExactly(name, run) {
			return fmt.Errorf("core: index entries of %q are not the functions the framework indexes for it "+
				"(its attributes and resolutions)", name)
		}
		for _, e := range run {
			g, err := f.graph(e.Res, f.minTS, f.maxTS, timelines, graphs)
			if err != nil {
				return err
			}
			if e.NumVertices != g.NumVertices() || e.NumSteps != g.NumSteps() {
				return fmt.Errorf("core: entry %s spans %d vertices over %d steps, graph has %d over %d",
					e.Key, e.NumVertices, e.NumSteps, g.NumVertices(), g.NumSteps())
			}
		}
		ix.addRun(name, run)
	}
	f.index = ix
	f.timelines, f.graphs = timelines, graphs
	f.built = true
	// The index was replaced wholesale; every family derives from it, so
	// drop them too (Load applies the saved graph's after).
	f.resetResults()
	return nil
}

// indexesExactly reports whether run, one data set's entries in key order,
// holds exactly the keys a write indexes for it: one per viable resolution
// and scalar spec. Keys are unique in a run, so a run of that product's
// length whose every key is in it holds them all. A data set the framework
// has no raw data for — a snapshot opened alone — takes its specs and
// resolutions from the run's entries, so only the product is checked.
func (f *Framework) indexesExactly(name string, run []*FunctionEntry) bool {
	var names []string
	var resolutions []Resolution
	funcs := 0
	d := f.datasets[name]
	if d != nil {
		funcs, resolutions = len(scalar.Specs(d)), f.resolutionsFor(d)
	} else {
		for _, e := range run {
			if !slices.Contains(names, e.SpecName) {
				names = append(names, e.SpecName)
			}
			if !slices.Contains(resolutions, e.Res) {
				resolutions = append(resolutions, e.Res)
			}
		}
		funcs = len(names)
	}
	if len(run) != len(resolutions)*funcs {
		return false
	}
	for _, e := range run {
		if !slices.Contains(resolutions, e.Res) || !isEntryKey(e.Key, name, e.SpecName, e.Res) ||
			d != nil && !scalar.SpecNamed(d, e.SpecName) {
			return false
		}
	}
	return true
}

// ---- graph section ----

// candidateBytes is the width of one candidate record in a graph section:
// posA and posB as little-endian uint32s, class, tau and rho as 64-bit
// words, then extreme and visited as uint32s — the in-memory layout of
// candidate on a little-endian host.
const candidateBytes = 40

// hostLittleEndian reports whether the host lays out candidate records as
// the graph section does; elsewhere viewCandidates decodes a copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// appendCandidates appends the records of fam to dst in the section layout.
func appendCandidates(dst []byte, fam []candidate) []byte {
	for _, c := range fam {
		dst = binary.LittleEndian.AppendUint32(dst, c.posA)
		dst = binary.LittleEndian.AppendUint32(dst, c.posB)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.class))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.tau))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.rho))
		dst = binary.LittleEndian.AppendUint32(dst, c.extreme)
		dst = binary.LittleEndian.AppendUint32(dst, c.visited)
	}
	return dst
}

// viewCandidates returns the n records of slab b, which holds exactly n.
// On a little-endian host an 8-aligned slab is viewed in place — the family
// aliases the snapshot mapping — and anything else is decoded into a heap
// copy, the rule bitvec.ViewBytes applies to bit-vector slabs.
func viewCandidates(b []byte, n int) []candidate {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*candidate)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]candidate, n)
	for i := range out {
		r := b[candidateBytes*i:]
		out[i] = candidate{
			posA:    binary.LittleEndian.Uint32(r),
			posB:    binary.LittleEndian.Uint32(r[4:]),
			class:   feature.Class(int64(binary.LittleEndian.Uint64(r[8:]))),
			tau:     math.Float64frombits(binary.LittleEndian.Uint64(r[16:])),
			rho:     math.Float64frombits(binary.LittleEndian.Uint64(r[24:])),
			extreme: binary.LittleEndian.Uint32(r[32:]),
			visited: binary.LittleEndian.Uint32(r[36:]),
		}
	}
	return out
}

// encodeFlatGraphLocked lays out a published graph record as a graph
// section — the inverse of parseFlatGraph. Ahead of the pair table it
// states the candidates' origin: the corpus fingerprint fields the per-pair
// seeds depend on and the clause, from which the test signature and the
// selection rule derive. The pair table lists the record's pairs in
// canonical (A, then B) order, each as its two names, its record count and
// its records as one slab. Only the published graph's families are
// written: one a query stored for a data set ingested since the last build
// is not part of the graph. The caller must hold the state lock (shared or
// exclusive).
func (f *Framework) encodeFlatGraphLocked(rec *graphRecord) []byte {
	keys := slices.SortedFunc(maps.Keys(rec.fams), func(x, y graphPair) int {
		return cmp.Or(strings.Compare(x.A, y.A), strings.Compare(x.B, y.B))
	})
	n := 0
	for _, fam := range rec.fams {
		n += len(fam)
	}
	w := store.NewSlabWriter(4096 + 64*len(keys) + candidateBytes*n)
	w.Raw(flatGraphMagic)
	w.U64(flatSnapshotVersion)
	w.I64(f.opts.Seed)
	w.I64(f.minTS)
	w.I64(f.maxTS)
	writeFlatClause(w, rec.clause)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.String(k.A)
		w.String(k.B)
		w.U64(uint64(len(rec.fams[k])))
		w.AppendFunc(func(dst []byte) []byte { return appendCandidates(dst, rec.fams[k]) })
	}
	return w.Finish()
}

// flatGraphSnap is a parsed graph section: the published graph's families
// with their origin and the clause the graph was built under, so a loaded
// graph supports incremental maintenance — q-value recomputation included —
// exactly like the original, and refreshes under exactly that clause
// (GraphClause).
type flatGraphSnap struct {
	seed         int64
	minTS, maxTS int64
	clause       Clause
	fams         map[graphPair][]candidate
}

// parseFlatGraph decodes a flat graph payload against funcs, the parsed
// index section's key-sorted entry lists (flatIndexSnap.funcs), with no
// framework access. Families are views of the payload where the host
// allows. Besides the structure it checks, in one pass over the records,
// everything a record claims about the index: each pair is canonical
// (A < B), appears once and names listed data sets; each record's
// positions lie inside its data sets' lists and name entries of one
// resolution, its class is a feature class, its test counted no more
// extreme randomizations than it visited (so its p-value lies in
// [1/(1+visited), 1]), and the family is in (posA, posB, class) order.
// Every failure wraps store.ErrCorrupt.
func parseFlatGraph(data []byte, funcs map[string][]*FunctionEntry) (flatGraphSnap, error) {
	var snap flatGraphSnap
	r, err := openFlat(data, flatGraphMagic, "graph section")
	if err != nil {
		return snap, err
	}
	snap.seed = r.I64()
	snap.minTS = r.I64()
	snap.maxTS = r.I64()
	snap.clause = readFlatClause(r)
	if err := snap.clause.Validate(); err != nil {
		return snap, corruptf("graph clause: %v", err)
	}
	nPairs := r.Count(24)
	snap.fams = make(map[graphPair][]candidate, nPairs)
	for i := 0; i < nPairs && r.Err() == nil; i++ {
		k := graphPair{A: r.String(), B: r.String()}
		n := r.Count(candidateBytes)
		slab := r.Raw(candidateBytes * n)
		if r.Err() != nil {
			break
		}
		if k.A >= k.B {
			return snap, corruptf("graph pair %q|%q is not in canonical order", k.A, k.B)
		}
		fa, okA := funcs[k.A]
		fb, okB := funcs[k.B]
		if !okA || !okB {
			return snap, corruptf("graph pair %q|%q covers an unregistered dataset", k.A, k.B)
		}
		if _, dup := snap.fams[k]; dup {
			return snap, corruptf("graph repeats pair %q|%q", k.A, k.B)
		}
		fam := viewCandidates(slab, n)
		for j, c := range fam {
			if int(c.posA) >= len(fa) || int(c.posB) >= len(fb) {
				return snap, corruptf("pair %q|%q record %d names a position past its data set's table", k.A, k.B, j)
			}
			if fa[c.posA].Res != fb[c.posB].Res {
				return snap, corruptf("pair %q|%q record %d relates entries of two resolutions", k.A, k.B, j)
			}
			if c.class != feature.Salient && c.class != feature.Extreme {
				return snap, corruptf("pair %q|%q record %d has class %d", k.A, k.B, j, c.class)
			}
			if c.extreme > c.visited {
				return snap, corruptf("pair %q|%q record %d counts %d extreme of %d randomizations", k.A, k.B, j, c.extreme, c.visited)
			}
			if j > 0 && compareCandidates(fam[j-1], c) >= 0 {
				return snap, corruptf("pair %q|%q record %d is out of order", k.A, k.B, j)
			}
		}
		snap.fams[k] = fam
	}
	return snap, r.Done()
}

// stageGraphLocked validates a parsed graph section against this
// framework's origin without mutating any framework state: the
// parse/stage/apply split lets Load validate every snapshot section before
// it changes anything, so a failed load never leaves the framework
// half-restored. A section is never grafted onto a framework whose families
// it could not have come from: another Monte Carlo seed or another corpus
// time range. The caller must hold the state lock.
func (f *Framework) stageGraphLocked(snap *flatGraphSnap) error {
	if snap.seed != f.opts.Seed {
		return fmt.Errorf("core: graph was built with seed %d, framework has %d", snap.seed, f.opts.Seed)
	}
	if snap.minTS != f.minTS || snap.maxTS != f.maxTS {
		return fmt.Errorf("core: graph corpus time range [%d,%d] does not match [%d,%d]",
			snap.minTS, snap.maxTS, f.minTS, f.maxTS)
	}
	return nil
}

// applyGraphLocked publishes a staged graph section over the installed
// index, its families becoming the stored families of its clause's
// signature. The caller must hold the state lock exclusively. It cannot
// fail.
func (f *Framework) applyGraphLocked(snap *flatGraphSnap) {
	f.famMu.Lock()
	f.families[graphSignature(snap.clause)] = maps.Clone(snap.fams)
	f.famMu.Unlock()
	f.published.Store(&graphRecord{clause: snap.clause, fams: snap.fams, graph: assembleGraph(f.index, snap.fams, snap.clause)})
}

// ---- clause codec ----

// writeFlatClause lays out every Clause field explicitly; evolving the
// clause requires a flat generation bump (the format has no field tags).
func writeFlatClause(w *store.SlabWriter, c Clause) {
	w.F64(c.MinScore)
	w.F64(c.MinStrength)
	if c.Classes == nil {
		w.U64(nilSlice)
	} else {
		w.U64(uint64(len(c.Classes)))
		for _, cl := range c.Classes {
			w.I64(int64(cl))
		}
	}
	if c.Resolutions == nil {
		w.U64(nilSlice)
	} else {
		w.U64(uint64(len(c.Resolutions)))
		for _, res := range c.Resolutions {
			w.I64(int64(res.Spatial))
			w.I64(int64(res.Temporal))
		}
	}
	w.F64(c.Alpha)
	w.I64(int64(c.Permutations))
	w.U64(b2u(c.SkipSignificance))
	w.I64(int64(c.Correction))
	w.F64(c.MaxQ)
	w.U64(b2u(c.Windowed))
	w.I64(c.WindowFrom)
	w.I64(c.WindowTo)
}

func readFlatClause(r *store.SlabReader) Clause {
	var c Clause
	c.MinScore = r.F64()
	c.MinStrength = r.F64()
	if n := r.U64(); n != nilSlice {
		nn := boundCount(r, n, 8)
		c.Classes = make([]feature.Class, 0, nn)
		for i := 0; i < nn && r.Err() == nil; i++ {
			c.Classes = append(c.Classes, feature.Class(r.I64()))
		}
	}
	if n := r.U64(); n != nilSlice {
		nn := boundCount(r, n, 16)
		c.Resolutions = make([]Resolution, 0, nn)
		for i := 0; i < nn && r.Err() == nil; i++ {
			c.Resolutions = append(c.Resolutions, Resolution{
				Spatial:  spatial.Resolution(r.I64()),
				Temporal: temporal.Resolution(r.I64()),
			})
		}
	}
	c.Alpha = r.F64()
	c.Permutations = int(r.I64())
	c.SkipSignificance = r.U64() != 0
	c.Correction = stats.Correction(r.I64())
	c.MaxQ = r.F64()
	c.Windowed = r.U64() != 0
	c.WindowFrom = r.I64()
	c.WindowTo = r.I64()
	return c
}

// boundCount applies SlabReader.Count's allocation bound to a count that
// was read with a nil sentinel in band.
func boundCount(r *store.SlabReader, n uint64, minBytes int) int {
	if max := uint64(r.Remaining() / minBytes); n > max {
		// Poison the reader through a guaranteed-failing read.
		r.Raw(r.Remaining() + 8)
		return 0
	}
	return int(n)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
