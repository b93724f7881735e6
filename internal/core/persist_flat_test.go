package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// flatSnapshotFramework builds, indexes, and graphs the planted corpus —
// the state every flat-codec test round-trips.
func flatSnapshotFramework(t testing.TB) *Framework {
	t.Helper()
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(Clause{Permutations: 60}); err != nil {
		t.Fatal(err)
	}
	return f
}

func openPlanted(t testing.TB, path string) (*Framework, error) {
	t.Helper()
	wind, trips := plantedPair(30, randomHours(31, 60), nil)
	return Open(path, OpenOptions{
		Options:  Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: []*dataset.Dataset{wind, trips},
	})
}

// splice republishes the snapshot at path with one section's payload
// replaced (or added) and every CRC recomputed, so the store layer and the
// manifest gate pass and only the section decoders can object.
func splice(t *testing.T, path, name string, payload []byte) string {
	t.Helper()
	m, sections, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	sections[name] = payload
	var secs []store.Section
	for _, n := range []string{store.SectionIndex, store.SectionGraph} {
		if data, ok := sections[n]; ok {
			secs = append(secs, store.Section{Name: n, Data: data})
		}
	}
	out := filepath.Join(t.TempDir(), "spliced.snap")
	if err := store.Write(out, m, secs); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlatSectionCorruption exercises the flat decoder against payloads
// whose container CRC is valid (rewritten after mutation) but whose flat
// structure is damaged: every case must surface a section-level store
// error — errors.Is(err, store.ErrCorrupt) — and never panic or load bad
// data.
func TestFlatSectionCorruption(t *testing.T) {
	f := flatSnapshotFramework(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	_, sections, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}

	idx := sections[store.SectionIndex]
	graph := sections[store.SectionGraph]
	// The summary cases change one class's record of every entry that can
	// carry the damage, so each trips one parse check; want names it.
	salient := func(mutate func(e *FunctionEntry, occ *Occupancy, tiles []uint64)) []byte {
		return indexSectionWith(t, f, func(e *FunctionEntry) {
			e.salientTiles = slices.Clone(e.salientTiles)
			mutate(e, &e.SalientOcc, e.salientTiles)
		})
	}
	// The word-occupancy cases change the salient word bitmap (and, to
	// reach its check, the counts and tile bitmap before it).
	salientWords := func(mutate func(e *FunctionEntry, occ *Occupancy, tiles []uint64, words []uint64)) []byte {
		return indexSectionWith(t, f, func(e *FunctionEntry) {
			e.salientTiles = slices.Clone(e.salientTiles)
			e.salientWords = e.salientWords.Clone()
			mutate(e, &e.SalientOcc, e.salientTiles, e.salientWords.Words())
		})
	}
	cases := []struct {
		name    string
		section string
		payload []byte
		want    string // in the error, when set
	}{
		{"index wrong magic", store.SectionIndex, append([]byte("DPIXFLT\x04"), idx[8:]...), ""},
		{"index not flat at all", store.SectionIndex, []byte("not an index"), ""},
		{"index truncated mid-entry", store.SectionIndex, idx[:len(idx)-8], ""},
		{"index truncated to magic", store.SectionIndex, idx[:8], ""},
		{"index trailing bytes", store.SectionIndex, append(append([]byte(nil), idx...), make([]byte, 16)...), ""},
		// Offset 32 is the data-set-order count (after magic, version,
		// minTS, maxTS): flipping it demands an absurd element count.
		{"index count corrupted", store.SectionIndex, flipWord(idx, 32), ""},
		{"graph wrong magic", store.SectionGraph, append([]byte("DPIXFLT\x06"), graph[8:]...), ""},
		{"graph truncated", store.SectionGraph, graph[:len(graph)/2/8*8], ""},
		{"graph trailing bytes", store.SectionGraph, append(append([]byte(nil), graph...), make([]byte, 8)...), ""},
		// Entries that are not tiled: the checks run before a vector is
		// viewed at the entry's vertex count or a tile bitmap at its tiles.
		{"entry with zero steps", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) { e.NumSteps = 0 }), ""},
		{"entry with one step too many", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) { e.NumSteps++ }), ""},
		{"entry with one tile too many", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) {
			e.TileCriticalPoints = append(slices.Clone(e.TileCriticalPoints), 0)
		}), ""},
		{"entry vertices off its vectors", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) { e.NumVertices++ }), ""},
		// One case per check of the stored summaries (v10).
		{"entry vertices past a uint32", store.SectionIndex, func() []byte {
			out := slices.Clone(idx)
			binary.LittleEndian.PutUint64(out[firstVertexWord(t, idx):], 1<<32)
			return out
		}(), "more than a record counts"},
		{"occupancy count past the vertices", store.SectionIndex, salient(func(e *FunctionEntry, occ *Occupancy, _ []uint64) {
			*occ = Occupancy{Pos: e.NumVertices + 1, All: e.NumVertices + 1}
		}), "exceed its"},
		{"union count below a sign's", store.SectionIndex, salient(func(_ *FunctionEntry, occ *Occupancy, _ []uint64) {
			*occ = Occupancy{Pos: occ.All + 1, All: occ.All}
		}), "union count"},
		{"union count above both signs'", store.SectionIndex, salient(func(_ *FunctionEntry, occ *Occupancy, _ []uint64) {
			*occ = Occupancy{Pos: occ.All, All: occ.All + 1}
		}), "union count"},
		{"tile bit past the last tile", store.SectionIndex, salient(func(e *FunctionEntry, _ *Occupancy, tiles []uint64) {
			if n := len(e.TileCriticalPoints); n%64 != 0 {
				tiles[n/64] |= 1 << uint(n%64)
			}
		}), "bits beyond length"},
		{"empty tile bitmap under features", store.SectionIndex, salient(func(_ *FunctionEntry, _ *Occupancy, tiles []uint64) {
			clear(tiles)
		}), "disagrees"},
		{"occupied tile bitmap under no feature", store.SectionIndex, salient(func(_ *FunctionEntry, occ *Occupancy, tiles []uint64) {
			if slices.ContainsFunc(tiles, func(w uint64) bool { return w != 0 }) {
				*occ = Occupancy{}
			}
		}), "disagrees"},
		// One case per check of the word-occupancy bitmaps (v15).
		{"word bit past the last word", store.SectionIndex, salientWords(func(e *FunctionEntry, _ *Occupancy, _, words []uint64) {
			if n := bitvec.NumWords(e.NumVertices); n%64 != 0 {
				words[n/64] |= 1 << uint(n%64)
			}
		}), "bits beyond length"},
		{"occupied word bitmap under no feature", store.SectionIndex, salientWords(func(_ *FunctionEntry, occ *Occupancy, tiles, words []uint64) {
			if slices.ContainsFunc(words, func(w uint64) bool { return w != 0 }) {
				*occ = Occupancy{}
				clear(tiles)
			}
		}), "word bitmap disagrees"},
		{"empty word bitmap under features", store.SectionIndex, salientWords(func(_ *FunctionEntry, _ *Occupancy, _, words []uint64) {
			clear(words)
		}), "word bitmap disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := splice(t, path, tc.section, tc.payload)
			_, err := openPlanted(t, bad)
			if err == nil {
				t.Fatal("corrupt flat section loaded")
			}
			if !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("err = %v, does not wrap store.ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to name %q", err, tc.want)
			}
		})
	}

	// A payload whose count words are garbage (every word flipped) must
	// fail cleanly too — this is the fuzz property spot-checked.
	garbled := append([]byte(nil), idx...)
	for i := 16; i+8 <= len(garbled); i += 8 {
		garbled[i] ^= 0xFF
	}
	bad := splice(t, path, store.SectionIndex, garbled)
	if _, err := openPlanted(t, bad); err == nil {
		t.Error("garbled flat index loaded")
	}

	// A well-formed entry over another number of steps than the corpus
	// timeline has — one step, which divides any vertex count and keeps a
	// one-tile entry's tile count — parses, and the install refuses it.
	oneTile := 0
	bad = splice(t, path, store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) {
		if len(e.TileCriticalPoints) == 1 && e.NumSteps > 1 {
			e.NumSteps = 1
			oneTile++
		}
	}))
	if oneTile == 0 {
		t.Fatal("no one-tile entry over more than one step; the install case would be vacuous")
	}
	if _, err := openPlanted(t, bad); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Errorf("entries over one step installed: err = %v", err)
	}
}

// firstVertexWord returns the offset of the first entry's vertex count in
// an index section, for damage the encoder refuses to write.
func firstVertexWord(t *testing.T, idx []byte) int {
	t.Helper()
	r := store.NewSlabReader(idx)
	r.Raw(len(flatIndexMagic))
	r.U64() // generation
	r.I64() // minTS
	r.I64() // maxTS
	for n := r.Count(8); n > 0; n-- {
		r.Bytes() // a data set name
	}
	if r.Count(64) == 0 {
		t.Fatal("index section has no entry")
	}
	r.Bytes() // key
	r.Bytes() // data set
	r.Bytes() // spec
	r.I64()   // spatial resolution
	r.I64()   // temporal resolution
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return len(idx) - r.Remaining()
}

// indexSectionWith lays out f's index section with every entry changed by
// mutate, so a test can plant damage a CRC cannot catch once rewritten.
// The entries are restored before it returns.
func indexSectionWith(t *testing.T, f *Framework, mutate func(e *FunctionEntry)) []byte {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	entries := f.collectEntriesLocked()
	saved := make([]FunctionEntry, len(entries))
	for i, e := range entries {
		saved[i] = *e
		mutate(e)
	}
	idx, err := f.encodeFlatIndexLocked()
	for i, e := range entries {
		*e = saved[i]
	}
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// graphSectionWith lays out f's published graph section with its families
// changed by mutate (applied to copies), so a test can plant damage a CRC
// cannot catch once rewritten.
func graphSectionWith(t *testing.T, f *Framework, mutate func(fams map[graphPair][]candidate)) []byte {
	t.Helper()
	f.mu.RLock()
	defer f.mu.RUnlock()
	rec := f.published.Load()
	fams := make(map[graphPair][]candidate, len(rec.fams))
	for k, fam := range rec.fams {
		fams[k] = slices.Clone(fam)
	}
	mutate(fams)
	return f.encodeFlatGraphLocked(&graphRecord{clause: rec.clause, fams: fams})
}

// TestFlatGraphRejectsDamagedPayloads walks the graph section's pair-table
// reader through damage a CRC cannot catch once rewritten: truncation, a
// flipped structural word, trailing bytes, a foreign magic, and records
// that do not fit the index they name. parseFlatGraph and Load must both
// fail with an error wrapping store.ErrCorrupt, never panic, and a refused
// Load must leave the published graph as it was.
//
// A record names its two functions by position in its own pair's data
// sets, so a family whose edges name data sets outside its pair — which
// the string-per-edge layout before container version 7 could carry, and
// its loader accepted — cannot be written at all.
func TestFlatGraphRejectsDamagedPayloads(t *testing.T) {
	f := flatSnapshotFramework(t)
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	_, sections, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, graph := sections[store.SectionIndex], sections[store.SectionGraph]
	ix, err := parseFlatIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	published := graphDOT(t, f)

	// The planted corpus has one pair; its family is the last slab.
	pair := graphPair{A: "trips", B: "wind"}
	fam := f.published.Load().fams[pair]
	if len(fam) == 0 {
		t.Fatal("planted pair has an empty family; the record cases would be vacuous")
	}
	// Each record case publishes the pair with one damaged record, so no
	// other check (the family's order) can object in its place.
	fa, fb := ix.funcs[pair.A], ix.funcs[pair.B]
	otherRes := -1 // a position in B's list at another resolution than fam[0]'s
	for i, e := range fb {
		if e.Res != fa[fam[0].posA].Res {
			otherRes = i
		}
	}
	if otherRes < 0 {
		t.Fatal("wind has entries at one resolution only; the resolution case would be vacuous")
	}
	damaged := func(mutate func(c *candidate)) []byte {
		return graphSectionWith(t, f, func(fams map[graphPair][]candidate) {
			c := fam[0]
			mutate(&c)
			fams[pair] = []candidate{c}
		})
	}
	countOff := len(graph) - candidateBytes*len(fam) - 8 // the pair's record count
	// The clause's alpha word: eight words before the clause's end
	// (Alpha, Permutations, SkipSignificance, Correction, MaxQ, the window).
	var cw store.SlabWriter
	writeFlatClause(&cw, f.published.Load().clause)
	clauseBlob := cw.Finish()
	clauseEnd := bytes.Index(graph, clauseBlob) + len(clauseBlob)
	alphaOff := clauseEnd - 64
	if alphaOff < 64 {
		t.Fatal("the published clause is not in the graph section")
	}

	// Word offsets in a graph section: magic 0, generation 8, then the seed
	// at 16; the pair count follows the clause.
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated to the magic", graph[:8]},
		{"truncated mid-header", graph[:40]},
		{"truncated mid-table", graph[:len(graph)/2/8*8]},
		{"last word missing", graph[:len(graph)-8]},
		{"trailing bytes", append(append([]byte(nil), graph...), make([]byte, 8)...)},
		{"generation word flipped", flipWord(graph, 8)},
		{"pair count flipped", flipWord(graph, clauseEnd)},
		{"another generation's magic", append([]byte("DPGRFLT\x06"), graph[8:]...)},
		{"index section instead of a graph", idx},
		{"not flat at all", []byte("junk")},
		{"position past its data set's table", damaged(func(c *candidate) { c.posA = uint32(len(fa)) })},
		{"entries of two resolutions", damaged(func(c *candidate) { c.posB = uint32(otherRes) })},
		{"class out of range", damaged(func(c *candidate) { c.class = feature.Extreme + 1 })},
		{"more extreme randomizations than visited", damaged(func(c *candidate) { c.extreme = c.visited + 1 })},
		{"records out of order", graphSectionWith(t, f, func(fams map[graphPair][]candidate) {
			fams[pair] = append(fams[pair], fams[pair][0])
		})},
		{"short record slab", func() []byte {
			out := append([]byte(nil), graph...)
			binary.LittleEndian.PutUint64(out[countOff:], uint64(len(fam)+1))
			return out
		}()},
		{"slab ending mid-record", graph[:len(graph)-4]},
		// The selection rule derives from the clause: alpha must be one
		// Validate accepts.
		{"a clause alpha outside [0, 1)", func() []byte {
			out := append([]byte(nil), graph...)
			binary.LittleEndian.PutUint64(out[alphaOff:], math.Float64bits(2))
			return out
		}()},
		// The correction word, three after alpha, names no procedure.
		{"a clause correction outside none/bh/by", func() []byte {
			out := append([]byte(nil), graph...)
			binary.LittleEndian.PutUint64(out[alphaOff+24:], 7)
			return out
		}()},
	}
	for _, tc := range cases {
		if _, err := parseFlatGraph(tc.payload, ix.funcs); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: parse err = %v, does not wrap store.ErrCorrupt", tc.name, err)
		}
		if err := f.Load(splice(t, path, store.SectionGraph, tc.payload)); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: Load err = %v, does not wrap store.ErrCorrupt", tc.name, err)
		}
		if got := graphDOT(t, f); !bytes.Equal(got, published) {
			t.Fatalf("%s: refused Load changed the published graph", tc.name)
		}
	}
	// A slab the host cannot view in place — here, one at an odd address —
	// is decoded into a heap copy holding the same records.
	odd := make([]byte, len(graph)+1)[1:]
	copy(odd, graph)
	if got, err := parseFlatGraph(odd, ix.funcs); err != nil || !slices.Equal(got.fams[pair], fam) {
		t.Errorf("misaligned payload: err = %v, family equal = %v", err, err == nil && slices.Equal(got.fams[pair], fam))
	}
	// Every single-bit flip either fails cleanly or yields a payload that
	// still parses (a flipped score bit is not structural); none may panic.
	for bit := 0; bit < 8*len(graph); bit += 37 {
		bad := append([]byte(nil), graph...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := parseFlatGraph(bad, ix.funcs); err != nil && !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("bit %d: non-ErrCorrupt failure: %v", bit, err)
		}
	}
}

func flipWord(payload []byte, off int) []byte {
	out := append([]byte(nil), payload...)
	for i := 0; i < 8 && off+i < len(out); i++ {
		out[off+i] ^= 0xFF
	}
	return out
}

// TestFlatOpenAllocations pins what a warm open costs in heap objects: the
// flat sections are viewed in place, so opening the planted corpus (two
// data sets, one graph pair) allocates headers and the assembled graph, not
// bit vectors or candidate records — 126 objects when this ceiling was set
// (218 while each entry allocated its tile tables and bitmaps, 405 while
// the graph section held six strings per candidate). A decoder that starts
// copying slabs to the heap lands in the thousands.
//
// It also pins that the cost is per section, not per entry: the entry,
// vector and set headers come in slabs, the tile tables from arenas, and
// the tile bitmaps are views, so an index of several times the entries
// costs less than one more object per extra entry.
func TestFlatOpenAllocations(t *testing.T) {
	f := flatSnapshotFramework(t)
	path := filepath.Join(t.TempDir(), "flat.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, _ := snapshotCorpus(t)
	t.Cleanup(func() { g.Close() })
	allocs := openAllocs(t, g, path)
	t.Logf("warm open allocations: %.0f", allocs)
	if allocs > 200 {
		t.Errorf("warm open allocates %.0f objects, ceiling 200", allocs)
	}

	small, smallN := indexOpenAllocs(t, false)
	large, largeN := indexOpenAllocs(t, true)
	if largeN < 2*smallN {
		t.Fatalf("%d entries against %d; the growth check needs at least twice as many", largeN, smallN)
	}
	t.Logf("index-only warm open: %.0f objects for %d entries, %.0f for %d", small, smallN, large, largeN)
	if grown := large - small; grown >= float64(largeN-smallN) {
		t.Errorf("%d more entries cost %.0f more objects, want fewer than one each", largeN-smallN, grown)
	}
}

// openAllocs loads path into f and returns the heap objects one Load takes.
func openAllocs(t *testing.T, f *Framework, path string) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if err := f.Load(path); err != nil {
			t.Fatal(err)
		}
	})
}

// indexOpenAllocs indexes the planted pair — with two more copies of each
// data set's one attribute when wide is set, which doubles its functions
// (scalar.Specs: the density and one average per attribute) over the same
// data sets and resolutions — saves the index alone, and returns what one
// Load of it allocates and how many entries it holds.
func indexOpenAllocs(t *testing.T, wide bool) (float64, int) {
	t.Helper()
	corpus := func() *Framework {
		f, err := New(Options{City: testCity(t), Workers: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		wind, trips := plantedPair(30, randomHours(31, 60), nil)
		for _, d := range []*dataset.Dataset{wind, trips} {
			if wide {
				d.Attrs = append(d.Attrs, d.Attrs[0]+"2", d.Attrs[0]+"3")
				for i := range d.Tuples {
					v := d.Tuples[i].Values[0]
					d.Tuples[i].Values = []float64{v, v, v}
				}
			}
			if err := f.AddDataset(d); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	f := corpus()
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g := corpus()
	t.Cleanup(func() { g.Close() })
	return openAllocs(t, g, path), f.NumFunctions()
}

// TestWarmOpenKeepsEntryOrder: a load installs each data set's entries in
// the order the section lists them, with no sort, so a warm-opened index
// has the built one's key-sorted entry lists, per-resolution lists and
// positions — the positions the graph section's records name.
func TestWarmOpenKeepsEntryOrder(t *testing.T) {
	f := flatSnapshotFramework(t)
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := openPlanted(t, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	keys := func(es []*FunctionEntry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.Key
		}
		return out
	}
	for _, name := range f.Datasets() {
		want, got := f.index.funcs[name], g.index.funcs[name]
		if len(want) == 0 || !slices.Equal(keys(want), keys(got)) {
			t.Fatalf("%s: warm-opened entry list %v, built %v", name, keys(got), keys(want))
		}
		for i := range want {
			if want[i].pos != uint32(i) || got[i].pos != want[i].pos {
				t.Errorf("%s: entry %s at %d has position %d warm-opened, %d built", name, want[i].Key, i, got[i].pos, want[i].pos)
			}
		}
		for _, res := range f.resolutionsFor(f.datasets[name]) {
			if w, g := keys(f.Entries(name, res)), keys(g.Entries(name, res)); !slices.Equal(w, g) {
				t.Errorf("%s@%v: warm-opened entries %v, built %v", name, res, g, w)
			}
		}
	}
}

// TestLoadRecordsStages: each Load records its map, parse and install
// stages once, and a refused Load records none.
func TestLoadRecordsStages(t *testing.T) {
	f := flatSnapshotFramework(t)
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, _ := snapshotCorpus(t)
	t.Cleanup(func() { g.Close() })
	stages := []string{"map", "parse", "install"}
	before := make(map[string]uint64)
	for _, st := range stages {
		before[st] = mSnapshotLoadStageDuration.With(st).Count()
	}
	for n := uint64(1); n <= 2; n++ {
		if err := g.Load(path); err != nil {
			t.Fatal(err)
		}
		for _, st := range stages {
			if got := mSnapshotLoadStageDuration.With(st).Count() - before[st]; got != n {
				t.Errorf("after %d loads the %s stage has %d observations", n, st, got)
			}
		}
	}
	if err := g.Load(splice(t, path, store.SectionIndex, []byte("junk"))); err == nil {
		t.Fatal("a junk index section loaded")
	}
	for _, st := range stages {
		if got := mSnapshotLoadStageDuration.With(st).Count() - before[st]; got != 2 {
			t.Errorf("a refused load moved the %s stage to %d observations", st, got)
		}
	}
}

// seedFlatPayloads returns real encoder output for the fuzz corpora.
func seedFlatPayloads(t testing.TB) (idx, graph []byte) {
	t.Helper()
	f := flatSnapshotFramework(t)
	f.mu.RLock()
	defer f.mu.RUnlock()
	idx, err := f.encodeFlatIndexLocked()
	if err != nil {
		t.Fatal(err)
	}
	return idx, f.encodeFlatGraphLocked(f.published.Load())
}

// FuzzParseFlatIndex: the flat index parser must never panic and must
// fail only with errors wrapping store.ErrCorrupt on arbitrary input.
func FuzzParseFlatIndex(f *testing.F) {
	idx, _ := seedFlatPayloads(f)
	f.Add(idx)
	f.Add(idx[:len(idx)-8])
	f.Add([]byte("DPIXFLT\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseFlatIndex(data); err != nil && !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("non-ErrCorrupt failure: %v", err)
		}
	})
}

// FuzzParseFlatGraph: same property for the graph parser, pair table and
// record checks included, against the seed snapshot's own index.
func FuzzParseFlatGraph(f *testing.F) {
	idx, graph := seedFlatPayloads(f)
	ix, err := parseFlatIndex(idx)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(graph)
	f.Add(graph[:len(graph)/2])
	f.Add(graph[:len(graph)-8])
	f.Add([]byte("DPGRFLT\x0f"))
	f.Add(graph[:len(graph)-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseFlatGraph(data, ix.funcs); err != nil && !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("non-ErrCorrupt failure: %v", err)
		}
	})
}

// TestFlatVersionMismatch: a payload with the right magic but a future
// format word must be rejected as corruption, not misparsed.
func TestFlatVersionMismatch(t *testing.T) {
	for _, magic := range [][]byte{flatIndexMagic, flatGraphMagic} {
		payload := append(append([]byte(nil), magic...), make([]byte, 8)...)
		binary.LittleEndian.PutUint64(payload[len(magic):], 99)
		var err error
		if bytes.Equal(magic, flatIndexMagic) {
			_, err = parseFlatIndex(payload)
		} else {
			_, err = parseFlatGraph(payload, nil)
		}
		if err == nil || !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%q version 99: err = %v, want ErrCorrupt", magic, err)
		}
	}
}

// TestBoundCountPoisonsReader: an in-band count too large for the
// remaining payload must poison the reader instead of driving a huge
// allocation.
func TestBoundCountPoisons(t *testing.T) {
	var w store.SlabWriter
	w.U64(42)
	r := store.NewSlabReader(w.Finish())
	if n := boundCount(r, 1<<40, 8); n != 0 || r.Err() == nil {
		t.Errorf("boundCount(2^40) = %d, err = %v; want 0 and a sticky error", n, r.Err())
	}
	r = store.NewSlabReader(w.Finish())
	if n := boundCount(r, 1, 8); n != 1 || r.Err() != nil {
		t.Errorf("boundCount(1) = %d, err = %v; want 1 and no error", n, r.Err())
	}
}

// TestFlatClauseReservedWord: the clause layout carries no reserved word
// (v13 dropped the retired test kind, the exhaustive flag and the word a
// retired flag left): every word is one Clause field, so a clause reads
// back from exactly the words it was written as.
func TestFlatClauseReservedWord(t *testing.T) {
	clause := Clause{MinScore: 0.2, Permutations: 40, Correction: stats.BY,
		Windowed: true, WindowFrom: 100, WindowTo: 200}
	var w store.SlabWriter
	writeFlatClause(&w, clause)
	blob := w.Finish()
	// MinScore, MinStrength, two nil-slice sentinels, Alpha, Permutations,
	// SkipSignificance, Correction, MaxQ, Windowed, WindowFrom, WindowTo.
	if len(blob) != 12*8 {
		t.Fatalf("clause written as %d words, want 12", len(blob)/8)
	}
	r := store.NewSlabReader(blob)
	if got := readFlatClause(r); r.Err() != nil || r.Remaining() != 0 || !reflect.DeepEqual(got, clause) {
		t.Errorf("clause read back as %+v (%v, %d bytes left), want %+v", got, r.Err(), r.Remaining(), clause)
	}
}

// TestFlatClauseRoundTrip pins the explicit clause layout: every field,
// including the nil-vs-empty slice distinction and the boolean flags, must
// survive a flat save/open.
func TestFlatClauseRoundTrip(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	clause := Clause{
		MinScore:     0.1,
		MinStrength:  0.05,
		Classes:      []feature.Class{feature.Salient},
		Resolutions:  []Resolution{{Spatial: spatial.City, Temporal: temporal.Hour}},
		Alpha:        0.1,
		Permutations: 40,
		MaxQ:         0.9,
	}
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := openPlanted(t, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	want, ok1 := f.GraphClause()
	got, ok2 := g.GraphClause()
	if !ok1 || !ok2 || !reflect.DeepEqual(want, got) {
		t.Errorf("clause round-trip:\n want %+v (%t)\n got  %+v (%t)", want, ok1, got, ok2)
	}
	gw, _ := f.RelGraph()
	gg, ok := g.RelGraph()
	if !ok || !gw.Equal(gg) {
		t.Error("graph under a rich clause differs after flat round-trip")
	}
}
