package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
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
	cases := []struct {
		name    string
		section string
		payload []byte
	}{
		{"index wrong magic", store.SectionIndex, append([]byte("DPIXFLT\x04"), idx[8:]...)},
		{"index not flat at all", store.SectionIndex, []byte("not an index")},
		{"index truncated mid-entry", store.SectionIndex, idx[:len(idx)-8]},
		{"index truncated to magic", store.SectionIndex, idx[:8]},
		{"index trailing bytes", store.SectionIndex, append(append([]byte(nil), idx...), make([]byte, 16)...)},
		// Offset 32 is the data-set-order count (after magic, version,
		// minTS, maxTS): flipping it demands an absurd element count.
		{"index count corrupted", store.SectionIndex, flipWord(idx, 32)},
		{"graph wrong magic", store.SectionGraph, append([]byte("DPIXFLT\x06"), graph[8:]...)},
		{"graph truncated", store.SectionGraph, graph[:len(graph)/2/8*8]},
		{"graph trailing bytes", store.SectionGraph, append(append([]byte(nil), graph...), make([]byte, 8)...)},
		// Entries that are not tiled: the checks run before finalize, which
		// divides by NumSteps and tiles over it.
		{"entry with zero steps", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) { e.NumSteps = 0 })},
		{"entry with one step too many", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) { e.NumSteps++ })},
		{"entry with one tile too many", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) {
			e.TileThresholds = append(slices.Clone(e.TileThresholds), feature.Thresholds{})
			e.TileCriticalPoints = append(slices.Clone(e.TileCriticalPoints), 0)
		})},
		{"entry vertices off its vectors", store.SectionIndex, indexSectionWith(t, f, func(e *FunctionEntry) { e.NumVertices++ })},
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
		if len(e.TileThresholds) == 1 && e.NumSteps > 1 {
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
	f.graphMu.Lock()
	fams := make(map[graphPair][]candidate, len(f.graphFams))
	for k, fam := range f.graphFams {
		fams[k] = slices.Clone(fam)
	}
	sig, sel, clause := f.graphSig, f.graphSel, f.graphClause
	f.graphMu.Unlock()
	mutate(fams)
	return f.flatGraphSectionLocked(sig, sel, clause, slices.Collect(maps.Keys(fams)), fams)
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
	fam := f.graphFams[pair]
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
	// The clause's retired test-kind word: seven words before the clause's
	// end (Correction, MaxQ, Exhaustive, a reserved word, the window).
	var cw store.SlabWriter
	writeFlatClause(&cw, f.graphClause)
	clauseBlob := cw.Finish()
	kindOff := bytes.Index(graph, clauseBlob) + len(clauseBlob) - 64
	if kindOff < 64 {
		t.Fatal("the published clause is not in the graph section")
	}

	// Word offsets in a graph section: magic 0, generation 8, then the
	// signature's length at 16.
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
		{"signature length flipped", flipWord(graph, 16)},
		{"another generation's magic", append([]byte("DPGRFLT\x06"), graph[8:]...)},
		{"index section instead of a graph", idx},
		{"not flat at all", []byte("junk")},
		{"position past its data set's table", damaged(func(c *candidate) { c.posA = uint32(len(fa)) })},
		{"entries of two resolutions", damaged(func(c *candidate) { c.posB = uint32(otherRes) })},
		{"class out of range", damaged(func(c *candidate) { c.class = feature.Extreme + 1 })},
		{"records out of order", graphSectionWith(t, f, func(fams map[graphPair][]candidate) {
			fams[pair] = append(fams[pair], fams[pair][0])
		})},
		{"short record slab", func() []byte {
			out := append([]byte(nil), graph...)
			binary.LittleEndian.PutUint64(out[countOff:], uint64(len(fam)+1))
			return out
		}()},
		{"slab ending mid-record", graph[:len(graph)-4]},
		{"a retired test kind in the clause", func() []byte {
			out := append([]byte(nil), graph...)
			binary.LittleEndian.PutUint64(out[kindOff:], 1)
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
// bit vectors or candidate records — 218 objects when this ceiling was set
// (405 while the graph section held six strings per candidate). A decoder
// that starts copying slabs to the heap lands in the thousands.
func TestFlatOpenAllocations(t *testing.T) {
	f := flatSnapshotFramework(t)
	path := filepath.Join(t.TempDir(), "flat.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, _ := snapshotCorpus(t)
	t.Cleanup(func() { g.Close() })
	allocs := testing.AllocsPerRun(5, func() {
		if err := g.Load(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm open allocations: %.0f", allocs)
	if allocs > 300 {
		t.Errorf("warm open allocates %.0f objects, ceiling 300", allocs)
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
	graph, _, err = f.encodeFlatGraphLocked()
	if err != nil {
		t.Fatal(err)
	}
	return idx, graph
}

// FuzzParseFlatIndex: the flat index parser must never panic and must
// fail only with errors wrapping store.ErrCorrupt on arbitrary input.
func FuzzParseFlatIndex(f *testing.F) {
	idx, _ := seedFlatPayloads(f)
	f.Add(idx)
	f.Add(idx[:len(idx)-8])
	f.Add([]byte("DPIXFLT\x04"))
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
	f.Add([]byte("DPGRFLT\x09"))
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

// TestFlatClauseReservedWord: the clause layout keeps two reserved words,
// so the flat generation did not move. Where a retired flag used to sit,
// the word is written as zero, and a snapshot from before the retirement
// that carries a one there reads back as the same clause. Where the test
// kind sat, the word is written as zero, the restricted test's code; a
// clause naming the standard (1) or block (2) test, both removed, is
// corrupt, and the error names the test.
func TestFlatClauseReservedWord(t *testing.T) {
	clause := Clause{MinScore: 0.2, Permutations: 40, Exhaustive: true,
		Windowed: true, WindowFrom: 100, WindowTo: 200}
	var w store.SlabWriter
	writeFlatClause(&w, clause)
	blob := w.Finish()
	reserved := blob[len(blob)-32 : len(blob)-24] // then Windowed, WindowFrom, WindowTo
	kind := blob[len(blob)-64 : len(blob)-56]     // then Correction, MaxQ, Exhaustive, reserved, window
	if binary.LittleEndian.Uint64(reserved) != 0 || binary.LittleEndian.Uint64(kind) != 0 {
		t.Fatalf("reserved clause words written as %d and %d, want 0",
			binary.LittleEndian.Uint64(reserved), binary.LittleEndian.Uint64(kind))
	}
	binary.LittleEndian.PutUint64(reserved, 1)
	r := store.NewSlabReader(blob)
	if got, err := readFlatClause(r); err != nil || r.Err() != nil || r.Remaining() != 0 || !reflect.DeepEqual(got, clause) {
		t.Errorf("clause with the reserved word set read back as %+v (err %v, %v, %d bytes left), want %+v",
			got, err, r.Err(), r.Remaining(), clause)
	}
	for code, name := range map[uint64]string{1: "standard", 2: "block"} {
		binary.LittleEndian.PutUint64(kind, code)
		_, err := readFlatClause(store.NewSlabReader(blob))
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "the "+name+" test") {
			t.Errorf("clause naming test kind %d: err = %v, want an ErrCorrupt naming the %s test", code, err, name)
		}
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
		Exhaustive:   true,
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
