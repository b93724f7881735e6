package core

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// TestSnapshotTileTableRoundTrip saves a multi-tile corpus to a flat
// snapshot, warm-opens it, and checks the per-entry tile table (domain
// length, per-tile thresholds, per-tile critical point counts) survives
// byte-for-byte — the precondition for appending into a warm-opened corpus
// without recomputing old tiles.
func TestSnapshotTileTableRoundTrip(t *testing.T) {
	clause := Clause{Permutations: 80}
	// extraNoiseHours=72 pushes the corpus past one leap year: two Hour
	// tiles and two Day tiles, so the tile table is genuinely plural.
	f := buildFW(t, appendCorpus(t, 72))
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	g, err := Open(path, OpenOptions{
		Options:  Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: appendCorpus(t, 72),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, ok := g.LoadedSnapshot(); !ok {
		t.Fatal("warm open reports no loaded snapshot")
	}

	// The corpus really is multi-tile at the fine resolutions.
	multi := false
	for _, res := range []temporal.Resolution{temporal.Hour, temporal.Day} {
		if tl := g.timelines[res]; tl != nil && tl.NumTiles() > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("fixture regressed: corpus is single-tile at every fine resolution")
	}

	// Every entry's tile metadata round-tripped, alongside the feature bits.
	assertIndexIdentical(t, f, g)
	for _, n := range g.Datasets() {
		for _, res := range g.resolutionsFor(g.datasets[n]) {
			for _, e := range g.Entries(n, res) {
				wantTiles := temporal.NumTilesFor(e.NumSteps, res.Temporal)
				if len(e.TileCriticalPoints) != wantTiles {
					t.Errorf("%s: tile table has %d critical counts, want %d",
						e.Key, len(e.TileCriticalPoints), wantTiles)
				}
				if e.tileOcc(feature.Salient) == nil {
					t.Errorf("%s: tile occupancy not installed by the load", e.Key)
				}
			}
		}
	}
}

// TestAppendAfterWarmOpen is the lifecycle the tile table exists for: save,
// warm-open in a new process, and append — incrementally, with results
// byte-identical to a from-scratch build over the merged corpus.
func TestAppendAfterWarmOpen(t *testing.T) {
	clause := Clause{Permutations: 80}
	base := buildFW(t, appendCorpus(t, 48)) // tile-aligned corpus end
	if _, err := base.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}

	live, err := Open(path, OpenOptions{
		Options:  Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: appendCorpus(t, 48),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	slice := hourSlice("noise", "level", 230, plantedHours+48, 24*5)
	st, err := live.AppendSlice(slice)
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack {
		t.Fatal("append after warm open fell back to a full rebuild")
	}
	if st.TilesReused == 0 {
		t.Errorf("tile-aligned append after warm open reused no tiles: %+v", st)
	}
	if _, err := live.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}

	ds := appendCorpus(t, 48)
	for i, d := range ds {
		if d.Name == slice.Name {
			ds[i] = appendTuples(d, slice)
		}
	}
	scratch := buildFW(t, ds)
	if _, err := scratch.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	assertIndexIdentical(t, scratch, live)
	want, _, err := scratch.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := live.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("query results differ after warm-open append:\n scratch %v\n append  %v", want, got)
	}
	wantG, _ := scratch.RelGraph()
	gotG, _ := live.RelGraph()
	if !gotG.Equal(wantG) {
		t.Fatal("relationship graph differs after warm-open append")
	}

	// The extended corpus re-saves and re-opens cleanly: the tile table now
	// records the new domain length.
	path2 := filepath.Join(t.TempDir(), "corpus2.snap")
	if err := live.Save(path2); err != nil {
		t.Fatal(err)
	}
	ds2 := appendCorpus(t, 48)
	for i, d := range ds2 {
		if d.Name == slice.Name {
			ds2[i] = appendTuples(d, slice)
		}
	}
	reopened, err := Open(path2, OpenOptions{
		Options:  Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: ds2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertIndexIdentical(t, live, reopened)
}

// assertSummariesFromVectors checks every entry's union, occupancy counts
// and tile bitmaps against its own vectors, bit by bit — an oracle sharing
// no code with summarize, which derives them, or with the snapshot record,
// which carries them.
func assertSummariesFromVectors(t *testing.T, f *Framework, when string) {
	t.Helper()
	n := 0
	for _, name := range f.Datasets() {
		for _, e := range f.index.funcs[name] {
			n++
			regions, w := e.NumVertices/e.NumSteps, temporal.TileWidth(e.Res.Temporal)
			for _, c := range []feature.Class{feature.Salient, feature.Extreme} {
				s, u := e.set(c), e.union(c)
				var occ Occupancy
				tiles := make([]uint64, (len(e.TileCriticalPoints)+63)/64)
				words := bitvec.New(bitvec.NumWords(e.NumVertices))
				for v := 0; v < e.NumVertices; v++ {
					p, q := s.Positive.Get(v), s.Negative.Get(v)
					if u.Get(v) != (p || q) {
						t.Fatalf("%s: %s: %v union bit %d is not the sign bits' union", when, e.Key, c, v)
					}
					if p {
						occ.Pos++
					}
					if q {
						occ.Neg++
					}
					if p || q {
						occ.All++
						tile := v / regions / w
						tiles[tile/64] |= 1 << uint(tile%64)
						words.Set(v / 64)
					}
				}
				if got := e.occ(c); got != occ {
					t.Errorf("%s: %s: %v occupancy %+v, its vectors count %+v", when, e.Key, c, got, occ)
				}
				if got := e.tileOcc(c); !slices.Equal(got, tiles) {
					t.Errorf("%s: %s: %v tile bitmap %x, its vectors occupy %x", when, e.Key, c, got, tiles)
				}
				if got := e.wordOcc(c); !got.Equal(words) {
					t.Errorf("%s: %s: %v word bitmap %x, its union occupies %x", when, e.Key, c, got.Words(), words.Words())
				}
			}
		}
	}
	if n == 0 {
		t.Fatalf("%s: no index entries; the oracle is vacuous", when)
	}
}

// TestSummariesMatchTheirVectors: the occupancy counts, tile bitmaps and
// word-occupancy bitmaps a load installs unread are those of the entry's
// own vectors, along the whole lifecycle — after a build, after a warm
// open, after an append into the opened corpus, and after that corpus is
// saved and opened again.
func TestSummariesMatchTheirVectors(t *testing.T) {
	base := buildFW(t, appendCorpus(t, 48))
	assertSummariesFromVectors(t, base, "build")
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := base.Save(path); err != nil {
		t.Fatal(err)
	}
	opts := Options{City: testCity(t), Workers: 2, Seed: 5}
	live, err := Open(path, OpenOptions{Options: opts, Datasets: appendCorpus(t, 48)})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	assertSummariesFromVectors(t, live, "load")

	// An append that extends the corpus: the recomputed entries gain a
	// tile, and the rest keep the summaries the load installed.
	if st, err := live.AppendSlice(hourSlice("noise", "level", 230, plantedHours+48, 24*5)); err != nil || st.FellBack {
		t.Fatalf("append: err = %v, fell back = %v", err, st.FellBack)
	}
	assertSummariesFromVectors(t, live, "append")
	path2 := filepath.Join(t.TempDir(), "corpus2.snap")
	if err := live.Save(path2); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path2, OpenOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertSummariesFromVectors(t, reopened, "append, save and load")
}
