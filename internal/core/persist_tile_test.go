package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/store"
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
	if format, _, ok := g.LoadedSnapshot(); !ok || format != store.FormatVersion {
		t.Fatalf("warm open reports container version %d (loaded=%v), want %d", format, ok, store.FormatVersion)
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
				if len(e.TileThresholds) != wantTiles || len(e.TileCriticalPoints) != wantTiles {
					t.Errorf("%s: tile table has %d thresholds / %d critical counts, want %d",
						e.Key, len(e.TileThresholds), len(e.TileCriticalPoints), wantTiles)
				}
				if e.tileOcc(feature.Salient) == nil {
					t.Errorf("%s: tile occupancy not rederived after load", e.Key)
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
