package core

import (
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// TestBinOnceParity checks the index job's shared inputs: every task of a
// data set reads the same bins and attribute columns, built by whichever
// task gets there first. An index built that way at Workers 1, 2 and 4
// must equal, tile by tile, the features of each function computed on its
// own with scalar.ComputeOnDomain over the tile's sub-timeline. The corpus
// spans two tiles at Day and at Month — the urban collection straddles the
// boundary — so the tile filter of the shared bins is checked too.
func TestBinOnceParity(t *testing.T) {
	city, err := spatial.Generate(spatial.GridConfig(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2012, time.December, 20, 0, 0, 0, 0, time.UTC)
	col, err := urban.Generate(urban.Config{Seed: 1, City: city, Start: start, End: start.AddDate(0, 0, 24), Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ds := append(col.Datasets, noiseDataset("noise", 91, 0)) // from 2012-01-01
	for _, workers := range []int{1, 2, 4} {
		f, err := New(Options{City: city, Workers: workers, Seed: 1,
			EvalTemporal: []temporal.Resolution{temporal.Day, temporal.Month}})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if err := f.AddDataset(d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		for _, tr := range f.opts.EvalTemporal {
			if n := f.timelines[tr].NumTiles(); n != 2 {
				t.Fatalf("the corpus spans %d tiles at %s, want 2", n, tr)
			}
		}
		checked := 0
		for _, d := range ds {
			for _, res := range f.resolutionsFor(d) {
				checked += checkEntriesPerTile(t, f, d, res)
			}
		}
		if checked == 0 {
			t.Fatal("no entry checked")
		}
	}
}

// checkEntriesPerTile recomputes every function of d at res tile by tile
// and compares it with the index entry, returning the entries checked.
func checkEntriesPerTile(t *testing.T, f *Framework, d *dataset.Dataset, res Resolution) int {
	t.Helper()
	tl, g := f.timelines[res.Temporal], f.graphs[res]
	entries := f.index.at(d.Name, res)
	byKey := make(map[string]*FunctionEntry, len(entries))
	for _, e := range entries {
		byKey[e.Key] = e
	}
	for _, spec := range scalar.Specs(d) {
		e := byKey[entryKey(d.Name, spec.Name(), res)]
		if e == nil {
			t.Fatalf("no entry for %s %s at %v", d.Name, spec.Name(), res)
		}
		for ti := 0; ti < tl.NumTiles(); ti++ {
			lo, hi := tl.TileBounds(ti)
			sub, tg := tl.Slice(lo, hi), g
			if hi-lo != tl.Len() {
				var err error
				if tg, err = stgraph.New(g.NumRegions(), hi-lo, g.SpatialAdjacency()); err != nil {
					t.Fatal(err)
				}
			}
			fn, err := scalar.ComputeOnDomain(d, spec, f.opts.City, res.Spatial, res.Temporal, sub, tg)
			if err != nil {
				t.Fatal(err)
			}
			ex := feature.NewExtractor(fn)
			off, n := lo*g.NumRegions(), tg.NumVertices()
			for _, c := range []struct {
				got  *feature.Set
				want *feature.Set
			}{{e.Salient, ex.Extract(feature.Salient)}, {e.Extreme, ex.Extract(feature.Extreme)}} {
				for v := 0; v < n; v++ {
					if c.got.Positive.Get(off+v) != c.want.Positive.Get(v) || c.got.Negative.Get(off+v) != c.want.Negative.Get(v) {
						t.Fatalf("%s tile %d: vertex %d differs from the function computed on its own", e.Key, ti, v)
					}
				}
			}
			if e.TileCriticalPoints[ti] != ex.CriticalPoints() {
				t.Fatalf("%s tile %d: critical points differ from the function computed on its own", e.Key, ti)
			}
		}
	}
	return len(entries)
}
