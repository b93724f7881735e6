package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// hourSlice builds an append slice for a city-level hourly data set covering
// hours [from, from+n) of the planted calendar (hour 0 = 2012-01-01T00:00Z).
func hourSlice(name, attr string, seed int64, from, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{
		Name: name, SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{attr},
	}
	for i := from; i < from+n; i++ {
		v := 25 + rng.NormFloat64()
		if i%97 == 0 {
			v = 80 + rng.Float64()*5 // occasional events so the slice carries features
		}
		d.Tuples = append(d.Tuples, dataset.Tuple{
			Region: 0, TS: ts(i/24, i%24), Values: []float64{v},
		})
	}
	return d
}

// appendCorpus registers wind, trips, and noise — the three-data-set corpus
// the append tests grow. extraNoiseHours pads noise past the planted year
// (plantedHours+48 = 8784 hours = exactly one Hour tile and one Day tile:
// a tile-aligned corpus end).
func appendCorpus(t testing.TB, extraNoiseHours int) []*dataset.Dataset {
	t.Helper()
	wind, trips := plantedPair(30, randomHours(31, 60), nil)
	return []*dataset.Dataset{wind, trips, noiseDataset("noise", 91, extraNoiseHours)}
}

func buildFW(t testing.TB, ds []*dataset.Dataset) *Framework {
	t.Helper()
	f := newFWTB(t)
	for _, d := range ds {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
}

// assertIndexIdentical compares every index entry of the two frameworks
// byte for byte: feature bits, shape, per-tile critical point counts.
func assertIndexIdentical(t *testing.T, want, got *Framework) {
	t.Helper()
	for _, n := range want.Datasets() {
		for _, res := range want.resolutionsFor(want.datasets[n]) {
			we, ge := want.Entries(n, res), got.Entries(n, res)
			if len(we) != len(ge) {
				t.Fatalf("%s@%v: %d entries from scratch, %d after append", n, res, len(we), len(ge))
			}
			for i := range we {
				w, g := we[i], ge[i]
				if w.Key != g.Key {
					t.Fatalf("%s@%v entry %d: key %q vs %q", n, res, i, w.Key, g.Key)
				}
				if !w.Salient.Positive.Equal(g.Salient.Positive) || !w.Salient.Negative.Equal(g.Salient.Negative) ||
					!w.Extreme.Positive.Equal(g.Extreme.Positive) || !w.Extreme.Negative.Equal(g.Extreme.Negative) {
					t.Errorf("%s: feature bits differ after append", w.Key)
				}
				if w.NumSteps != g.NumSteps || w.NumVertices != g.NumVertices || w.CriticalPoints != g.CriticalPoints {
					t.Errorf("%s: shape (%d,%d,%d) vs (%d,%d,%d)", w.Key,
						w.NumSteps, w.NumVertices, w.CriticalPoints, g.NumSteps, g.NumVertices, g.CriticalPoints)
				}
				if !reflect.DeepEqual(w.TileCriticalPoints, g.TileCriticalPoints) {
					t.Errorf("%s: per-tile critical points differ", w.Key)
				}
			}
		}
	}
}

// TestAppendEquivalence is the acceptance criterion of the append path:
// append-then-query is byte-identical to rebuild-from-scratch-then-query —
// index entries, p-values, q-values, and graph edges — across corpus
// shapes, and the append must not fall back to a full rebuild.
func TestAppendEquivalence(t *testing.T) {
	clause := Clause{Permutations: 80}
	cases := []struct {
		name            string
		extraNoiseHours int // pad of the base corpus (48 = tile-aligned end)
		slice           func() *dataset.Dataset
		wantExtended    bool
		wantChanged     []string // nil = don't pin (imputation bits may vary)
		wantTilesReused bool
	}{
		{
			// The flagship case: the corpus ends exactly on a tile boundary
			// (8784 hours = one full Hour tile, 366 days = one full Day
			// tile), and the append opens tile 1. Complete old tiles are
			// reused verbatim for every entry.
			name:            "tile-aligned extension",
			extraNoiseHours: 48,
			slice:           func() *dataset.Dataset { return hourSlice("noise", "level", 201, plantedHours+48, 24*10) },
			wantExtended:    true,
			wantTilesReused: true,
		},
		{
			// Extending mid-tile: the partial last tile's width changes, so
			// every data set's entries restitch (domainFrom = 0 while the
			// corpus is single-tile) — still no rebuild, and byte-equal.
			name:  "mid-tile extension",
			slice: func() *dataset.Dataset { return hourSlice("wind", "speed", 202, plantedHours, 120) },
			// +120 hours crosses 8784: the corpus becomes two Hour tiles.
			wantExtended: true,
		},
		{
			// In-range append: new tuples land inside the existing domain,
			// nothing extends, and only the target's entries can change —
			// untouched pairs keep their cached Monte Carlo results.
			name:         "in-range append",
			slice:        func() *dataset.Dataset { return hourSlice("trips", "count", 203, 4000, 300) },
			wantExtended: false,
			wantChanged:  []string{"trips"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slice := tc.slice()

			live := buildFW(t, appendCorpus(t, tc.extraNoiseHours))
			if _, err := live.BuildGraph(clause); err != nil {
				t.Fatal(err)
			}
			if _, _, err := live.Query(Query{Clause: clause}); err != nil {
				t.Fatal(err)
			}
			rebuildsBefore := live.Rebuilds()

			st, err := live.AppendSlice(slice)
			if err != nil {
				t.Fatal(err)
			}
			if st.FellBack {
				t.Fatal("append fell back to a full rebuild")
			}
			if live.Rebuilds() != rebuildsBefore {
				t.Errorf("append bumped the rebuild counter: %d -> %d", rebuildsBefore, live.Rebuilds())
			}
			if st.Extended != tc.wantExtended {
				t.Errorf("Extended = %v, want %v", st.Extended, tc.wantExtended)
			}
			if tc.wantChanged != nil && !reflect.DeepEqual(st.ChangedDatasets, tc.wantChanged) {
				t.Errorf("ChangedDatasets = %v, want %v", st.ChangedDatasets, tc.wantChanged)
			}
			if tc.wantTilesReused && st.TilesReused == 0 {
				t.Errorf("tile-aligned append reused no tiles: %+v", st)
			}

			// The delta graph refresh drops exactly the pairs incident to a
			// changed data set; the next build recomputes those and reuses
			// the rest of the cached Monte Carlo runs.
			changed := map[string]bool{}
			for _, n := range st.ChangedDatasets {
				changed[n] = true
			}
			wantDropped := 0
			names := live.Datasets()
			for i, a := range names {
				for _, b := range names[i+1:] {
					if changed[a] || changed[b] {
						wantDropped++
					}
				}
			}
			if st.GraphPairsDropped != wantDropped {
				t.Errorf("GraphPairsDropped = %d, want %d (changed: %v)", st.GraphPairsDropped, wantDropped, st.ChangedDatasets)
			}

			// One invalidation rule for queries and graph alike: a query over
			// a clean pair reads the family that survived the append, and one
			// touching a dirty data set re-tests every pair of it.
			if len(st.ChangedDatasets) == 0 {
				t.Fatal("the append changed no data set")
			}
			dirty := st.ChangedDatasets[0]
			probes := []Query{{Sources: []string{dirty}, Clause: clause}}
			for i, a := range names {
				for _, b := range names[i+1:] {
					if len(probes) == 1 && !changed[a] && !changed[b] {
						probes = append(probes, Query{Sources: []string{a}, Targets: []string{b}, Clause: clause})
					}
				}
			}
			probed := make([][]Relationship, len(probes))
			for i, q := range probes {
				before := permutationsRun(t)
				if probed[i], _, err = live.Query(q); err != nil {
					t.Fatal(err)
				}
				perms := permutationsRun(t) - before
				if isDirty := i == 0; isDirty && perms == 0 {
					t.Errorf("query touching dirty %s ran no permutation", dirty)
				} else if !isDirty && perms != 0 {
					t.Errorf("query over clean pair %v ran %d permutations", q.Sources, perms)
				}
			}

			gs, err := live.BuildGraph(clause)
			if err != nil {
				t.Fatal(err)
			}
			// The dirty probe already re-tested its data set's pairs.
			wantComputed := wantDropped - (len(names) - 1)
			if gs.PairsComputed != wantComputed || gs.PairsReused != gs.Pairs-wantComputed {
				t.Errorf("post-append BuildGraph = %+v, want %d computed / %d reused",
					gs, wantComputed, gs.Pairs-wantComputed)
			}

			// Reference: the same corpus built from scratch with the slice
			// merged in (same tuple order the append produces).
			ds := appendCorpus(t, tc.extraNoiseHours)
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
				t.Fatalf("query results differ after append:\n scratch %v\n append  %v", want, got)
			}
			for i, q := range probes {
				want, _, err := scratch.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, probed[i]) {
					t.Errorf("probe %v~%v differs from the scratch build", q.Sources, q.Targets)
				}
			}
			wantG, _ := scratch.RelGraph()
			gotG, _ := live.RelGraph()
			if !gotG.Equal(wantG) {
				t.Fatal("relationship graph differs between scratch build and append path")
			}
		})
	}
}

// TestAppendMultiFeed advances two feeds in turn — the designed steady
// state: the second feed's slice starts before the corpus end the first
// append established, and both appends stay incremental.
func TestAppendMultiFeed(t *testing.T) {
	clause := Clause{Permutations: 60}
	live := buildFW(t, appendCorpus(t, 48))
	if _, err := live.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	s1 := hourSlice("noise", "level", 210, plantedHours+48, 24*7)
	s2 := hourSlice("wind", "speed", 211, plantedHours, 24*7) // starts before s1's end
	for _, s := range []*dataset.Dataset{s1, s2} {
		st, err := live.AppendSlice(s)
		if err != nil {
			t.Fatal(err)
		}
		if st.FellBack {
			t.Fatalf("append of %s fell back to a full rebuild", s.Name)
		}
	}
	if _, err := live.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}

	ds := appendCorpus(t, 48)
	for i, d := range ds {
		switch d.Name {
		case "noise":
			ds[i] = appendTuples(d, s1)
		case "wind":
			ds[i] = appendTuples(d, s2)
		}
	}
	scratch := buildFW(t, ds)
	if _, err := scratch.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	assertIndexIdentical(t, scratch, live)
	wantG, _ := scratch.RelGraph()
	gotG, _ := live.RelGraph()
	if !gotG.Equal(wantG) {
		t.Fatal("graph differs after alternating-feed appends")
	}
}

func TestAppendValidation(t *testing.T) {
	f := buildFW(t, appendCorpus(t, 0))
	if _, err := f.AppendSlice(hourSlice("nope", "x", 1, 0, 5)); err == nil {
		t.Error("appending to an unregistered data set should fail")
	}
	if _, err := f.AppendSlice(&dataset.Dataset{Name: "wind", SpatialRes: spatial.City,
		TemporalRes: temporal.Hour, Attrs: []string{"speed"}}); err == nil {
		t.Error("appending an empty slice should fail")
	}
	if _, err := f.AppendSlice(hourSlice("wind", "gusts", 2, 100, 5)); err == nil {
		t.Error("appending a slice with mismatched attributes should fail")
	}
	wrongRes := hourSlice("wind", "speed", 3, 100, 5)
	wrongRes.TemporalRes = temporal.Day
	if _, err := f.AppendSlice(wrongRes); err == nil {
		t.Error("appending a slice with mismatched resolution should fail")
	}
	past := hourSlice("wind", "speed", 4, 0, 5)
	for i := range past.Tuples {
		past.Tuples[i].TS -= 3600 * 24 * 400
	}
	if _, err := f.AppendSlice(past); err == nil {
		t.Error("appending before the corpus start should fail")
	}
	if _, _, err := f.Query(Query{Clause: Clause{Permutations: 20}}); err != nil {
		t.Errorf("framework unusable after rejected appends: %v", err)
	}
}

// TestAppendIntoUnbuilt: appending before BuildIndex merges the tuples and
// builds, reported as the fallback path.
func TestAppendIntoUnbuilt(t *testing.T) {
	f := newFWTB(t)
	for _, d := range appendCorpus(t, 0) {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.AppendSlice(hourSlice("wind", "speed", 220, plantedHours, 24))
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack {
		t.Error("append into an unbuilt framework should report the rebuild path")
	}
	if !f.Indexed() {
		t.Error("append into an unbuilt framework should leave it indexed")
	}
}

// TestConcurrentAppendQueryGraphStress interleaves AppendSlice with
// concurrent Query and BuildGraph traffic. Under -race this exercises the
// snapshot/compute/splice phases of the append against both read paths;
// nothing may fail, and the final state must answer queries over the
// appended range.
func TestConcurrentAppendQueryGraphStress(t *testing.T) {
	f := buildFW(t, appendCorpus(t, 48))
	clause := Clause{Permutations: 20}
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{Sources: []string{"wind"}, Clause: Clause{Permutations: 20 + (i+g)%3}}
				if _, _, err := f.Query(q); err != nil {
					t.Errorf("query during append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.BuildGraph(clause); err != nil {
				t.Errorf("BuildGraph during append: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		slice := hourSlice("noise", "level", 230+int64(i), plantedHours+48+i*24, 24)
		if _, err := f.AppendSlice(slice); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if _, _, err := f.Query(Query{Sources: []string{"noise"}, Clause: Clause{Permutations: 20, SkipSignificance: true}}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendWithinLastStep: an append that moves the corpus end inside the
// last step of a timeline — here the 366-step day timeline, exactly one
// tile — extends the corpus but adds no step at that resolution. That
// timeline did not grow, so no tile past its end may be scheduled: the
// other data set keeps its entries, and the result equals a from-scratch
// build.
func TestAppendWithinLastStep(t *testing.T) {
	daily := func(name string, seed int64) *dataset.Dataset {
		rng := rand.New(rand.NewSource(seed))
		d := &dataset.Dataset{Name: name, SpatialRes: spatial.City, TemporalRes: temporal.Day, Attrs: []string{"v"}}
		for i := 0; i < 366; i++ {
			d.Tuples = append(d.Tuples, dataset.Tuple{Region: 0, TS: ts(i, 0), Values: []float64{25 + rng.NormFloat64()}})
		}
		return d
	}
	slice := func() *dataset.Dataset {
		return &dataset.Dataset{Name: "a", SpatialRes: spatial.City, TemporalRes: temporal.Day, Attrs: []string{"v"},
			Tuples: []dataset.Tuple{{Region: 0, TS: ts(365, 12), Values: []float64{80}}}}
	}
	live := buildFW(t, []*dataset.Dataset{daily("a", 1), daily("b", 2)})
	st, err := live.AppendSlice(slice())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Extended || st.FellBack || slices.Contains(st.ChangedDatasets, "b") {
		t.Errorf("append stats = %+v, want an extension that leaves b untouched", st)
	}
	scratch := buildFW(t, []*dataset.Dataset{appendTuples(daily("a", 1), slice()), daily("b", 2)})
	assertIndexIdentical(t, scratch, live)
}
