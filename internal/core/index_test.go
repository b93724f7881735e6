package core

import (
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// thirdDataset builds a city-level hourly data set over the same year as
// plantedPair (so adding it does not extend the corpus time range).
func thirdDataset(name string, seed int64, events []int) *dataset.Dataset {
	wind, _ := plantedPair(seed, events, nil)
	wind.Name = name
	return wind
}

func entriesEqual(t *testing.T, a, b *Framework) {
	t.Helper()
	if a.NumFunctions() != b.NumFunctions() {
		t.Fatalf("NumFunctions: %d vs %d", a.NumFunctions(), b.NumFunctions())
	}
	for _, name := range a.Datasets() {
		da := a.datasets[name]
		for _, res := range a.resolutionsFor(da) {
			ea, eb := a.Entries(name, res), b.Entries(name, res)
			if len(ea) != len(eb) {
				t.Fatalf("%s@%v: %d vs %d entries", name, res, len(ea), len(eb))
			}
			for i := range ea {
				x, y := ea[i], eb[i]
				if x.Key != y.Key {
					t.Fatalf("%s@%v entry %d: key %q vs %q", name, res, i, x.Key, y.Key)
				}
				if !x.Salient.Positive.Equal(y.Salient.Positive) ||
					!x.Salient.Negative.Equal(y.Salient.Negative) ||
					!x.Extreme.Positive.Equal(y.Extreme.Positive) ||
					!x.Extreme.Negative.Equal(y.Extreme.Negative) {
					t.Fatalf("%s: feature sets differ", x.Key)
				}
				if x.SalientOcc != y.SalientOcc || x.ExtremeOcc != y.ExtremeOcc {
					t.Fatalf("%s: occupancy differs: %+v vs %+v / %+v vs %+v",
						x.Key, x.SalientOcc, y.SalientOcc, x.ExtremeOcc, y.ExtremeOcc)
				}
			}
		}
	}
}

// TestIncrementalAddDatasetEquivalence is the incremental-index contract:
// adding a data set after BuildIndex and rebuilding must (a) index only the
// new data set's functions and (b) leave the framework byte-equivalent to a
// full rebuild over all data sets.
func TestIncrementalAddDatasetEquivalence(t *testing.T) {
	wind, trips := plantedPair(21, randomHours(31, 80), randomHours(32, 80))
	gas := thirdDataset("gas", 22, randomHours(33, 80))

	// Incremental: wind+trips, index, then gas, index again.
	inc := newFW(t)
	_ = inc.AddDataset(wind)
	_ = inc.AddDataset(trips)
	stats1, err := inc.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AddDataset(gas); err != nil {
		t.Fatal(err)
	}
	if inc.Indexed() {
		t.Error("Indexed() must be false while a data set is unindexed")
	}
	stats2, err := inc.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.DatasetsIndexed != 1 || stats2.DatasetsReused != 2 {
		t.Errorf("incremental build: DatasetsIndexed=%d DatasetsReused=%d, want 1/2",
			stats2.DatasetsIndexed, stats2.DatasetsReused)
	}
	// gas has 2 specs (density + 1 attr) x 4 temporal res x city = 8.
	if stats2.Functions != 8 {
		t.Errorf("incremental build indexed %d functions, want 8 (gas only)", stats2.Functions)
	}
	if stats1.Functions != 16 {
		t.Errorf("initial build indexed %d functions, want 16", stats1.Functions)
	}

	// Full rebuild over the same three data sets.
	full := newFW(t)
	wind2, trips2 := plantedPair(21, randomHours(31, 80), randomHours(32, 80))
	gas2 := thirdDataset("gas", 22, randomHours(33, 80))
	_ = full.AddDataset(wind2)
	_ = full.AddDataset(trips2)
	_ = full.AddDataset(gas2)
	if _, err := full.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	entriesEqual(t, full, inc)

	// Query results must match exactly too.
	q := Query{Clause: Clause{Permutations: 100}}
	r1, _, err := inc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := full.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("incremental query: %d relationships, full: %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("relationship %d differs:\n  inc:  %v\n  full: %v", i, r1[i], r2[i])
		}
	}
}

// TestAddDatasetExtendingRangeForcesRebuild: a data set that widens the
// corpus time range back into earlier steps shifts every step index of the
// shared timelines, so the BuildIndex after it rebuilds the whole index,
// counted once. (Widening forward is incremental: see
// TestIngestRangeExtensionFallback.)
func TestAddDatasetExtendingRangeForcesRebuild(t *testing.T) {
	wind, trips := plantedPair(23, randomHours(34, 40), nil)
	f := newFW(t)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// One tuple a week before the planted year: extends the range back.
	early := &dataset.Dataset{
		Name: "early", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"v"},
		Tuples: []dataset.Tuple{
			{Region: 0, TS: ts(-7, 0), Values: []float64{1}},
			{Region: 0, TS: ts(1, 0), Values: []float64{2}},
		},
	}
	rebuilds := f.Rebuilds()
	if err := f.AddDataset(early); err != nil {
		t.Fatal(err)
	}
	if f.Rebuilds() != rebuilds {
		t.Errorf("AddDataset alone counted %d rebuilds; it only registers", f.Rebuilds()-rebuilds)
	}
	stats, err := f.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DatasetsIndexed != 3 || stats.DatasetsReused != 0 || f.Rebuilds() != rebuilds+1 {
		t.Errorf("range-extending add: DatasetsIndexed=%d DatasetsReused=%d rebuilds %d, want 3/0/1",
			stats.DatasetsIndexed, stats.DatasetsReused, f.Rebuilds()-rebuilds)
	}
	// All bit vectors must live on the new, longer timelines.
	res := Resolution{spatial.City, temporal.Hour}
	g, ok := f.Graph(res)
	if !ok {
		t.Fatal("no graph at (hour, city)")
	}
	for _, e := range f.Entries("wind", res) {
		if e.Salient.NumVertices() != g.NumVertices() {
			t.Errorf("%s: %d vertices, graph has %d", e.Key, e.Salient.NumVertices(), g.NumVertices())
		}
	}
}

func TestDatasetIndexStats(t *testing.T) {
	wind, trips := plantedPair(24, randomHours(35, 60), nil)
	f := newFW(t)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, ok := f.DatasetIndexStats("wind"); ok {
		t.Error("stats reported before BuildIndex")
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wind", "trips"} {
		st, ok := f.DatasetIndexStats(name)
		if !ok {
			t.Fatalf("no stats for %s", name)
		}
		if st.Functions != 8 {
			t.Errorf("%s: Functions = %d, want 8", name, st.Functions)
		}
		if st.Resolutions != 4 {
			t.Errorf("%s: Resolutions = %d, want 4", name, st.Resolutions)
		}
		if st.CriticalPoints <= 0 {
			t.Errorf("%s: CriticalPoints = %d, want > 0", name, st.CriticalPoints)
		}
		if st.SalientFeatures <= 0 {
			t.Errorf("%s: SalientFeatures = %d, want > 0 (events are planted)", name, st.SalientFeatures)
		}
	}
	if _, ok := f.DatasetIndexStats("nope"); ok {
		t.Error("stats reported for unknown data set")
	}
}

// TestIncrementalCacheInvalidation: cached query results that do not
// involve a newly added data set survive; queries over "all data sets"
// naturally re-resolve and miss.
func TestIncrementalCacheInvalidation(t *testing.T) {
	wind, trips := plantedPair(25, randomHours(36, 60), nil)
	f := newFW(t)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	q := Query{Sources: []string{"wind"}, Targets: []string{"trips"}, Clause: Clause{Permutations: 50}}
	if _, _, err := f.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDataset(thirdDataset("gas", 26, randomHours(37, 60))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	_, stats, err := f.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Error("wind/trips query should still be cached after adding unrelated gas")
	}
	// An entry occupancy sanity check on the exported summaries.
	res := Resolution{spatial.City, temporal.Hour}
	for _, e := range f.Entries("gas", res) {
		if got := e.occ(feature.Salient); got != e.SalientOcc {
			t.Errorf("%s: occ() = %+v, field = %+v", e.Key, got, e.SalientOcc)
		}
	}
}

// BenchmarkBuildIndex measures BuildIndex over the urban collection
// (Figure 8's per-increment cost) on 6 months at scale 0.3.
func BenchmarkBuildIndex(b *testing.B) {
	city, err := spatial.Generate(spatial.Config{
		Seed: 1, GridW: 32, GridH: 32, Neighborhoods: 60, ZipCodes: 70,
	})
	if err != nil {
		b.Fatal(err)
	}
	col, err := urban.Generate(urban.Config{
		Seed:  1,
		City:  city,
		Start: time.Date(2011, time.June, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2011, time.December, 1, 0, 0, 0, 0, time.UTC),
		Scale: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Index the first four data sets of the figure's order (through taxi).
	order := col.IndexingOrder()[:4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw, err := New(Options{City: city, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range order {
			if err := fw.AddDataset(d); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := fw.BuildIndex(); err != nil {
			b.Fatal(err)
		}
	}
}
