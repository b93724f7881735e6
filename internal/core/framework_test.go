package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func testCity(t testing.TB) *spatial.CityMap {
	t.Helper()
	c, err := spatial.Generate(spatial.Config{Seed: 3, GridW: 24, GridH: 24, Neighborhoods: 8, ZipCodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ts(d, h int) int64 {
	return time.Date(2012, time.January, 1+d, h, 0, 0, 0, time.UTC).Unix()
}

// plantedHours is the length of the planted fixtures: one year of hours.
const plantedHours = 24 * 7 * 52

// plantedPair builds two city-level hourly data sets over one year whose
// attribute functions deviate together at the given event hours: "storm"
// events push wind up and trips down; "calm" events push wind down and
// trips up — both are negative feature relations, so tau is strongly
// negative. Baselines carry continuous noise (like real sensor data), so
// the noise extrema form the low-persistence cluster and thresholds land
// between noise and events. Dense mixed-sign feature sets give the
// restricted Monte Carlo test the power regime the paper's 5-year corpus
// lives in.
func plantedPair(seed int64, storms, calms []int) (*dataset.Dataset, *dataset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	wind := &dataset.Dataset{
		Name: "wind", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"speed"},
	}
	trips := &dataset.Dataset{
		Name: "trips", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"count"},
	}
	stormAt := map[int]bool{}
	for _, s := range storms {
		stormAt[s] = true
	}
	calmAt := map[int]bool{}
	for _, s := range calms {
		calmAt[s] = true
	}
	for i := 0; i < plantedHours; i++ {
		w := 10 + rng.NormFloat64()*0.4
		c := 400 + rng.NormFloat64()*3
		switch {
		case stormAt[i]:
			w = 55 + rng.Float64()*10
			c = 20 + rng.Float64()*4
		case calmAt[i]:
			w = 1 + rng.Float64()*0.5
			c = 800 + rng.Float64()*20
		}
		t := ts(i/24, i%24)
		wind.Tuples = append(wind.Tuples, dataset.Tuple{Region: 0, TS: t, Values: []float64{w}})
		trips.Tuples = append(trips.Tuples, dataset.Tuple{Region: 0, TS: t, Values: []float64{c}})
	}
	return wind, trips
}

// randomHours draws n distinct hours in [0, plantedHours).
func randomHours(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		h := rng.Intn(plantedHours)
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

func newFW(t *testing.T) *Framework {
	t.Helper()
	f, err := New(Options{City: testCity(t), Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testDomainSteps is the oracle for the step count of the domain a
// candidate's significance test runs on, read off the feature vectors: the
// steps of every temporal tile where either function has a feature of the
// class, inside the clause's window when it has one.
func testDomainSteps(f *Framework, e1, e2 *FunctionEntry, class feature.Class, c Clause) int {
	g := f.graphs[e1.Res]
	R, S, w := g.NumRegions(), g.NumSteps(), temporal.TileWidth(e1.Res.Temporal)
	lo, hi := 0, S
	if c.Windowed {
		lo, hi = windowSteps(f.timelines[e1.Res.Temporal], c.WindowFrom, c.WindowTo)
	}
	steps := 0
	for t0 := 0; t0 < S; t0 += w {
		t1 := min(t0+w, S)
		from, to := max(t0, lo), min(t1, hi)
		if from < to && (e1.union(class).AnyRange(from*R, to*R) || e2.union(class).AnyRange(from*R, to*R)) {
			steps += t1 - t0
		}
	}
	return steps
}

// oracleNotResolvable reports whether a candidate's test cannot reach the
// clause's alpha, by the oracle's domain: one region and 1/S > alpha. No
// test runs under SkipSignificance, so nothing is unresolvable there.
func oracleNotResolvable(f *Framework, e1, e2 *FunctionEntry, class feature.Class, c Clause) bool {
	if c.SkipSignificance || f.graphs[e1.Res].NumRegions() > 1 {
		return false
	}
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	return 1/float64(testDomainSteps(f, e1, e2, class, c)) > alpha
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("expected error for missing city")
	}
}

func TestAddDatasetValidation(t *testing.T) {
	f := newFW(t)
	wind, _ := plantedPair(1, []int{10}, nil)
	if err := f.AddDataset(wind); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDataset(wind); err == nil {
		t.Error("expected error for duplicate dataset")
	}
	empty := &dataset.Dataset{Name: "empty", SpatialRes: spatial.City, TemporalRes: temporal.Hour}
	if err := f.AddDataset(empty); err == nil {
		t.Error("expected error for empty dataset")
	}
	if got := f.Datasets(); len(got) != 1 || got[0] != "wind" {
		t.Errorf("Datasets = %v", got)
	}
}

func TestBuildIndexCounts(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(2, []int{100, 300}, nil)
	if err := f.AddDataset(wind); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDataset(trips); err != nil {
		t.Fatal(err)
	}
	stats, err := f.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Each dataset: 2 specs (density + 1 attr) x city x {hour, day, week, month} = 8.
	if stats.Functions != 16 {
		t.Errorf("Functions = %d, want 16", stats.Functions)
	}
	if stats.FeatureSets != 16 {
		t.Errorf("FeatureSets = %d, want 16", stats.FeatureSets)
	}
	if !f.Indexed() {
		t.Error("Indexed() should be true after BuildIndex")
	}
	if f.NumFunctions() != 16 {
		t.Errorf("NumFunctions = %d", f.NumFunctions())
	}
	res := Resolution{spatial.City, temporal.Hour}
	if es := f.Entries("wind", res); len(es) != 2 {
		t.Errorf("wind entries at %v = %d, want 2", res, len(es))
	}
}

func TestQueryRequiresIndex(t *testing.T) {
	f := newFW(t)
	wind, _ := plantedPair(3, []int{10}, nil)
	if err := f.AddDataset(wind); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Query(Query{}); err == nil {
		t.Error("expected error querying before BuildIndex")
	}
}

func TestQueryUnknownDataset(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(4, []int{10}, nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Query(Query{Sources: []string{"nope"}}); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestPlantedNegativeRelationshipFound(t *testing.T) {
	f := newFW(t)
	// Scattered co-occurring mixed-direction events, enough of them that
	// the restricted test has power.
	wind, trips := plantedPair(5, randomHours(7, 150), randomHours(8, 150))
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// The restricted test finds the planted relationship whether the query
	// plans every resolution and class or is filtered to the planted ones.
	for _, filtered := range []bool{false, true} {
		clause := Clause{Permutations: 300}
		if filtered {
			clause.Resolutions = []Resolution{{spatial.City, temporal.Hour}}
			clause.Classes = []feature.Class{feature.Salient}
		}
		rels, stats, err := f.Query(Query{Sources: []string{"wind"}, Clause: clause})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PairsConsidered == 0 {
			t.Fatalf("filtered=%v: no pairs considered", filtered)
		}
		// Find the count ~ speed salient relationship at (hour, city); the
		// pair is reported with the alphabetically first data set as side 1.
		found := false
		for _, r := range rels {
			if filtered && (r.Res != clause.Resolutions[0] || r.Class != feature.Salient) {
				t.Errorf("clause filter leaked %v", r)
			}
			if r.Spec1 == "avg_count" && r.Spec2 == "avg_speed" &&
				r.Res == (Resolution{spatial.City, temporal.Hour}) && r.Class == feature.Salient {
				found = true
				// Between-event extrema are persistent too, so salient sets
				// include baseline-tail points and tau is diluted toward the
				// moderate regime the paper itself reports (e.g. -0.62 for
				// precipitation/taxis). Direction and significance are the
				// contract.
				if r.Score > -0.15 {
					t.Errorf("filtered=%v: planted negative relationship has tau = %g, want clearly negative", filtered, r.Score)
				}
				if !r.Significant {
					t.Errorf("filtered=%v: planted relationship should be significant", filtered)
				}
			}
		}
		if !found {
			for _, r := range rels {
				t.Logf("got: %v", r)
			}
			t.Fatalf("filtered=%v: planted wind/trips relationship not found", filtered)
		}
	}
}

func TestIndependentNoiseMostlyPruned(t *testing.T) {
	f := newFW(t)
	// Two unrelated series: events at independently drawn hours.
	wind, _ := plantedPair(6, randomHours(10, 150), randomHours(11, 150))
	_, trips := plantedPair(7, randomHours(12, 150), randomHours(13, 150))
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Without significance testing there are candidate relationships.
	all, _, err := f.Query(Query{Clause: Clause{SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	// With the test, the disjoint-spike salient pairs at (hour, city)
	// must not survive as strong relationships.
	sig, _, err := f.Query(Query{Clause: Clause{Permutations: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) > len(all) {
		t.Error("significant set cannot exceed candidate set")
	}
	for _, r := range sig {
		if r.Res == (Resolution{spatial.City, temporal.Hour}) && r.Class == feature.Salient &&
			r.Spec1 == "avg_speed" && r.Spec2 == "avg_count" && abs(r.Score) > 0.5 {
			t.Errorf("disjoint spikes produced a strong significant relationship: %v", r)
		}
	}
}

func TestClauseFilters(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(8, randomHours(14, 150), randomHours(15, 150))
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	all, _, err := f.Query(Query{Clause: Clause{SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	strong, _, err := f.Query(Query{Clause: Clause{SkipSignificance: true, MinScore: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(strong) > len(all) {
		t.Error("MinScore filter must not add relationships")
	}
	for _, r := range strong {
		if abs(r.Score) < 0.9 {
			t.Errorf("MinScore violated: %v", r)
		}
	}
	// Resolution filter.
	hourOnly, _, err := f.Query(Query{Clause: Clause{
		SkipSignificance: true,
		Resolutions:      []Resolution{{spatial.City, temporal.Hour}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hourOnly {
		if r.Res != (Resolution{spatial.City, temporal.Hour}) {
			t.Errorf("resolution filter violated: %v", r)
		}
	}
	// Class filter.
	salientOnly, _, err := f.Query(Query{Clause: Clause{
		SkipSignificance: true,
		Classes:          []feature.Class{feature.Salient},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range salientOnly {
		if r.Class != feature.Salient {
			t.Errorf("class filter violated: %v", r)
		}
	}
}

func TestQueryCache(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(9, randomHours(16, 60), nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	q := Query{Clause: Clause{Permutations: 100}}
	first, stats1, err := f.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHit {
		t.Error("first query reported CacheHit")
	}
	second, stats2, err := f.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Error("cached query returned different results")
	}
	if !stats2.CacheHit {
		t.Error("second identical query should report CacheHit")
	}
	// A cache hit reports the counters of the run that produced the result.
	if stats2.PairsConsidered != stats1.PairsConsidered ||
		stats2.Pruned != stats1.Pruned ||
		stats2.Evaluated != stats1.Evaluated ||
		stats2.Significant != stats1.Significant {
		t.Errorf("cached stats %+v do not mirror original %+v", stats2, stats1)
	}
}

// QueryEncoded encodes a result once, serves those bytes on every hit of it,
// and encodes again only when the cached result has been replaced.
func TestQueryEncodedOncePerResult(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(9, randomHours(16, 60), nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	encode := func(rels []Relationship) ([]byte, error) {
		calls++
		return []byte(fmt.Sprintf("%d relationships, encoding %d", len(rels), calls)), nil
	}
	q := Query{Clause: Clause{Permutations: 100}}
	rels, _, err := f.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d relationships, encoding 1", len(rels))
	for i := 0; i < 3; i++ {
		got, stats, err := f.QueryEncoded(q, encode)
		if err != nil || string(got) != want || !stats.CacheHit {
			t.Fatalf("call %d: %q, hit=%t, %v; want %q from the cache", i, got, stats.CacheHit, err, want)
		}
	}
	f.dropResultsInvolving(wind.Name)
	got, stats, err := f.QueryEncoded(q, encode)
	if err != nil || stats.CacheHit || string(got) != fmt.Sprintf("%d relationships, encoding 2", len(rels)) {
		t.Fatalf("after invalidation: %q, hit=%t, %v; want a fresh evaluation encoded anew", got, stats.CacheHit, err)
	}
	failing := Query{Clause: Clause{Permutations: 101}}
	if _, _, err := f.QueryEncoded(failing, func([]Relationship) ([]byte, error) { return nil, fmt.Errorf("boom") }); err == nil {
		t.Fatal("an encoding error was swallowed")
	}
}

func TestPairSymmetryDedup(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(10, randomHours(17, 40), nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Sources and targets both "all": each unordered pair appears once.
	_, stats, err := f.Query(Query{Clause: Clause{SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 specs x 2 specs x 4 temporal res x 1 spatial x 2 classes = 32.
	if stats.PairsConsidered != 32 {
		t.Errorf("PairsConsidered = %d, want 32 (each unordered pair once)", stats.PairsConsidered)
	}
}

func TestMultiResolutionRelationship(t *testing.T) {
	// A relationship that only materialises at daily resolution: b's
	// attribute responds to the *daily accumulation* of a's spikes.
	f := newFW(t)
	a := &dataset.Dataset{
		Name: "snow", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"inches"},
	}
	b := &dataset.Dataset{
		Name: "stations", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"active"},
	}
	rng := rand.New(rand.NewSource(99))
	hours := 24 * 364
	snowDays := map[int]bool{}
	for len(snowDays) < 40 {
		snowDays[1+rng.Intn(361)] = true
	}
	for i := 0; i < hours; i++ {
		day := i / 24
		h := i % 24
		inches := math.Abs(rng.NormFloat64()) * 0.02
		active := 330.0 + rng.NormFloat64()*2
		if snowDays[day] && h >= 6 && h < 10 {
			// Snow falls for a few morning hours...
			inches = 2 + rng.Float64()*0.5
		}
		if (snowDays[day] && h >= 12) || (snowDays[day-1] && h < 12) {
			// ...and stations only react once it has accumulated: from
			// noon through the next morning (no hourly overlap with the
			// snowfall feature).
			active = 150 + rng.NormFloat64()*2
		}
		t0 := ts(day, h)
		a.Tuples = append(a.Tuples, dataset.Tuple{Region: 0, TS: t0, Values: []float64{inches}})
		b.Tuples = append(b.Tuples, dataset.Tuple{Region: 0, TS: t0, Values: []float64{active}})
	}
	_ = f.AddDataset(a)
	_ = f.AddDataset(b)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rels, _, err := f.Query(Query{Clause: Clause{Permutations: 200}})
	if err != nil {
		t.Fatal(err)
	}
	var dayTau, hourTau float64
	var haveDay, haveHour bool
	for _, r := range rels {
		if r.Spec1 != "avg_inches" || r.Spec2 != "avg_active" || r.Class != feature.Salient {
			continue
		}
		switch r.Res.Temporal {
		case temporal.Day:
			dayTau = r.Score
			haveDay = true
		case temporal.Hour:
			hourTau = r.Score
			haveHour = true
		}
	}
	if !haveDay {
		t.Fatal("daily-resolution relationship not found")
	}
	if dayTau > -0.15 {
		t.Errorf("daily tau = %g, want clearly negative", dayTau)
	}
	// At hourly resolution the snowfall and station features never
	// coincide (the stations react only after accumulation), so the
	// relationship is absent or weaker — the paper's multi-resolution
	// point.
	if haveHour && hourTau < dayTau {
		t.Errorf("hourly tau (%g) should be weaker than daily (%g)", hourTau, dayTau)
	}
}

func TestResolutionString(t *testing.T) {
	r := Resolution{spatial.City, temporal.Hour}
	if r.String() != "(hour, city)" {
		t.Errorf("String = %q, want (hour, city)", r.String())
	}
}

func TestCommonResolutionsFramework(t *testing.T) {
	f := newFW(t)
	weekly := &dataset.Dataset{
		Name: "gas", SpatialRes: spatial.City, TemporalRes: temporal.Week,
		Attrs:  []string{"price"},
		Tuples: []dataset.Tuple{{Region: 0, TS: ts(2, 0), Values: []float64{3}}},
	}
	hourly, _ := plantedPair(11, []int{5}, nil)
	if err := f.AddDataset(weekly); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDataset(hourly); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// gas is weekly: the pair is planned at (week, city) and (month, city)
	// only, though the hourly side is indexed at (hour, city) and (day, city)
	// too.
	common := []Resolution{{spatial.City, temporal.Week}, {spatial.City, temporal.Month}}
	if len(f.Entries(hourly.Name, Resolution{spatial.City, temporal.Hour})) == 0 {
		t.Fatal("hourly data set has no (hour, city) entries")
	}
	want := 0
	for _, res := range common {
		want += 2 * len(f.Entries("gas", res)) * len(f.Entries(hourly.Name, res))
	}
	pl := f.plan(makeGraphPair("gas", hourly.Name), Clause{SkipSignificance: true})
	if want == 0 || pl.considered != want {
		t.Errorf("planned %d candidate tuples, want %d at %v", pl.considered, want, common)
	}
	for _, task := range pl.tasks {
		if !slices.Contains(common, task.e1.Res) || task.e2.Res != task.e1.Res {
			t.Errorf("task planned at %v ~ %v, want one of %v", task.e1.Res, task.e2.Res, common)
		}
	}
}
