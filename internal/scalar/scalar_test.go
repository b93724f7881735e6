package scalar

import (
	"github.com/urbandata/datapolygamy/internal/mathx"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func testCity(t testing.TB) *spatial.CityMap {
	t.Helper()
	c, err := spatial.Generate(spatial.Config{Seed: 11, GridW: 32, GridH: 32, Neighborhoods: 12, ZipCodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ts(y int, m time.Month, d, h int) int64 {
	return time.Date(y, m, d, h, 0, 0, 0, time.UTC).Unix()
}

// gpsDataset returns a small GPS/second data set with two tuples in the
// first hour at one cell and one tuple in the second hour elsewhere.
func gpsDataset(t testing.TB, city *spatial.CityMap) *dataset.Dataset {
	t.Helper()
	p0 := city.CellCenter(0)
	p1 := city.CellCenter(city.NumCells() - 1)
	return &dataset.Dataset{
		Name:        "taxi",
		SpatialRes:  spatial.GPS,
		TemporalRes: temporal.Second,
		HasID:       true,
		Attrs:       []string{"fare"},
		Tuples: []dataset.Tuple{
			{ID: 7, X: p0.X, Y: p0.Y, Region: -1, TS: ts(2011, 1, 1, 0) + 60, Values: []float64{10}},
			{ID: 7, X: p0.X, Y: p0.Y, Region: -1, TS: ts(2011, 1, 1, 0) + 120, Values: []float64{20}},
			{ID: 9, X: p1.X, Y: p1.Y, Region: -1, TS: ts(2011, 1, 1, 1) + 30, Values: []float64{5}},
		},
	}
}

func TestDensityCityHourly(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	f, err := Compute(d, Spec{Kind: Density}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Graph.NumRegions() != 1 {
		t.Fatalf("city function should have 1 region, got %d", f.Graph.NumRegions())
	}
	if f.Timeline.Len() != 2 {
		t.Fatalf("timeline length = %d, want 2", f.Timeline.Len())
	}
	if f.Value(0, 0) != 2 || f.Value(0, 1) != 1 {
		t.Errorf("density = %g,%g want 2,1", f.Value(0, 0), f.Value(0, 1))
	}
}

func TestUniqueCountsDistinctIDs(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	f, err := Compute(d, Spec{Kind: Unique}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Hour 0 has two tuples but a single medallion.
	if f.Value(0, 0) != 1 {
		t.Errorf("unique hour0 = %g, want 1", f.Value(0, 0))
	}
	if f.Value(0, 1) != 1 {
		t.Errorf("unique hour1 = %g, want 1", f.Value(0, 1))
	}
}

func TestAttributeAvg(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	f, err := Compute(d, Spec{Kind: Attribute, Attr: "fare"}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Value(0, 0) != 15 {
		t.Errorf("avg fare hour0 = %g, want 15", f.Value(0, 0))
	}
	if f.Value(0, 1) != 5 {
		t.Errorf("avg fare hour1 = %g, want 5", f.Value(0, 1))
	}
}

func TestMissingValuesSkipped(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	d.Tuples[1].Values[0] = dataset.Missing()
	f, err := Compute(d, Spec{Kind: Attribute, Attr: "fare"}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Value(0, 0) != 10 {
		t.Errorf("avg with missing = %g, want 10", f.Value(0, 0))
	}
}

func TestImputationUsesGlobalMean(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	// Neighborhood resolution: most vertices unobserved.
	f, err := Compute(d, Spec{Kind: Attribute, Attr: "fare"}, city, spatial.Neighborhood, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of observed vertex values: hour0 nbhd of p0 = 15, hour1 nbhd of p1 = 5 -> mean 10.
	// No fare is missing, so the observed vertices are those with a tuple.
	density, err := Compute(d, Spec{Kind: Density}, city, spatial.Neighborhood, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0
	for v, n := range density.Values {
		if n == 0 && f.Values[v] != want {
			t.Fatalf("imputed value = %g, want %g", f.Values[v], want)
		}
	}
}

func TestDensityImputesZero(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	f, err := Compute(d, Spec{Kind: Density}, city, spatial.Neighborhood, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The three tuples land on two vertices (two in hour 0 at p0, one in
	// hour 1 at p1); every other vertex is unobserved and reads zero.
	zeros, total := 0, 0.0
	for _, x := range f.Values {
		if x == 0 {
			zeros++
		}
		total += x
	}
	if zeros != len(f.Values)-2 || total != 3 {
		t.Errorf("density has %d zeros of %d vertices and total %g, want %d and 3",
			zeros, len(f.Values), total, len(f.Values)-2)
	}
}

func TestComputeErrors(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)

	if _, err := Compute(d, Spec{Kind: Density}, city, spatial.GPS, temporal.Hour); err == nil {
		t.Error("expected error at GPS evaluation resolution")
	}
	if _, err := Compute(d, Spec{Kind: Attribute, Attr: "nope"}, city, spatial.City, temporal.Hour); err == nil {
		t.Error("expected error for unknown attribute")
	}
	noID := gpsDataset(t, city)
	noID.HasID = false
	if _, err := Compute(noID, Spec{Kind: Unique}, city, spatial.City, temporal.Hour); err == nil {
		t.Error("expected error for unique without IDs")
	}
	empty := &dataset.Dataset{Name: "e", SpatialRes: spatial.City, TemporalRes: temporal.Hour}
	if _, err := Compute(empty, Spec{Kind: Density}, city, spatial.City, temporal.Hour); err == nil {
		t.Error("expected error for empty dataset")
	}

	// Incompatible temporal: weekly data to hourly evaluation.
	weekly := &dataset.Dataset{
		Name: "gas", SpatialRes: spatial.City, TemporalRes: temporal.Week,
		Tuples: []dataset.Tuple{{Region: 0, TS: ts(2011, 1, 3, 0), Values: nil}},
	}
	if _, err := Compute(weekly, Spec{Kind: Density}, city, spatial.City, temporal.Hour); err == nil {
		t.Error("expected error for weekly->hourly conversion")
	}
	// Incompatible spatial: zip data to neighborhood evaluation.
	zipd := &dataset.Dataset{
		Name: "z", SpatialRes: spatial.ZipCode, TemporalRes: temporal.Hour,
		Tuples: []dataset.Tuple{{Region: 0, TS: ts(2011, 1, 3, 0), Values: nil}},
	}
	if _, err := Compute(zipd, Spec{Kind: Density}, city, spatial.Neighborhood, temporal.Hour); err == nil {
		t.Error("expected error for zip->neighborhood conversion")
	}
}

// TestInvalidTuplesRejected: the per-tuple checks run in the binning loop
// and report what Validate reports — the same text, the first bad tuple —
// through every entry point and for every function kind, also when the bad
// tuple falls outside the timeline being computed.
func TestInvalidTuplesRejected(t *testing.T) {
	city := testCity(t)
	tuples := func() []dataset.Tuple {
		return []dataset.Tuple{
			{ID: 1, Region: 0, TS: ts(2011, 1, 3, 0), Values: []float64{1}},
			{ID: 2, Region: 1, TS: ts(2011, 1, 3, 5), Values: []float64{2}},
			{ID: 3, Region: 2, TS: ts(2011, 1, 9, 0), Values: []float64{3}},
		}
	}
	cases := []struct {
		name    string
		res     spatial.Resolution
		corrupt func(tups []dataset.Tuple)
		want    string
	}{
		{"short values row", spatial.ZipCode, func(tups []dataset.Tuple) { tups[1].Values = nil },
			"dataset permits: tuple 1 has 0 values, want 1"},
		{"negative region", spatial.ZipCode, func(tups []dataset.Tuple) { tups[2].Region = -3 },
			"dataset permits: tuple 2 has negative region at polygon resolution"},
		{"first bad tuple wins", spatial.ZipCode, func(tups []dataset.Tuple) {
			tups[1].Region = -1
			tups[2].Values = []float64{1, 2}
		}, "dataset permits: tuple 1 has negative region at polygon resolution"},
		{"long values row at GPS", spatial.GPS, func(tups []dataset.Tuple) { tups[0].Values = []float64{1, 2} },
			"dataset permits: tuple 0 has 2 values, want 1"},
	}
	specs := []Spec{{Kind: Density}, {Kind: Unique}, {Kind: Attribute, Attr: "fee"}}
	for _, c := range cases {
		d := &dataset.Dataset{Name: "permits", SpatialRes: c.res, TemporalRes: temporal.Hour,
			HasID: true, Attrs: []string{"fee"}, Tuples: tuples()}
		for i := range d.Tuples {
			p := city.CellCenter(i)
			d.Tuples[i].X, d.Tuples[i].Y = p.X, p.Y
		}
		c.corrupt(d.Tuples)
		if _, err := d.Validate(); err == nil || err.Error() != c.want {
			t.Fatalf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
		// A timeline of the first day only: the third tuple lies outside it.
		tl, err := temporal.NewTimeline(ts(2011, 1, 3, 0), ts(2011, 1, 3, 23), temporal.Hour)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stgraph.New(city.NumRegions(spatial.City), tl.Len(), city.Adjacency(spatial.City))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			calls := map[string]func() (*Function, error){
				"Compute": func() (*Function, error) {
					return Compute(d, spec, city, spatial.City, temporal.Hour)
				},
				"ComputeOnTimeline": func() (*Function, error) {
					return ComputeOnTimeline(d, spec, city, spatial.City, temporal.Hour, tl)
				},
				"ComputeOnDomain": func() (*Function, error) {
					return ComputeOnDomain(d, spec, city, spatial.City, temporal.Hour, tl, g)
				},
			}
			for name, call := range calls {
				if _, err := call(); err == nil || err.Error() != c.want {
					t.Errorf("%s: %s(%s) = %v, want %q", c.name, name, spec.Name(), err, c.want)
				}
			}
		}
	}
}

func TestPolygonNativeData(t *testing.T) {
	city := testCity(t)
	// Data already at zip resolution aggregates at zip and city.
	d := &dataset.Dataset{
		Name: "permits", SpatialRes: spatial.ZipCode, TemporalRes: temporal.Day,
		Tuples: []dataset.Tuple{
			{Region: 0, TS: ts(2011, 1, 3, 0)},
			{Region: 1, TS: ts(2011, 1, 3, 0)},
			{Region: 0, TS: ts(2011, 1, 4, 0)},
		},
	}
	f, err := Compute(d, Spec{Kind: Density}, city, spatial.ZipCode, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	if f.Value(0, 0) != 1 || f.Value(1, 0) != 1 || f.Value(0, 1) != 1 {
		t.Error("zip-native density wrong")
	}
	cityF, err := Compute(d, Spec{Kind: Density}, city, spatial.City, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	if cityF.Value(0, 0) != 2 || cityF.Value(0, 1) != 1 {
		t.Error("zip->city aggregation wrong")
	}
}

func TestOutOfRangeRegionSkipped(t *testing.T) {
	city := testCity(t)
	d := &dataset.Dataset{
		Name: "odd", SpatialRes: spatial.ZipCode, TemporalRes: temporal.Day,
		Tuples: []dataset.Tuple{
			{Region: 0, TS: ts(2011, 1, 3, 0)},
			{Region: 10_000, TS: ts(2011, 1, 3, 0)}, // bogus region
		},
	}
	f, err := Compute(d, Spec{Kind: Density}, city, spatial.ZipCode, temporal.Day)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range f.Values {
		total += v
	}
	if total != 1 {
		t.Errorf("total density = %g, want 1 (bogus region skipped)", total)
	}
}

func TestOutsideCityPointsSkipped(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	d.Tuples = append(d.Tuples, dataset.Tuple{ID: 1, X: -100, Y: -100, Region: -1, TS: d.Tuples[0].TS, Values: []float64{1}})
	f, err := Compute(d, Spec{Kind: Density}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Value(0, 0) != 2 {
		t.Errorf("density = %g, want 2 (outside point skipped)", f.Value(0, 0))
	}
}

func TestSpecs(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	specs := Specs(d)
	if len(specs) != 3 { // density, unique, avg_fare
		t.Fatalf("Specs = %d, want 3", len(specs))
	}
	if specs[0].Name() != "density" || specs[1].Name() != "unique" || specs[2].Name() != "avg_fare" {
		t.Errorf("spec names: %s %s %s", specs[0].Name(), specs[1].Name(), specs[2].Name())
	}
	for i, want := range []string{"density", "unique", "attribute"} {
		if got := specs[i].Kind.String(); got != want {
			t.Errorf("spec %d kind = %q, want %q", i, got, want)
		}
	}
}

func TestKey(t *testing.T) {
	city := testCity(t)
	f, err := Compute(gpsDataset(t, city), Spec{Kind: Density}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f.Key() != "taxi/density@city,hour" {
		t.Errorf("Key = %q", f.Key())
	}
}

func TestCitySeries(t *testing.T) {
	city := testCity(t)
	f, err := Compute(gpsDataset(t, city), Spec{Kind: Density}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.CitySeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0] != 2 {
		t.Errorf("series = %v", s)
	}
	nb, err := Compute(gpsDataset(t, city), Spec{Kind: Density}, city, spatial.Neighborhood, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.CitySeries(); err == nil {
		t.Error("CitySeries should fail for non-city functions")
	}
}

func TestAddNoiseBounded(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	f, err := Compute(d, Spec{Kind: Density}, city, spatial.Neighborhood, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	frac := 0.5
	bound := frac * f.IQR()
	noisy := f.AddNoise(frac, 123)
	if noisy == f {
		t.Fatal("AddNoise must return a copy")
	}
	maxDelta := 0.0
	for v := range f.Values {
		maxDelta = math.Max(maxDelta, math.Abs(noisy.Values[v]-f.Values[v]))
	}
	if maxDelta > bound+1e-12 {
		t.Errorf("noise %g exceeds bound %g", maxDelta, bound)
	}
	// Zero fraction is a no-op.
	same := f.AddNoise(0, 5)
	for v := range f.Values {
		if same.Values[v] != f.Values[v] {
			t.Fatal("zero-noise copy should equal original")
		}
	}
}

func TestComputeOnTimelineShared(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	tl, err := temporal.NewTimeline(ts(2011, 1, 1, 0), ts(2011, 1, 1, 5), temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ComputeOnTimeline(d, Spec{Kind: Density}, city, spatial.City, temporal.Hour, tl)
	if err != nil {
		t.Fatal(err)
	}
	if f.Timeline.Len() != 6 {
		t.Errorf("timeline = %d steps, want 6", f.Timeline.Len())
	}
	if f.Value(0, 0) != 2 || f.Value(0, 5) != 0 {
		t.Error("shared-timeline values wrong")
	}
	// Mismatched resolution must fail.
	if _, err := ComputeOnTimeline(d, Spec{Kind: Density}, city, spatial.City, temporal.Day, tl); err == nil {
		t.Error("expected error for timeline/resolution mismatch")
	}
}

// TestBinnedMatchesComputeOnDomain: every function computed from one Bin
// and one Columns equals the one-off ComputeOnDomain, also when its Values
// buffer is a recycled one.
func TestBinnedMatchesComputeOnDomain(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	d.Tuples[1].Values[0] = dataset.Missing()
	tl, err := temporal.NewTimeline(ts(2011, 1, 1, 0), ts(2011, 1, 1, 5), temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stgraph.New(city.NumRegions(spatial.Neighborhood), tl.Len(), city.Adjacency(spatial.Neighborhood))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bin(d, city, spatial.Neighborhood, tl)
	if err != nil {
		t.Fatal(err)
	}
	cols := Columns(d)
	for _, spec := range Specs(d) {
		want, err := ComputeOnDomain(d, spec, city, spatial.Neighborhood, temporal.Hour, tl, g)
		if err != nil {
			t.Fatal(err)
		}
		var col []float64
		if spec.Kind == Attribute {
			col = cols[d.AttrIndex(spec.Attr)]
		}
		for round := 0; round < 2; round++ {
			got := b.Compute(spec, col, 0, tl, g)
			if !slices.Equal(got.Values, want.Values) || got.Key() != want.Key() {
				t.Fatalf("%s round %d: %v, want %v", spec.Name(), round, got.Values, want.Values)
			}
			got.Recycle()
		}
	}
}

func TestStats(t *testing.T) {
	city := testCity(t)
	f, err := Compute(gpsDataset(t, city), Spec{Kind: Density}, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	lo, mean, hi := f.Stats()
	if lo != 1 || hi != 2 || mean != 1.5 {
		t.Errorf("Stats = %g %g %g", lo, mean, hi)
	}
}

// Stats summarises a function: min, mean, max.
func (f *Function) Stats() (lo, mean, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f.Values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, mathx.Mean(f.Values), hi
}
