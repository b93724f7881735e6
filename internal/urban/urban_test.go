package urban

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/mathx"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func testCity(t testing.TB) *spatial.CityMap {
	t.Helper()
	c, err := spatial.Generate(spatial.Config{Seed: 3, GridW: 32, GridH: 32, Neighborhoods: 15, ZipCodes: 20})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func shortRange() (time.Time, time.Time) {
	// Six weeks around hurricane Irene.
	return time.Date(2011, time.August, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2011, time.September, 12, 0, 0, 0, 0, time.UTC)
}

func TestWeatherDeterministic(t *testing.T) {
	s, e := shortRange()
	a := GenerateWeather(5, s, e, DefaultHurricanes())
	b := GenerateWeather(5, s, e, DefaultHurricanes())
	for i := 0; i < a.Hours; i++ {
		if a.WindSpeed[i] != b.WindSpeed[i] || a.Precip[i] != b.Precip[i] {
			t.Fatal("same seed must generate identical weather")
		}
	}
}

func TestWeatherHurricaneWind(t *testing.T) {
	s, e := shortRange()
	w := GenerateWeather(5, s, e, DefaultHurricanes())
	var normal, hurricane []float64
	for i := 0; i < w.Hours; i++ {
		if w.HurricaneAt[i] {
			hurricane = append(hurricane, w.WindSpeed[i])
		} else {
			normal = append(normal, w.WindSpeed[i])
		}
	}
	if len(hurricane) == 0 {
		t.Fatal("Irene should fall inside the window")
	}
	if mathx.Mean(hurricane) < 3*mathx.Mean(normal) {
		t.Errorf("hurricane wind %.1f should dwarf normal %.1f",
			mathx.Mean(hurricane), mathx.Mean(normal))
	}
	for _, v := range hurricane {
		if v < 40 {
			t.Errorf("hurricane hour wind %.1f below 40mph", v)
		}
	}
}

func TestWeatherPhysicalRanges(t *testing.T) {
	s, e := shortRange()
	w := GenerateWeather(7, s, e, nil)
	for i := 0; i < w.Hours; i++ {
		if w.Precip[i] < 0 || w.SnowPrecip[i] < 0 || w.SnowDepth[i] < 0 {
			t.Fatal("precipitation and snow must be non-negative")
		}
		if w.WindSpeed[i] < 0 {
			t.Fatal("wind must be non-negative")
		}
		if w.Visibility[i] <= 0 || w.Visibility[i] > 12 {
			t.Fatalf("visibility %g out of range", w.Visibility[i])
		}
	}
}

func TestWeatherSnowOnlyWhenCold(t *testing.T) {
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2011, time.December, 31, 0, 0, 0, 0, time.UTC)
	w := GenerateWeather(11, start, end, nil)
	snowHours := 0
	for i := 0; i < w.Hours; i++ {
		if w.SnowPrecip[i] > 0 {
			snowHours++
			if w.Temperature[i] >= 34 {
				t.Fatalf("snow at %g degF", w.Temperature[i])
			}
		}
	}
	if snowHours == 0 {
		t.Error("a full year should include snow")
	}
}

func TestWeatherStepOf(t *testing.T) {
	s, e := shortRange()
	w := GenerateWeather(5, s, e, nil)
	if w.StepOf(s.Unix()) != 0 {
		t.Error("StepOf(start) != 0")
	}
	if w.StepOf(s.Unix()+3*3600+100) != 3 {
		t.Error("StepOf mid-hour wrong")
	}
	if w.StepOf(s.Unix()-1) != -1 || w.StepOf(e.Unix()+3600) != -1 {
		t.Error("out-of-range timestamps should return -1")
	}
}

func TestWeatherDatasetShape(t *testing.T) {
	s, e := shortRange()
	w := GenerateWeather(5, s, e, nil)
	d := w.WeatherDataset(6)
	if _, err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Tuples) != w.Hours {
		t.Errorf("tuples = %d, want %d (one per hour)", len(d.Tuples), w.Hours)
	}
	if d.NumScalarFunctions() != 228 {
		t.Errorf("weather scalar functions = %d, want 228 (Table 1)", d.NumScalarFunctions())
	}
	if d.AttrIndex("wind_speed") != 2 || d.AttrIndex("precipitation") != 1 {
		t.Error("real attribute order wrong")
	}
}

func TestActivityDiurnalAndHoliday(t *testing.T) {
	start := time.Date(2011, time.November, 1, 0, 0, 0, 0, time.UTC)
	a := GenerateActivity(4, start, 24*40) // covers Thanksgiving 2011-11-24
	// Evening (7pm) must exceed early morning (4am) on a regular day.
	day := 7 // Nov 8, a Tuesday
	if a.Level[day*24+19] <= a.Level[day*24+4] {
		t.Error("evening activity should exceed 4am activity")
	}
	// Thanksgiving dip.
	thanksgiving := 23 // Nov 24
	found := false
	for h := 0; h < 24; h++ {
		if a.HolidayAt[thanksgiving*24+h] {
			found = true
		}
	}
	if !found {
		t.Error("Thanksgiving 2011-11-24 not marked as holiday")
	}
	var holidayMean, normalMean []float64
	for i, l := range a.Level {
		if a.HolidayAt[i] {
			holidayMean = append(holidayMean, l)
		} else {
			normalMean = append(normalMean, l)
		}
	}
	if mathx.Mean(holidayMean) >= mathx.Mean(normalMean)*0.8 {
		t.Error("holiday activity should dip well below normal")
	}
}

func TestHotspotSamplerInCity(t *testing.T) {
	city := testCity(t)
	s := NewHotspotSampler(9, city, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := s.Sample(rng)
		if city.Locate(p) < 0 {
			t.Fatalf("sampled point %v outside the city", p)
		}
	}
}

func TestHotspotSamplerClusters(t *testing.T) {
	// Hot spots must concentrate mass: the most popular decile of cells
	// should receive far more than 10% of samples.
	city := testCity(t)
	s := NewHotspotSampler(9, city, 4)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, city.NumCells())
	n := 20000
	for i := 0; i < n; i++ {
		counts[city.Locate(s.Sample(rng))]++
	}
	sorted := append([]int{}, counts...)
	// partial selection: simple sort
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	top := 0
	tenth := len(sorted) / 10
	for i := 0; i < tenth; i++ {
		top += sorted[i]
	}
	if frac := float64(top) / float64(n); frac < 0.15 {
		t.Errorf("top decile holds %.2f of samples, want >= 0.15 (clustering beats uniform 0.10)", frac)
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive lambda must give 0")
	}
	for _, lambda := range []float64{0.5, 4, 25, 100} {
		n := 5000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(Poisson(rng, lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > lambda*0.15+0.2 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
	}
}

func TestGasSeries(t *testing.T) {
	s, e := shortRange()
	g := GenerateGas(5, s, e)
	if g.Weeks < 6 {
		t.Fatalf("weeks = %d", g.Weeks)
	}
	for _, p := range g.Price {
		if p < 2 || p > 6 {
			t.Errorf("price %g out of plausible range", p)
		}
	}
	if g.Norm(s.Unix()) < 0 || g.Norm(s.Unix()) > 1 {
		t.Error("Norm out of range")
	}
	d := g.Dataset()
	if _, err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumScalarFunctions() != 2 {
		t.Errorf("gas scalar functions = %d, want 2", d.NumScalarFunctions())
	}
	// PriceAt clamps out-of-range timestamps.
	if g.PriceAt(s.Unix()-1e6) != g.Price[0] {
		t.Error("PriceAt before start should clamp")
	}
}

func TestTaxiGeneratorShape(t *testing.T) {
	city := testCity(t)
	s, e := shortRange()
	w := GenerateWeather(5, s, e, DefaultHurricanes())
	a := GenerateActivity(6, s, w.Hours)
	g := GenerateGas(7, s, e)
	sp := SpeedSeries(8, w, a)
	d := GenerateTaxi(TaxiConfig{Seed: 9, Scale: 0.5}, city, w, a, g, sp)
	if _, err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumScalarFunctions() != 13 {
		t.Errorf("taxi scalar functions = %d, want 13 (Table 1)", d.NumScalarFunctions())
	}
	if len(d.Tuples) < 1000 {
		t.Fatalf("too few taxi tuples: %d", len(d.Tuples))
	}
	// All points must be inside the city, timestamps inside the window.
	for _, tup := range d.Tuples[:500] {
		if city.Locate(spatial.Point{X: tup.X, Y: tup.Y}) < 0 {
			t.Fatal("taxi trip outside city")
		}
		if tup.TS < s.Unix() || tup.TS >= e.Unix() {
			t.Fatal("taxi trip outside time window")
		}
	}
}

func TestTaxiHurricaneCollapse(t *testing.T) {
	city := testCity(t)
	s, e := shortRange()
	w := GenerateWeather(5, s, e, DefaultHurricanes())
	a := GenerateActivity(6, s, w.Hours)
	g := GenerateGas(7, s, e)
	sp := SpeedSeries(8, w, a)
	d := GenerateTaxi(TaxiConfig{Seed: 9, Scale: 2}, city, w, a, g, sp)

	perHour := make([]int, w.Hours)
	for _, tup := range d.Tuples {
		perHour[w.StepOf(tup.TS)]++
	}
	var hur, normal []float64
	for i, c := range perHour {
		if w.HurricaneAt[i] {
			hur = append(hur, float64(c))
		} else {
			normal = append(normal, float64(c))
		}
	}
	if mathx.Mean(hur) > 0.2*mathx.Mean(normal) {
		t.Errorf("hurricane trips %.1f/hr should collapse vs normal %.1f/hr",
			mathx.Mean(hur), mathx.Mean(normal))
	}
}

func TestCollectionGenerate(t *testing.T) {
	s, e := shortRange()
	col, err := Generate(Config{Seed: 21, City: testCity(t), Start: s, End: e, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Datasets) != 9 {
		t.Fatalf("datasets = %d, want 9 (Table 1)", len(col.Datasets))
	}
	wantSF := map[string]int{
		"gas_prices": 2, "collisions": 11, "complaints_311": 1, "calls_911": 1,
		"citibike": 5, "weather": 228, "traffic_speed": 2, "taxi": 13, "twitter": 5,
	}
	for _, d := range col.Datasets {
		if got := d.NumScalarFunctions(); got != wantSF[d.Name] {
			t.Errorf("%s scalar functions = %d, want %d", d.Name, got, wantSF[d.Name])
		}
	}
	if col.Dataset("taxi") == nil || col.Dataset("nope") != nil {
		t.Error("Dataset lookup broken")
	}
	order := col.IndexingOrder()
	if len(order) != 9 || order[3].Name != "taxi" || order[7].Name != "weather" {
		t.Error("IndexingOrder must place taxi 4th and weather 8th (Figure 8)")
	}
	rows := col.Table1()
	if len(rows) != 9 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Records == 0 && r.Name != "gas_prices" {
			t.Errorf("%s has zero records", r.Name)
		}
		if r.PaperRecords == "" {
			t.Errorf("%s missing paper record count", r.Name)
		}
	}
}

func TestCollectionConfigErrors(t *testing.T) {
	s, _ := shortRange()
	if _, err := Generate(Config{Seed: 1, Start: s, End: s}); err == nil {
		t.Error("expected error for empty time window")
	}
}

func TestBikeSnowBehaviour(t *testing.T) {
	city := testCity(t)
	// Winter window with snow.
	s := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	e := time.Date(2011, time.March, 15, 0, 0, 0, 0, time.UTC)
	w := GenerateWeather(31, s, e, nil)
	a := GenerateActivity(32, s, w.Hours)
	d := GenerateBike(33, 2, city, w, a)
	if _, err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Active stations must dip on heavy-snow-depth days.
	var snowy, clear []float64
	si := d.AttrIndex("active_stations")
	for _, tup := range d.Tuples {
		step := w.StepOf(tup.TS)
		if w.DailySnowDepth(step) > 4 {
			snowy = append(snowy, tup.Values[si])
		} else if w.SnowDepth[step] == 0 {
			clear = append(clear, tup.Values[si])
		}
	}
	if len(snowy) > 5 && len(clear) > 5 && mathx.Mean(snowy) >= mathx.Mean(clear) {
		t.Errorf("active stations in snow (%.0f) should be below clear days (%.0f)",
			mathx.Mean(snowy), mathx.Mean(clear))
	}
}

func TestGenerateOpenCorpus(t *testing.T) {
	city := testCity(t)
	s, e := shortRange()
	ds, err := GenerateOpen(OpenConfig{Seed: 44, N: 25, City: city, Start: s, End: e})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 25 {
		t.Fatalf("open datasets = %d, want 25", len(ds))
	}
	totalAttrs := 0
	for _, d := range ds {
		if _, err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(d.Tuples) == 0 {
			t.Errorf("%s is empty", d.Name)
		}
		totalAttrs += len(d.Attrs)
	}
	if avg := float64(totalAttrs) / 25; avg < 4 || avg > 12 {
		t.Errorf("average attrs = %.1f, want ~8 (paper)", avg)
	}
	if _, err := GenerateOpen(OpenConfig{Seed: 1, N: 5}); err == nil {
		t.Error("expected error when City is nil")
	}
}

// TestGenerateOpenTruth checks the open corpus's labels: asking for them
// leaves the corpus unchanged, every attribute has one, each is noise or a
// named latent with sign ±1, and about a third of the attributes track a
// latent.
func TestGenerateOpenTruth(t *testing.T) {
	city := testCity(t)
	s, e := shortRange()
	plain, err := GenerateOpen(OpenConfig{Seed: 44, N: 25, City: city, Start: s, End: e})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]Label{}
	labelled, err := GenerateOpen(OpenConfig{Seed: 44, N: 25, City: city, Start: s, End: e, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, labelled) {
		t.Fatal("asking for the truth changed the generated corpus")
	}
	latents := []string{"precip", "temperature", "wind", "snow", "activity"}
	attrs, signal := 0, 0
	for _, d := range labelled {
		for _, a := range d.Attrs {
			attrs++
			l, ok := truth[d.Name+"/"+a]
			switch {
			case !ok:
				t.Fatalf("%s/%s has no label", d.Name, a)
			case l.Noise() && l.Sign != 0:
				t.Errorf("%s/%s: noise with sign %d", d.Name, a, l.Sign)
			case !l.Noise() && (!slices.Contains(latents, l.Latent) || l.Sign*l.Sign != 1):
				t.Errorf("%s/%s: label %+v", d.Name, a, l)
			case !l.Noise():
				signal++
			}
		}
	}
	if len(truth) != attrs {
		t.Errorf("%d labels for %d attributes", len(truth), attrs)
	}
	if share := float64(signal) / float64(attrs); share < 0.2 || share > 0.5 {
		t.Errorf("%.2f of attributes track a latent, want about 0.35", share)
	}
}

func TestSpeedSeriesRange(t *testing.T) {
	s, e := shortRange()
	w := GenerateWeather(5, s, e, nil)
	a := GenerateActivity(6, s, w.Hours)
	sp := SpeedSeries(7, w, a)
	if len(sp) != w.Hours {
		t.Fatal("speed series length mismatch")
	}
	for _, v := range sp {
		if v < 3 || v > 30 {
			t.Errorf("speed %g implausible", v)
		}
	}
}

func TestHurricaneDefaults(t *testing.T) {
	hs := DefaultHurricanes()
	if len(hs) != 2 || hs[0].Name != "Irene" || hs[1].Name != "Sandy" {
		t.Fatal("expected Irene and Sandy")
	}
	if hs[0].Start.Year() != 2011 || hs[1].Start.Year() != 2012 {
		t.Error("hurricane years wrong")
	}
}

func TestWeatherAttrNames(t *testing.T) {
	names := WeatherAttrNames()
	if len(names) != 227 {
		t.Fatalf("attr names = %d, want 227", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate attribute %q", n)
		}
		seen[n] = true
	}
}

func TestComplaintsShape(t *testing.T) {
	city := testCity(t)
	s, e := shortRange()
	w := GenerateWeather(5, s, e, nil)
	a := GenerateActivity(6, s, w.Hours)
	sampler := NewHotspotSampler(7, city, 4)
	d := GenerateComplaints("complaints_311", 8, 3, 1.2, 0.5, w, a, sampler)
	if _, err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumScalarFunctions() != 1 {
		t.Errorf("311 scalar functions = %d, want 1", d.NumScalarFunctions())
	}
}

func TestTimelineCompatibility(t *testing.T) {
	// Generated tuples must bin into an hourly timeline without loss.
	city := testCity(t)
	s, e := shortRange()
	col, err := Generate(Config{Seed: 50, City: city, Start: s, End: e, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := temporal.NewTimeline(s.Unix(), e.Unix()-1, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range col.Datasets {
		for _, tup := range d.Tuples {
			if tl.Index(tup.TS) < 0 {
				t.Fatalf("%s tuple at %d outside timeline", d.Name, tup.TS)
			}
		}
	}
}
