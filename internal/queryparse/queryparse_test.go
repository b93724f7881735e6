package queryparse

import (
	"reflect"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func TestParseMinimal(t *testing.T) {
	q, err := Parse("find relationships between taxi and weather")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Sources) != 1 || q.Sources[0] != "taxi" {
		t.Errorf("sources = %v", q.Sources)
	}
	if len(q.Targets) != 1 || q.Targets[0] != "weather" {
		t.Errorf("targets = %v", q.Targets)
	}
}

func TestParseAll(t *testing.T) {
	q, err := Parse("find relationships between all")
	if err != nil {
		t.Fatal(err)
	}
	if q.Sources != nil || q.Targets != nil {
		t.Errorf("all should leave collections nil: %v %v", q.Sources, q.Targets)
	}
	q, err = Parse("find relationships between taxi and all")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Sources) != 1 || q.Targets != nil {
		t.Errorf("taxi-and-all parsed wrong: %v %v", q.Sources, q.Targets)
	}
}

func TestParseNameList(t *testing.T) {
	q, err := Parse("find relationships between taxi, citibike and weather, gas_prices")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Sources) != 2 || q.Sources[1] != "citibike" {
		t.Errorf("sources = %v", q.Sources)
	}
	if len(q.Targets) != 2 || q.Targets[0] != "weather" {
		t.Errorf("targets = %v", q.Targets)
	}
}

func TestParseWhere(t *testing.T) {
	q, err := Parse("find relationships between taxi and all where score >= 0.6 and strength >= 0.3 and alpha = 0.01 and permutations = 500")
	if err != nil {
		t.Fatal(err)
	}
	c := q.Clause
	if c.MinScore != 0.6 || c.MinStrength != 0.3 || c.Alpha != 0.01 || c.Permutations != 500 {
		t.Errorf("clause = %+v", c)
	}
}

// TestParseTestKind: "test = restricted" names the one test the engine runs
// and parses to the default clause; the standard and block tests were
// removed, and naming one fails with an error that says so.
func TestParseTestKind(t *testing.T) {
	q, err := Parse("find relationships between a and b where test = restricted")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Clause, core.Clause{}) {
		t.Errorf("test = restricted parsed to %+v, want the default clause", q.Clause)
	}
	for _, kind := range []string{"standard", "block"} {
		_, err := Parse("find relationships between a and b where test = " + kind)
		if err == nil || !strings.Contains(err.Error(), "the "+kind+" test was removed") {
			t.Errorf("test = %s: err = %v, want one saying the %s test was removed", kind, err, kind)
		}
	}
}

func TestParseCorrection(t *testing.T) {
	q, err := Parse("find relationships between a and b where correction = bh and qvalue <= 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Clause.Correction != stats.BH {
		t.Errorf("Correction = %v, want BH", q.Clause.Correction)
	}
	if q.Clause.MaxQ != 0.1 {
		t.Errorf("MaxQ = %v, want 0.1", q.Clause.MaxQ)
	}
	q, err = Parse("find relationships between a and b where correction = by")
	if err != nil {
		t.Fatal(err)
	}
	if q.Clause.Correction != stats.BY {
		t.Errorf("Correction = %v, want BY", q.Clause.Correction)
	}
	q, err = Parse("find relationships between a and b where correction = none")
	if err != nil {
		t.Fatal(err)
	}
	if q.Clause.Correction != stats.None {
		t.Errorf("Correction = %v, want None", q.Clause.Correction)
	}
}

func TestParseWindow(t *testing.T) {
	q, err := Parse("find relationships between taxi and weather between 2012-06-01 and 2012-08-31")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Clause.Windowed || q.Clause.WindowFrom != 1338508800 || q.Clause.WindowTo != 1346371200 {
		t.Errorf("window = %+v", q.Clause)
	}
	if len(q.Sources) != 1 || q.Sources[0] != "taxi" || len(q.Targets) != 1 || q.Targets[0] != "weather" {
		t.Errorf("collections = %v %v", q.Sources, q.Targets)
	}
	q, err = Parse("find relationships between all between 1338508800 and 2012-06-01T15:30:00Z where score >= 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Clause.Windowed || q.Clause.WindowFrom != 1338508800 || q.Clause.WindowTo != 1338564600 {
		t.Errorf("window = %+v", q.Clause)
	}
	if q.Clause.MinScore != 0.5 {
		t.Errorf("where clause lost next to the window: %+v", q.Clause)
	}
	for _, bad := range []string{
		"find relationships between a and b between 2012-06-01",        // one bound
		"find relationships between a and b between noon and midnight", // not timestamps
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseResolutions(t *testing.T) {
	q, err := Parse("find relationships between taxi and weather at (hour, city), (day, neighborhood)")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Resolution{
		{Spatial: spatial.City, Temporal: temporal.Hour},
		{Spatial: spatial.Neighborhood, Temporal: temporal.Day},
	}
	if len(q.Clause.Resolutions) != 2 || q.Clause.Resolutions[0] != want[0] || q.Clause.Resolutions[1] != want[1] {
		t.Errorf("resolutions = %v", q.Clause.Resolutions)
	}
}

func TestParseClasses(t *testing.T) {
	q, err := Parse("find relationships between taxi and weather using extreme features")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Clause.Classes) != 1 || q.Clause.Classes[0] != feature.Extreme {
		t.Errorf("classes = %v", q.Clause.Classes)
	}
	q, err = Parse("find relationships between taxi and weather using salient and extreme features")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Clause.Classes) != 2 {
		t.Errorf("classes = %v", q.Clause.Classes)
	}
}

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(`find relationships between taxi and weather
		where score >= 0.5 and permutations = 200
		at (hour, city)
		using extreme features`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Clause.MinScore != 0.5 || q.Clause.Permutations != 200 {
		t.Errorf("clause = %+v", q.Clause)
	}
	if len(q.Clause.Resolutions) != 1 || len(q.Clause.Classes) != 1 {
		t.Errorf("resolutions/classes = %v %v", q.Clause.Resolutions, q.Clause.Classes)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	if _, err := Parse("FIND RELATIONSHIPS BETWEEN Taxi AND Weather"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"relationships between a and b",
		"find relationships between",
		"find relationships between a and b where score = ",
		"find relationships between a and b where bogus >= 1",
		"find relationships between a and b where score == 1 extra",
		"find relationships between a and b where alpha >= 0.05",
		"find relationships between a and b where permutations >= 100",
		"find relationships between a and b where test = fancy",
		"find relationships between a and b where correction = bonferroni",
		"find relationships between a and b where correction >= bh",
		"find relationships between a and b where qvalue >= 0.1",
		"find relationships between a and b where permutations = 2.5",
		"find relationships between a and b where permutations = 1e300",
		"find relationships between a and b at hour city",
		"find relationships between a and b at (fortnight, city)",
		"find relationships between a and b at (hour, borough)",
		"find relationships between a and b at (hour)",
		"find relationships between a and b using magic features",
		"find relationships between a and b using features",
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// TestFormatExamples pins the rendered form of a representative query.
func TestFormatExamples(t *testing.T) {
	cases := []struct {
		q    core.Query
		want string
	}{
		{core.Query{}, "find relationships between all and all"},
		{core.Query{Sources: []string{"taxi"}, Targets: []string{"weather"}},
			"find relationships between taxi and weather"},
		{
			core.Query{
				Sources: []string{"taxi", "citibike"},
				Clause: core.Clause{
					MinScore:     0.6,
					MinStrength:  0.3,
					Permutations: 500,
					Resolutions: []core.Resolution{
						{Spatial: spatial.City, Temporal: temporal.Hour},
					},
					Classes: []feature.Class{feature.Extreme},
				},
			},
			"find relationships between taxi, citibike and all" +
				" where score >= 0.6 and strength >= 0.3 and permutations = 500" +
				" at (hour, city) using extreme features",
		},
	}
	for _, c := range cases {
		if got := Format(c.q); got != c.want {
			t.Errorf("Format = %q\nwant     %q", got, c.want)
		}
	}
}

// matrixQueries enumerates the representable-query matrix shared by the
// round-trip property test and the FuzzParse seed corpus: every
// combination of collections, clause thresholds, corrections, resolutions,
// feature classes and time windows the grammar can express.
func matrixQueries() []core.Query {
	hourCity := core.Resolution{Spatial: spatial.City, Temporal: temporal.Hour}
	dayNbhd := core.Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Day}
	weekZip := core.Resolution{Spatial: spatial.ZipCode, Temporal: temporal.Week}

	sourceOpts := [][]string{nil, {"taxi"}, {"taxi", "citibike"}}
	targetOpts := [][]string{nil, {"weather"}, {"weather", "gas_prices"}}
	scoreOpts := []float64{0, 0.6, 0.125}
	strengthOpts := []float64{0, 0.3}
	alphaOpts := []float64{0, 0.01}
	permOpts := []int{0, 250}
	corrOpts := []stats.Correction{stats.None, stats.BH, stats.BY}
	maxQOpts := []float64{0, 0.2}
	type window struct {
		on       bool
		from, to int64
	}
	windowOpts := []window{
		{},
		{on: true, from: 1338508800, to: 1346371200}, // 2012-06-01 .. 2012-08-31 (date form)
		{on: true, from: 1338512400, to: 1338512405}, // mid-day instants (date-time form)
	}
	resOpts := [][]core.Resolution{nil, {hourCity}, {hourCity, dayNbhd, weekZip}}
	classOpts := [][]feature.Class{
		nil,
		{feature.Salient},
		{feature.Extreme},
		{feature.Salient, feature.Extreme},
	}

	var out []core.Query
	for _, sources := range sourceOpts {
		for _, targets := range targetOpts {
			for _, score := range scoreOpts {
				for _, strength := range strengthOpts {
					for _, alpha := range alphaOpts {
						for _, perms := range permOpts {
							for _, corr := range corrOpts {
								for _, maxQ := range maxQOpts {
									for _, res := range resOpts {
										for _, classes := range classOpts {
											for _, win := range windowOpts {
												out = append(out, core.Query{
													Sources: sources,
													Targets: targets,
													Clause: core.Clause{
														MinScore:     score,
														MinStrength:  strength,
														Alpha:        alpha,
														Permutations: perms,
														Correction:   corr,
														MaxQ:         maxQ,
														Resolutions:  res,
														Classes:      classes,
														Windowed:     win.on,
														WindowFrom:   win.from,
														WindowTo:     win.to,
													},
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestFormatParseRoundTrip is the property test over the clause matrix:
// for every representable query, Parse(Format(q)) must reproduce q
// exactly — same collections, same clause, field for field.
func TestFormatParseRoundTrip(t *testing.T) {
	qs := matrixQueries()
	for _, q := range qs {
		text := Format(q)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("round trip through %q:\n got %+v\nwant %+v", text, got, q)
		}
	}
	if len(qs) < 1000 {
		t.Errorf("clause matrix covered only %d combinations", len(qs))
	}
}
