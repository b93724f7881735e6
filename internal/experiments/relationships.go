package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/urbandata/datapolygamy/internal/baselines"
	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// pruningRow is Figure 11 for one corpus at (week, city): the possible
// relationships, those with feature relations, and the significant ones
// overall and above two |tau| floors.
type pruningRow struct {
	title                     string
	possible, evaluated       int
	significant, tau06, tau08 int
}

// pruned is the share of possible relationships that keeping only n of
// them prunes.
func (r pruningRow) pruned(n int) float64 {
	return 1 - float64(n)/float64(max(1, r.possible))
}

// pruning measures Figure 11 on the NYC Urban and NYC Open corpora.
func pruning(e *Env) ([]pruningRow, error) {
	weekCity := []core.Resolution{{Spatial: spatial.City, Temporal: temporal.Week}}
	measure := func(title string, fw *core.Framework) (pruningRow, error) {
		_, all, err := fw.Query(core.Query{Clause: core.Clause{
			SkipSignificance: true, Resolutions: weekCity,
		}})
		if err != nil {
			return pruningRow{}, err
		}
		sig, sstats, err := fw.Query(core.Query{Clause: core.Clause{
			Permutations: e.Cfg.Permutations, Resolutions: weekCity,
		}})
		if err != nil {
			return pruningRow{}, err
		}
		count := func(min float64) int {
			n := 0
			for _, r := range sig {
				if math.Abs(r.Score) >= min {
					n++
				}
			}
			return n
		}
		return pruningRow{title, all.PairsConsidered, all.Evaluated,
			sstats.Significant, count(0.6), count(0.8)}, nil
	}
	fw, err := e.Framework()
	if err != nil {
		return nil, err
	}
	urbanRow, err := measure("Figure 11(a): NYC Urban pruning at (week, city)", fw)
	if err != nil {
		return nil, err
	}
	open, err := e.Open()
	if err != nil {
		return nil, err
	}
	ofw, err := newFramework(e, open...)
	if err != nil {
		return nil, err
	}
	if _, err := ofw.BuildIndex(); err != nil {
		return nil, err
	}
	openRow, err := measure("Figure 11(b): NYC Open pruning at (week, city)", ofw)
	if err != nil {
		return nil, err
	}
	return []pruningRow{urbanRow, openRow}, nil
}

// RunFigure11 reproduces Figure 11: relationship pruning at the
// (week, city) resolution — possible relationships vs statistically
// significant ones, and the further reduction from tau filters.
func RunFigure11(e *Env, w io.Writer) error {
	rows, err := pruning(e)
	if err != nil {
		return err
	}
	for _, r := range rows {
		section(w, r.title)
		fmt.Fprintf(w, "possible relationships:      %8d\n", r.possible)
		fmt.Fprintf(w, "with feature relations:      %8d\n", r.evaluated)
		fmt.Fprintf(w, "statistically significant:   %8d  (pruned %.2f%%)\n",
			r.significant, 100*r.pruned(r.significant))
		fmt.Fprintf(w, "significant with |tau|>=0.6: %8d  (pruned %.2f%%)\n", r.tau06, 100*r.pruned(r.tau06))
		fmt.Fprintf(w, "significant with |tau|>=0.8: %8d  (pruned %.2f%%)\n", r.tau08, 100*r.pruned(r.tau08))
	}
	fmt.Fprintln(w, "paper: 9,745 -> 137 (98.6%) for Urban; 2M -> 22,327 (98.9%) for Open")
	return nil
}

// expectation is one Section 6.3 finding to reproduce.
type expectation struct {
	label      string
	ds1, spec1 string
	ds2, spec2 string
	res        core.Resolution
	class      feature.Class
	paperTau   string
	wantSign   int  // +1, -1, or 0 (no expectation)
	wantAbsent bool // paper found no significant relationship
}

func cityRes(tr temporal.Resolution) core.Resolution {
	return core.Resolution{Spatial: spatial.City, Temporal: tr}
}

// sectionExpectations lists the paper's Section 6.3 / Appendix E.2
// findings that the synthetic corpus plants.
func sectionExpectations() []expectation {
	nbhdHour := core.Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Hour}
	return []expectation{
		{"precipitation ~ taxi trips", "weather", "avg_precipitation", "taxi", "density",
			cityRes(temporal.Hour), feature.Salient, "-0.62", -1, false},
		{"precipitation ~ avg fare", "weather", "avg_precipitation", "taxi", "avg_fare",
			cityRes(temporal.Hour), feature.Salient, "+0.73", +1, false},
		// At laptop scale, hourly night counts and hurricane counts are
		// both near zero (Poisson discreteness), so the extreme-feature
		// relationship is evaluated at daily resolution where the
		// hurricane collapse is an unambiguous outlier.
		{"wind speed ~ taxi trips (extreme)", "weather", "avg_wind_speed", "taxi", "density",
			cityRes(temporal.Day), feature.Extreme, "-1.00 (rho 0.13)", -1, false},
		{"snow precip ~ bike duration", "weather", "avg_snow_precip", "citibike", "avg_duration_min",
			cityRes(temporal.Hour), feature.Salient, "+0.61", +1, false},
		{"snow precip ~ active stations (day)", "weather", "avg_snow_precip", "citibike", "avg_active_stations",
			cityRes(temporal.Day), feature.Salient, "-0.88", -1, false},
		{"rainfall ~ motorists killed", "weather", "avg_precipitation", "collisions", "avg_motorists_killed",
			cityRes(temporal.Hour), feature.Salient, "+0.90", +1, false},
		{"rainfall ~ pedestrians injured", "weather", "avg_precipitation", "collisions", "avg_pedestrians_injured",
			cityRes(temporal.Hour), feature.Salient, "+0.75", +1, false},
		{"taxi trips ~ traffic speed", "taxi", "density", "traffic_speed", "avg_speed_mph",
			cityRes(temporal.Hour), feature.Salient, "-0.90", -1, false},
		{"avg fare ~ traffic speed", "taxi", "avg_fare", "traffic_speed", "avg_speed_mph",
			nbhdHour, feature.Salient, "+0.79", +1, false},
		// Laptop-scale streams are too sparse at (hour, neighborhood) for
		// the density pairs; Appendix E.2 reports the same relationships
		// at coarser resolutions, which we reproduce instead.
		{"collisions ~ 311 complaints", "collisions", "density", "complaints_311", "density",
			core.Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Day},
			feature.Salient, "+0.84 (E.2)", +1, false},
		{"collisions ~ 911 calls", "collisions", "density", "calls_911", "density",
			core.Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Day},
			feature.Salient, "+0.94 (E.2)", +1, false},
		{"collisions ~ taxi trips", "collisions", "density", "taxi", "density",
			core.Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Week},
			feature.Salient, "+0.99 (E.2)", +1, false},
		{"avg fare ~ gas price (month)", "taxi", "avg_fare", "gas_prices", "avg_price",
			cityRes(temporal.Month), feature.Salient, "+1.00", +1, false},
		{"311 ~ 911 (day)", "complaints_311", "density", "calls_911", "density",
			cityRes(temporal.Day), feature.Salient, "+0.92", +1, false},
	}
}

// entry returns the index entry of data set ds's function spec at res, or
// nil.
func entry(fw *core.Framework, ds string, res core.Resolution, spec string) *core.FunctionEntry {
	for _, c := range fw.Entries(ds, res) {
		if c.SpecName == spec {
			return c
		}
	}
	return nil
}

// findRelationship evaluates one function pair directly from the index.
func findRelationship(fw *core.Framework, ex expectation, perms int, seed int64) (relationship.Measures, montecarlo.Result, bool) {
	e1, e2 := entry(fw, ex.ds1, ex.res, ex.spec1), entry(fw, ex.ds2, ex.res, ex.spec2)
	if e1 == nil || e2 == nil {
		return relationship.Measures{}, montecarlo.Result{}, false
	}
	var s1, s2 *feature.Set
	if ex.class == feature.Salient {
		s1, s2 = e1.Salient, e2.Salient
	} else {
		s1, s2 = e1.Extreme, e2.Extreme
	}
	m := relationship.Evaluate(s1, s2)
	g, ok := fw.Graph(ex.res)
	if !ok {
		return m, montecarlo.Result{}, false
	}
	res := montecarlo.Test(s1, s2, g, m.Tau, montecarlo.Config{Permutations: perms, Seed: seed})
	return m, res, true
}

// RunInteresting reproduces the Section 6.3 findings table: for each of the
// paper's reported relationships, the measured tau/rho/p on the synthetic
// corpus, checking that signs match.
func RunInteresting(e *Env, w io.Writer) error {
	fw, err := e.Framework()
	if err != nil {
		return err
	}
	section(w, "Section 6.3: interesting relationships (paper sign vs measured)")
	fmt.Fprintf(w, "%-38s %-14s %-8s %16s %7s %7s %7s %5s %5s\n",
		"relationship", "resolution", "class", "paper tau", "tau", "rho", "p", "sig", "sign")
	okCount, total := 0, 0
	for i, ex := range sectionExpectations() {
		m, res, found := findRelationship(fw, ex, e.Cfg.Permutations, e.Cfg.Seed+int64(i))
		if !found {
			fmt.Fprintf(w, "%-38s %-14s %-8s %16s %7s\n", ex.label, ex.res, ex.class, ex.paperTau, "n/a")
			continue
		}
		signOK := (ex.wantSign > 0 && m.Tau > 0) || (ex.wantSign < 0 && m.Tau < 0) || ex.wantSign == 0
		mark := "OK"
		if !signOK {
			mark = "MISS"
		}
		total++
		if signOK {
			okCount++
		}
		fmt.Fprintf(w, "%-38s %-14s %-8s %16s %7.2f %7.2f %7.3f %5v %5s\n",
			ex.label, ex.res, ex.class, ex.paperTau, m.Tau, m.Rho, res.PValue, res.Significant, mark)
	}
	fmt.Fprintf(w, "sign agreement with the paper: %d/%d\n", okCount, total)
	return nil
}

// taxRow is one fare-tax relationship of the significance study.
type taxRow struct {
	spec string
	m    relationship.Measures
	mc   montecarlo.Result
}

// significanceStudy is the Section 6.3 significance-test study: the fare
// tax, white noise by construction, against four weather attributes at
// (hour, city), and the relationships at (week, city) with |tau| >= 0.6
// that the test prunes, strongest first.
type significanceStudy struct {
	tax    []taxRow
	pruned []core.Relationship
}

// significance runs the Section 6.3 significance-test study: attributes
// with no causal link (the taxi fare tax) yield relationships the
// restricted test prunes, and so are relationships with a high score.
func significance(e *Env) (significanceStudy, error) {
	var st significanceStudy
	fw, err := e.Framework()
	if err != nil {
		return st, err
	}
	res := cityRes(temporal.Hour)
	tax := entry(fw, "taxi", res, "avg_tax")
	if tax == nil {
		return st, fmt.Errorf("experiments: avg_tax entry missing")
	}
	g, _ := fw.Graph(res)
	for i, wsName := range []string{"avg_precipitation", "avg_wind_speed", "avg_temperature", "avg_visibility"} {
		we := entry(fw, "weather", res, wsName)
		if we == nil {
			continue
		}
		m := relationship.Evaluate(tax.Salient, we.Salient)
		mc := montecarlo.Test(tax.Salient, we.Salient, g, m.Tau,
			montecarlo.Config{Permutations: e.Cfg.Permutations, Seed: e.Cfg.Seed + int64(i)})
		st.tax = append(st.tax, taxRow{wsName, m, mc})
	}

	weekCity := []core.Resolution{{Spatial: spatial.City, Temporal: temporal.Week}}
	all, _, err := fw.Query(core.Query{Clause: core.Clause{SkipSignificance: true, Resolutions: weekCity}})
	if err != nil {
		return st, err
	}
	sig, _, err := fw.Query(core.Query{Clause: core.Clause{Permutations: e.Cfg.Permutations, Resolutions: weekCity}})
	if err != nil {
		return st, err
	}
	sigKeys := map[string]bool{}
	for _, r := range sig {
		sigKeys[r.Function1+"|"+r.Function2+"|"+r.Class.String()] = true
	}
	for _, r := range all {
		if math.Abs(r.Score) >= 0.6 && !sigKeys[r.Function1+"|"+r.Function2+"|"+r.Class.String()] {
			st.pruned = append(st.pruned, r)
		}
	}
	sort.Slice(st.pruned, func(i, j int) bool {
		return math.Abs(st.pruned[i].Score) > math.Abs(st.pruned[j].Score)
	})
	return st, nil
}

// RunSignificance prints the Section 6.3 significance-test study (see
// significance; TestSignificanceClaim asserts it). The paper's other
// finding there, that the standard test ignoring dependence misleads, is
// asserted by the montecarlo package's tests against that test's oracle.
func RunSignificance(e *Env, w io.Writer) error {
	st, err := significance(e)
	if err != nil {
		return err
	}
	section(w, "Significance test: fare tax (white noise) vs weather attributes")
	pruned := 0
	fmt.Fprintf(w, "%-24s %8s %8s %8s %12s\n", "weather attribute", "tau", "rho", "p", "significant")
	for _, r := range st.tax {
		if !r.mc.Significant {
			pruned++
		}
		fmt.Fprintf(w, "%-24s %8.2f %8.2f %8.3f %12v\n", r.spec, r.m.Tau, r.m.Rho, r.mc.PValue, r.mc.Significant)
	}
	fmt.Fprintf(w, "pruned %d/%d fare-tax relationships (paper: all pruned as coincidental)\n", pruned, len(st.tax))

	section(w, "High-|tau| relationships pruned by the significance test (week, city)")
	for _, r := range st.pruned[:min(5, len(st.pruned))] {
		fmt.Fprintf(w, "pruned despite |tau|=%.2f: %s/%s ~ %s/%s [%s]\n",
			math.Abs(r.Score), r.Dataset1, r.Spec1, r.Dataset2, r.Spec2, r.Class)
	}
	fmt.Fprintf(w, "total high-|tau| pruned: %d (paper's examples: mileage~pedestrians 0.90, bikes~tweets 0.87)\n",
		len(st.pruned))
	return nil
}

// citySeries extracts the hourly city-resolution series of one function.
func citySeries(e *Env, ds, specName string) ([]float64, error) {
	col, err := e.Collection()
	if err != nil {
		return nil, err
	}
	d := col.Dataset(ds)
	if d == nil {
		return nil, fmt.Errorf("experiments: no dataset %s", ds)
	}
	var spec scalar.Spec
	switch specName {
	case "density":
		spec = scalar.Spec{Kind: scalar.Density}
	case "unique":
		spec = scalar.Spec{Kind: scalar.Unique}
	default:
		attr := strings.TrimPrefix(specName, "avg_")
		spec = scalar.Spec{Kind: scalar.Attribute, Attr: attr}
	}
	// All series share the corpus timeline so pairwise comparisons align.
	tl, err := temporal.NewTimeline(e.Start().Unix(), e.End().Unix()-1, temporal.Hour)
	if err != nil {
		return nil, err
	}
	fn, err := scalar.ComputeOnTimeline(d, spec, col.City, spatial.City, temporal.Hour, tl)
	if err != nil {
		return nil, err
	}
	return fn.CitySeries()
}

// comparisonRow is one Section 6.4 pair: the three baselines on the city
// hourly series and the Data Polygamy score (NaN if not indexed).
type comparisonRow struct {
	label, nature     string
	pcc, mi, dtw, tau float64
}

// comparison measures PCC, normalized MI and normalized DTW against the
// Data Polygamy score for global, conditional (event-driven) and spatial
// relationships.
func comparison(e *Env) ([]comparisonRow, error) {
	fw, err := e.Framework()
	if err != nil {
		return nil, err
	}
	type pair struct {
		label      string
		ds1, spec1 string
		ds2, spec2 string
		class      feature.Class
		res        core.Resolution
		nature     string
	}
	pairs := []pair{
		{"taxi trips ~ traffic speed", "taxi", "density", "traffic_speed", "avg_speed_mph",
			feature.Salient, cityRes(temporal.Hour), "global (baselines detect)"},
		{"snow precip ~ bike duration", "weather", "avg_snow_precip", "citibike", "avg_duration_min",
			feature.Salient, cityRes(temporal.Hour), "global-ish (PCC & MI detect)"},
		{"precipitation ~ taxi trips", "weather", "avg_precipitation", "taxi", "density",
			feature.Salient, cityRes(temporal.Hour), "conditional (baselines weak)"},
		{"wind speed ~ taxi trips", "weather", "avg_wind_speed", "taxi", "density",
			feature.Extreme, cityRes(temporal.Day), "event-only (baselines miss)"},
		{"collisions ~ taxi trips (nbhd)", "collisions", "density", "taxi", "density",
			feature.Salient, core.Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Hour},
			"spatial (1D baselines cannot see)"},
	}
	var rows []comparisonRow
	for i, p := range pairs {
		x, err := citySeries(e, p.ds1, p.spec1)
		if err != nil {
			return nil, err
		}
		y, err := citySeries(e, p.ds2, p.spec2)
		if err != nil {
			return nil, err
		}
		// DTW is O(n^2); subsample long series to keep it tractable,
		// as DTW practitioners do.
		xs, ys := subsample(x, 1500), subsample(y, 1500)
		m, _, found := findRelationship(fw, expectation{
			ds1: p.ds1, spec1: p.spec1, ds2: p.ds2, spec2: p.spec2,
			res: p.res, class: p.class,
		}, e.Cfg.Permutations, e.Cfg.Seed+int64(i))
		tau := math.NaN()
		if found {
			tau = m.Tau
		}
		rows = append(rows, comparisonRow{p.label, p.nature,
			baselines.PCC(x, y), baselines.MI(x, y, 16), baselines.NormalizedDTW(xs, ys), tau})
	}
	return rows, nil
}

// RunComparison reproduces Section 6.4 / Appendix D: the baseline
// comparison, plus the Farber OLS-on-binary-rain regression.
func RunComparison(e *Env, w io.Writer) error {
	rows, err := comparison(e)
	if err != nil {
		return err
	}
	// Farber's OLS: binary rain indicator vs hourly average fare.
	fare, err := citySeries(e, "taxi", "fare")
	if err != nil {
		return err
	}
	precip, err := citySeries(e, "weather", "precipitation")
	if err != nil {
		return err
	}
	rain := make([]bool, len(precip))
	for i, v := range precip {
		rain[i] = v > 0
	}
	slope, _, r2, err := baselines.OLSBinary(fare, rain)
	if err != nil {
		return err
	}
	section(w, "Section 6.4: standard techniques vs Data Polygamy")
	fmt.Fprintf(w, "%-32s %8s %8s %8s %10s  %s\n", "pair", "PCC", "MI", "bDTW", "DP tau", "nature")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %8.2f %8.2f %8.2f %10.2f  %s\n", r.label, r.pcc, r.mi, r.dtw, r.tau, r.nature)
	}
	fmt.Fprintf(w, "\nFarber-style OLS (fare ~ any-rain dummy): slope=%.3f R^2=%.4f\n", slope, r2)
	fmt.Fprintln(w, "paper: the binary treatment and all-time-periods regression miss the salient-")
	fmt.Fprintln(w, "feature relationship that Data Polygamy detects (fare ~ precipitation, tau>0)")
	return nil
}

func subsample(x []float64, maxN int) []float64 {
	if len(x) <= maxN {
		return x
	}
	step := float64(len(x)) / float64(maxN)
	out := make([]float64, maxN)
	for i := range out {
		out[i] = x[int(float64(i)*step)]
	}
	return out
}
