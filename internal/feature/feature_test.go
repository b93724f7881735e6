package feature

import (
	"fmt"
	"github.com/urbandata/datapolygamy/internal/bitvec"
	"math"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/topology"
)

// seriesFunction builds a city-resolution (1D) scalar function directly
// from a value series, with an hourly timeline starting at start.
func seriesFunction(t testing.TB, start time.Time, vals []float64) *scalar.Function {
	t.Helper()
	startTS := start.Unix()
	endTS := startTS + int64(len(vals)-1)*3600
	tl, err := temporal.NewTimeline(startTS, endTS, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() != len(vals) {
		t.Fatalf("timeline %d steps, want %d", tl.Len(), len(vals))
	}
	g, err := stgraph.New(1, len(vals), [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	return &scalar.Function{
		Dataset:  "test",
		Spec:     scalar.Spec{Kind: scalar.Density},
		SRes:     spatial.City,
		TRes:     temporal.Hour,
		Timeline: tl,
		Graph:    g,
		Values:   vals,
	}
}

// spikySeries builds a one-month hourly series: a small +-0.1 wiggle
// baseline, up-spikes of value 10 at three steps, one top spike of 12,
// and down-spikes of -2 and -2.5.
func spikySeries() ([]float64, map[string][]int) {
	n := 24 * 28 // 28 days of January 2012
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.1 * float64(i%2)
	}
	ups := []int{100, 250, 400}
	for _, s := range ups {
		vals[s] = 10
	}
	top := 500
	vals[top] = 12
	downShallow, downDeep := 300, 600
	vals[downShallow] = -2
	vals[downDeep] = -2.5
	return vals, map[string][]int{
		"ups":  ups,
		"top":  {top},
		"down": {downShallow, downDeep},
		"deep": {downDeep},
	}
}

// negSpikySeries mirrors spikySeries downward: down-spikes of -10 at three
// steps and one deep spike of -12, over the same wiggle baseline.
func negSpikySeries() ([]float64, map[string][]int) {
	n := 24 * 28
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.1 * float64(i%2)
	}
	downs := []int{100, 250, 400}
	for _, s := range downs {
		vals[s] = -10
	}
	deep := 500
	vals[deep] = -12
	return vals, map[string][]int{"downs": downs, "deep": {deep}}
}

func jan2012() time.Time {
	return time.Date(2012, time.January, 1, 0, 0, 0, 0, time.UTC)
}

func TestSalientPositiveSpikes(t *testing.T) {
	vals, marks := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	set := e.Extract(Salient)

	// All four up-spikes (10,10,10,12) must be positive salient features.
	for _, s := range append(append([]int{}, marks["ups"]...), marks["top"]...) {
		if !set.Positive.Get(s) {
			t.Errorf("step %d (up-spike) not a positive salient feature", s)
		}
	}
	// The wiggle baseline must not be a positive feature.
	if set.Positive.Get(0) || set.Positive.Get(1) {
		t.Error("baseline wrongly classified as positive feature")
	}
	pos, _ := set.Count()
	if pos < 4 || pos > 8 {
		t.Errorf("positive count = %d, want the 4 spikes (+ slack)", pos)
	}
}

func TestSalientNegativeSpikes(t *testing.T) {
	vals, marks := negSpikySeries()
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	set := e.Extract(Salient)
	for _, s := range append(append([]int{}, marks["downs"]...), marks["deep"]...) {
		if !set.Negative.Get(s) {
			t.Errorf("step %d (down-spike) not a negative salient feature", s)
		}
	}
	if set.Negative.Get(2) || set.Negative.Get(3) {
		t.Error("baseline wrongly classified as negative feature")
	}
}

func TestSalientThresholdValue(t *testing.T) {
	vals, _ := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	th := NewExtractor(f).Thresholds()
	if len(th.PosBySeason) != 1 {
		t.Fatalf("PosBySeason has %d seasons, want 1", len(th.PosBySeason))
	}
	for _, st := range th.PosBySeason {
		if st.Theta != 10 {
			t.Errorf("theta+ = %g, want 10 (smallest high-persistence max)", st.Theta)
		}
	}

	nvals, _ := negSpikySeries()
	nf := seriesFunction(t, jan2012(), nvals)
	nth := NewExtractor(nf).Thresholds()
	for _, st := range nth.NegBySeason {
		if st.Theta != -10 {
			t.Errorf("theta- = %g, want -10 (largest high-persistence min)", st.Theta)
		}
	}
}

func TestExtremeFeaturesOutlierOnly(t *testing.T) {
	vals, marks := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	set := e.Extract(Extreme)

	top := marks["top"][0]
	if !set.Positive.Get(top) {
		t.Error("top spike should be an extreme positive feature")
	}
	for _, s := range marks["ups"] {
		if set.Positive.Get(s) {
			t.Errorf("medium spike %d wrongly extreme", s)
		}
	}
	// Extreme threshold: salient max values [10,10,10,12] -> Q3+1.5*IQR = 11.25.
	if got := e.Thresholds().ExtremePos; math.Abs(got-11.25) > 1e-9 {
		t.Errorf("ExtremePos = %g, want 11.25", got)
	}
}

func TestExtremeNegativeOutlierOnly(t *testing.T) {
	vals, marks := negSpikySeries()
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	set := e.Extract(Extreme)
	if !set.Negative.Get(marks["deep"][0]) {
		t.Error("deep spike should be an extreme negative feature")
	}
	for _, s := range marks["downs"] {
		if set.Negative.Get(s) {
			t.Errorf("medium down-spike %d wrongly extreme", s)
		}
	}
	// Salient min values [-12,-10,-10,-10] -> Q1 - 1.5*IQR = -11.25.
	if got := e.Thresholds().ExtremeNeg; math.Abs(got-(-11.25)) > 1e-9 {
		t.Errorf("ExtremeNeg = %g, want -11.25", got)
	}
}

func TestSeasonalThresholds(t *testing.T) {
	// Two months; month 1 has amplitude-10 spikes, month 2 amplitude-4
	// spikes. Per-season thresholds must detect both (the paper's
	// zero-snow-in-summer example).
	n1 := 24 * 31 // January
	n2 := 24 * 28 // February
	vals := make([]float64, n1+n2)
	for i := range vals {
		vals[i] = 0.1 * float64(i%2)
	}
	janSpikes := []int{100, 300, 500}
	for _, s := range janSpikes {
		vals[s] = 10
	}
	febSpikes := []int{n1 + 100, n1 + 300, n1 + 500}
	for _, s := range febSpikes {
		vals[s] = 4
	}
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	th := e.Thresholds()
	if len(th.PosBySeason) != 2 {
		t.Fatalf("PosBySeason seasons = %d, want 2", len(th.PosBySeason))
	}
	janKey := 2012*12 + 0
	febKey := 2012*12 + 1
	if theta, ok := th.PosBySeason.Theta(janKey); !ok || theta != 10 {
		t.Errorf("January theta+ = %g (found %t), want 10", theta, ok)
	}
	if theta, ok := th.PosBySeason.Theta(febKey); !ok || theta != 4 {
		t.Errorf("February theta+ = %g (found %t), want 4", theta, ok)
	}
	set := e.Extract(Salient)
	for _, s := range append(append([]int{}, janSpikes...), febSpikes...) {
		if !set.Positive.Get(s) {
			t.Errorf("spike at step %d missed", s)
		}
	}
	// February spikes are below January's threshold: a single global
	// threshold would have missed them. Check the masking worked — a
	// February baseline step at value 0.1 must not be a feature.
	if set.Positive.Get(n1 + 1) {
		t.Error("February baseline wrongly a feature")
	}
}

// TestSeasonBoundaryLeaf: an extremum on the first step of a season
// belongs to that season, not to the one before.
func TestSeasonBoundaryLeaf(t *testing.T) {
	n1 := 24 * 31 // January
	vals := make([]float64, n1+24*28)
	for i := range vals {
		vals[i] = 0.1 * float64(i%2)
	}
	for _, s := range []int{100, 300, 500} {
		vals[s] = 10
	}
	vals[n1] = 4 // February's only spike, on its first hour
	e := NewExtractor(seriesFunction(t, jan2012(), vals))
	if theta, ok := e.Thresholds().PosBySeason.Theta(2012*12 + 1); !ok || theta != 4 {
		t.Errorf("February theta+ = %g (found %t), want 4", theta, ok)
	}
	if !e.Extract(Salient).Positive.Get(n1) {
		t.Error("the spike on February's first hour is not a feature")
	}
}

func TestFlatFunctionNoFeatures(t *testing.T) {
	vals := make([]float64, 24*10)
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	set := e.Extract(Salient)
	pos, neg := set.Count()
	if pos != 0 || neg != 0 {
		t.Errorf("flat function features = %d/%d, want 0/0", pos, neg)
	}
}

func TestExtractWithThresholds(t *testing.T) {
	vals, marks := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	set := e.ExtractWithThresholds(11, -2.2)
	if !set.Positive.Get(marks["top"][0]) {
		t.Error("explicit theta+ should capture the top spike")
	}
	for _, s := range marks["ups"] {
		if set.Positive.Get(s) {
			t.Error("explicit theta+ = 11 should exclude 10-spikes")
		}
	}
	if !set.Negative.Get(marks["deep"][0]) || set.Negative.Get(marks["down"][0]) {
		t.Error("explicit theta- = -2.2 should capture only the deep spike")
	}
	// NaN skips a sign entirely.
	set = e.ExtractWithThresholds(math.NaN(), -2.2)
	if set.Positive.Any() {
		t.Error("NaN theta+ should produce no positive features")
	}
}

func TestSetAllAndCount(t *testing.T) {
	vals, _ := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	set := NewExtractor(f).Extract(Salient)
	all := set.All()
	pos, neg := set.Count()
	if all.Count() != pos+neg {
		t.Errorf("All = %d, want %d (pos and neg disjoint here)", all.Count(), pos+neg)
	}
	if set.NumVertices() != len(vals) {
		t.Errorf("NumVertices = %d, want %d", set.NumVertices(), len(vals))
	}
}

func TestClassString(t *testing.T) {
	if Salient.String() != "salient" || Extreme.String() != "extreme" {
		t.Error("Class.String wrong")
	}
}

func TestExtractorString(t *testing.T) {
	vals, _ := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	e := NewExtractor(f)
	if e.String() == "" || e.Function() != f {
		t.Error("accessor methods broken")
	}
	join, split := topology.ComputeBoth(f.Graph, f.Values)
	if want := join.NumCriticalPoints() + split.NumCriticalPoints(); e.CriticalPoints() != want {
		t.Errorf("CriticalPoints = %d, the trees have %d", e.CriticalPoints(), want)
	}
}

// TestExtractorWithTrees: thresholds from caller-built trees equal those
// NewExtractor computes from its pooled extrema.
func TestExtractorWithTrees(t *testing.T) {
	vals, _ := spikySeries()
	f := seriesFunction(t, jan2012(), vals)
	join, split := topology.ComputeBoth(f.Graph, f.Values)
	a, b := NewExtractor(f), NewExtractorWithTrees(f, join, split)
	if fmt.Sprint(a.Thresholds()) != fmt.Sprint(b.Thresholds()) || a.CriticalPoints() != b.CriticalPoints() || a.String() != b.String() {
		t.Errorf("with trees %v (%d critical), pooled %v (%d critical)", b.Thresholds(), b.CriticalPoints(), a.Thresholds(), a.CriticalPoints())
	}
}

func TestSpatialFeatures(t *testing.T) {
	// A 3-region x 48-step function where region 1 has a hot spot across
	// several consecutive steps: the feature must be spatio-temporal.
	nSteps := 48
	adj := [][]int{{1}, {0, 2}, {1}}
	g, err := stgraph.New(3, nSteps, adj)
	if err != nil {
		t.Fatal(err)
	}
	start := jan2012().Unix()
	tl, err := temporal.NewTimeline(start, start+int64(nSteps-1)*3600, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, g.NumVertices())
	for i := range vals {
		vals[i] = 0.1 * float64(i%2)
	}
	// Hot spot in region 1, steps 20..22; a lone spike in region 0 step 40.
	for s := 20; s <= 22; s++ {
		vals[g.Vertex(1, s)] = 8
	}
	vals[g.Vertex(0, 40)] = 9
	f := &scalar.Function{
		Dataset: "grid", Spec: scalar.Spec{Kind: scalar.Density},
		SRes: spatial.Neighborhood, TRes: temporal.Hour,
		Timeline: tl, Graph: g, Values: vals,
	}
	set := NewExtractor(f).Extract(Salient)
	for s := 20; s <= 22; s++ {
		if !set.Positive.Get(g.Vertex(1, s)) {
			t.Errorf("hot spot step %d missed", s)
		}
	}
	if !set.Positive.Get(g.Vertex(0, 40)) {
		t.Error("lone spike missed")
	}
	if set.Positive.Get(g.Vertex(2, 21)) {
		t.Error("cold region wrongly hot")
	}
}

// TestExtremeFeaturesOnDisconnectedDomain: on a city of two islands, the
// island that does not hold the sweep's root keeps its oldest extremum
// unpaired, so that extremum is not a tree leaf. Extreme features are the
// threshold sets on both islands all the same.
func TestExtremeFeaturesOnDisconnectedDomain(t *testing.T) {
	const nSteps = 24 * 28
	// Island A is regions 0-1, island B regions 2-3; two regions per island
	// give the level sets a way around every spike.
	g, err := stgraph.New(4, nSteps, [][]int{{1}, {0}, {3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	start := jan2012().Unix()
	tl, err := temporal.NewTimeline(start, start+int64(nSteps-1)*3600, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, g.NumVertices())
	for v := range vals {
		_, step := g.RegionStep(v)
		vals[v] = 0.1 * float64(step%2)
	}
	for _, s := range []int{100, 250, 400} {
		vals[g.Vertex(0, s)] = 10
	}
	vals[g.Vertex(2, 300)] = 10
	vals[g.Vertex(0, 300)] = -2
	vals[g.Vertex(2, 200)] = -2
	vals[g.Vertex(2, 650)] = -2
	top := g.Vertex(2, 500) // the global maximum, on the island without the global minimum
	vals[top] = 12
	deep := g.Vertex(0, 600) // the global minimum, on the island without the global maximum
	vals[deep] = -2.5
	f := &scalar.Function{
		Dataset: "islands", Spec: scalar.Spec{Kind: scalar.Density},
		SRes: spatial.Neighborhood, TRes: temporal.Hour,
		Timeline: tl, Graph: g, Values: vals,
	}
	e := NewExtractor(f)
	join, split := topology.ComputeBoth(g, vals)
	for _, c := range []struct {
		name   string
		leaves []int32
		v      int
	}{{"join", join.Leaves, top}, {"split", split.Leaves, deep}} {
		for _, l := range c.leaves {
			if int(l) == c.v {
				t.Fatalf("vertex %d is a %s leaf; the test needs it unpaired", c.v, c.name)
			}
		}
	}

	th := e.Thresholds()
	set := e.Extract(Extreme)
	for v, x := range vals {
		if got, want := set.Positive.Get(v), x >= th.ExtremePos; got != want {
			t.Errorf("vertex %d (%g): extreme positive %t, want %t (theta+ %g)", v, x, got, want, th.ExtremePos)
		}
		if got, want := set.Negative.Get(v), x <= th.ExtremeNeg; got != want {
			t.Errorf("vertex %d (%g): extreme negative %t, want %t (theta- %g)", v, x, got, want, th.ExtremeNeg)
		}
	}
	if !set.Positive.Get(top) || !set.Negative.Get(deep) {
		t.Errorf("extreme features miss the unpaired extrema: top %t, deep %t", set.Positive.Get(top), set.Negative.Get(deep))
	}
	explicit := e.ExtractWithThresholds(11, -2.2)
	if !explicit.Positive.Get(top) || !explicit.Negative.Get(deep) {
		t.Error("explicit thresholds miss the unpaired extrema")
	}
}

// ExtractWithThresholds bypasses automatic threshold computation and
// extracts features at user-provided thresholds (clause-specified
// thresholds, Section 5.3). NaN skips that sign.
func (e *Extractor) ExtractWithThresholds(thetaPos, thetaNeg float64) *Set {
	n := e.fn.Graph.NumVertices()
	set := &Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	for v, x := range e.fn.Values[:n] {
		if x >= thetaPos {
			set.Positive.Set(v)
		}
		if x <= thetaNeg {
			set.Negative.Set(v)
		}
	}
	return set
}
