package eventdetect

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func hourlyFunction(t testing.TB, vals []float64) *scalar.Function {
	t.Helper()
	g, err := stgraph.New(1, len(vals), [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2012, time.January, 2, 0, 0, 0, 0, time.UTC).Unix() // a Monday
	tl, err := temporal.NewTimeline(start, start+int64(len(vals)-1)*3600, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &scalar.Function{
		Dataset: "e", Spec: scalar.Spec{Kind: scalar.Density},
		SRes: spatial.City, TRes: temporal.Hour,
		Timeline: tl, Graph: g, Values: vals,
	}
}

func TestDetectFindsInjectedEvents(t *testing.T) {
	// Eight weeks of a strong diurnal pattern plus noise; events injected
	// well outside the hourly profile.
	rng := rand.New(rand.NewSource(2))
	n := 24 * 7 * 8
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 + 50*math.Sin(float64(i%24)/24*2*math.Pi) + rng.NormFloat64()*2
	}
	up, down := 500, 900
	vals[up] += 60
	vals[down] -= 60
	set := Detect(hourlyFunction(t, vals), 3)
	if !set.Positive.Get(up) {
		t.Error("injected up-event missed")
	}
	if !set.Negative.Get(down) {
		t.Error("injected down-event missed")
	}
	pos, neg := set.Count()
	// At 3 sigma the false positive rate is ~0.3%: a handful of points.
	if pos+neg > n/20 {
		t.Errorf("detector too trigger-happy: %d events of %d points", pos+neg, n)
	}
}

// TestDetectProfileAwareness is the detector's advantage over a global
// threshold: an event during the nightly low is caught even though its
// absolute value stays below the daily mean.
func TestDetectProfileAwareness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24 * 7 * 8
	vals := make([]float64, n)
	for i := range vals {
		base := 20.0
		if h := i % 24; h >= 8 && h < 22 {
			base = 200
		}
		vals[i] = base + rng.NormFloat64()
	}
	// A surge at 3am: 20 -> 60, still far below daytime values.
	night := 24*14 + 3
	vals[night] = 60
	set := Detect(hourlyFunction(t, vals), 3)
	if !set.Positive.Get(night) {
		t.Error("night surge missed despite profile model")
	}
}

func TestDetectConstantSeries(t *testing.T) {
	vals := make([]float64, 24*14)
	for i := range vals {
		vals[i] = 5
	}
	set := Detect(hourlyFunction(t, vals), 3)
	pos, neg := set.Count()
	if pos != 0 || neg != 0 {
		t.Errorf("constant series produced %d/%d events", pos, neg)
	}
}

func TestDetectDefaultK(t *testing.T) {
	vals := make([]float64, 24*14)
	set := Detect(hourlyFunction(t, vals), 0) // 0 -> DefaultK
	if set == nil || set.NumVertices() != len(vals) {
		t.Fatal("Detect with default k failed")
	}
}

func TestDetectSpatial(t *testing.T) {
	// Two regions with different base levels: the per-region profile keeps
	// the busy region's normal hours from flagging in the calm one.
	nSteps := 24 * 7 * 6
	g, err := stgraph.New(2, nSteps, [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2012, time.January, 2, 0, 0, 0, 0, time.UTC).Unix()
	tl, err := temporal.NewTimeline(start, start+int64(nSteps-1)*3600, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, g.NumVertices())
	for s := 0; s < nSteps; s++ {
		vals[g.Vertex(0, s)] = 500 + rng.NormFloat64()*3
		vals[g.Vertex(1, s)] = 5 + rng.NormFloat64()*0.2
	}
	bump := g.Vertex(1, 1000)
	vals[bump] = 9 // tiny absolutely, huge for region 1
	f := &scalar.Function{
		Dataset: "s", Spec: scalar.Spec{Kind: scalar.Density},
		SRes: spatial.Neighborhood, TRes: temporal.Hour,
		Timeline: tl, Graph: g, Values: vals,
	}
	set := Detect(f, 3)
	if !set.Positive.Get(bump) {
		t.Error("calm-region bump missed")
	}
}
