package scalar

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// gradientFixture builds a 3-region x n-step function directly.
func gradientFixture(t *testing.T, nRegions, nSteps int, adj [][]int) *Function {
	t.Helper()
	g, err := stgraph.New(nRegions, nSteps, adj)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2012, time.January, 1, 0, 0, 0, 0, time.UTC).Unix()
	tl, err := temporal.NewTimeline(start, start+int64(nSteps-1)*3600, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &Function{
		Dataset: "g", Spec: Spec{Kind: Density},
		SRes: spatial.Neighborhood, TRes: temporal.Hour,
		Timeline: tl, Graph: g,
		Values: make([]float64, g.NumVertices()),
	}
}

func TestGradientFlatIsZero(t *testing.T) {
	f := gradientFixture(t, 3, 10, [][]int{{1}, {0, 2}, {1}})
	for i := range f.Values {
		f.Values[i] = 7
	}
	gr := Gradient(f)
	for v, x := range gr.Values {
		if x != 0 {
			t.Fatalf("gradient of constant function at %d = %g, want 0", v, x)
		}
	}
}

func TestGradientStepEdge(t *testing.T) {
	// A pure time series with one step change: gradient peaks at the jump.
	f := gradientFixture(t, 1, 20, [][]int{nil})
	for i := 10; i < 20; i++ {
		f.Values[i] = 10
	}
	gr := Gradient(f)
	// Vertices 9 and 10 straddle the jump.
	if gr.Values[9] <= gr.Values[5] || gr.Values[10] <= gr.Values[15] {
		t.Errorf("gradient should peak at the jump: %v", gr.Values[5:15])
	}
	// Interior flat regions have zero gradient.
	if gr.Values[5] != 0 || gr.Values[15] != 0 {
		t.Errorf("flat regions should have zero gradient: %g %g", gr.Values[5], gr.Values[15])
	}
}

func TestGradientKnownValue(t *testing.T) {
	// Chain 0-1-2 at one step: values 0, 3, 0.
	f := gradientFixture(t, 3, 1, [][]int{{1}, {0, 2}, {1}})
	f.Values[1] = 3
	gr := Gradient(f)
	// Vertex 0 has one neighbor (1): |3-0| -> sqrt(9/1) = 3.
	if math.Abs(gr.Values[0]-3) > 1e-12 {
		t.Errorf("gradient[0] = %g, want 3", gr.Values[0])
	}
	// Vertex 1 has two neighbors (0,2): sqrt((9+9)/2) = 3.
	if math.Abs(gr.Values[1]-3) > 1e-12 {
		t.Errorf("gradient[1] = %g, want 3", gr.Values[1])
	}
}

func TestGradientDoesNotMutate(t *testing.T) {
	f := gradientFixture(t, 1, 5, [][]int{nil})
	f.Values[2] = 9
	before := append([]float64{}, f.Values...)
	Gradient(f)
	for i := range before {
		if f.Values[i] != before[i] {
			t.Fatal("Gradient mutated its input")
		}
	}
}

// TestGradientCatchesCalmAreaBump is the Section 8 motivating case: a
// small bump in a calm region that never crosses the global salient
// threshold, but whose gradient is unmistakable.
func TestGradientCatchesCalmAreaBump(t *testing.T) {
	// Two regions: region 0 is busy (values ~100 with large swings up to
	// 200), region 1 is calm (~2). A bump to 20 in region 1 stays far
	// below any threshold derived from region 0's variation, but is a
	// 10x local change.
	nSteps := 200
	f := gradientFixture(t, 2, nSteps, [][]int{{1}, {0}})
	for s := 0; s < nSteps; s++ {
		f.Values[f.Graph.Vertex(0, s)] = 100 + 100*math.Sin(float64(s)/10)
		f.Values[f.Graph.Vertex(1, s)] = 2
	}
	bump := f.Graph.Vertex(1, 100)
	f.Values[bump] = 20

	gr := Gradient(f)
	// The bump's gradient must beat the calm region's baseline gradient by
	// a wide margin.
	calm := gr.Values[f.Graph.Vertex(1, 50)]
	if gr.Values[bump] < 10*(calm+1e-9) && gr.Values[bump] < 5 {
		t.Errorf("bump gradient %g did not stand out (calm %g)", gr.Values[bump], calm)
	}
}

func TestGradientKeyNamespaced(t *testing.T) {
	f := gradientFixture(t, 1, 5, [][]int{nil})
	key := GradientKey(f)
	if key == f.Key() {
		t.Error("gradient key must differ from source key")
	}
	if key != "g/grad_density@neighborhood,hour" {
		t.Errorf("GradientKey = %q", key)
	}
}

func TestCustomAggregate(t *testing.T) {
	city := testCity(t)
	d := gpsDataset(t, city)
	// A custom aggregate: the range (max - min) of fares per point.
	rangeFn := func(xs []float64) float64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return hi - lo
	}
	spec := Spec{Kind: Attribute, Attr: "fare", Agg: Custom, CustomFn: rangeFn, CustomName: "range"}
	f, err := Compute(d, spec, city, spatial.City, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Hour 0 has fares 10 and 20 -> range 10; hour 1 has a single 5 -> 0.
	if f.Value(0, 0) != 10 {
		t.Errorf("custom range hour0 = %g, want 10", f.Value(0, 0))
	}
	if f.Value(0, 1) != 0 {
		t.Errorf("custom range hour1 = %g, want 0", f.Value(0, 1))
	}
	if f.Spec.Name() != "range_fare" {
		t.Errorf("custom spec name = %q", f.Spec.Name())
	}
}

// GradientKey returns the key a gradient of f would have in an index
// (equal to Gradient(f).Key()); gradient keys never collide with their
// sources because of the "grad_" namespace.
func GradientKey(f *Function) string {
	return fmt.Sprintf("%s/grad_%s@%s,%s", f.Dataset, f.Spec.Name(), f.SRes, f.TRes)
}
