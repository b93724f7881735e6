package feature

import (
	"math/rand"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// TestThreeDimensionalSpatialDomain exercises Section 8's claim that the
// graph representation makes the framework dimension-independent: a 3D
// spatial domain (the in-building noise example — geo-location x floor)
// plus time works without modification. The spatial "regions" are cells of
// a 4x4x4 lattice; the feature pipeline must localize a hot spot in both
// space (including height) and time.
func TestThreeDimensionalSpatialDomain(t *testing.T) {
	const nx, ny, nz = 4, 4, 4
	at := func(x, y, z int) int { return (z*ny+y)*nx + x }
	adj := make([][]int, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := at(x, y, z)
				if x+1 < nx {
					adj[v] = append(adj[v], at(x+1, y, z))
					adj[at(x+1, y, z)] = append(adj[at(x+1, y, z)], v)
				}
				if y+1 < ny {
					adj[v] = append(adj[v], at(x, y+1, z))
					adj[at(x, y+1, z)] = append(adj[at(x, y+1, z)], v)
				}
				if z+1 < nz {
					adj[v] = append(adj[v], at(x, y, z+1))
					adj[at(x, y, z+1)] = append(adj[at(x, y, z+1)], v)
				}
			}
		}
	}
	nSteps := 24 * 14
	g, err := stgraph.New(nx*ny*nz, nSteps, adj)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC).Unix()
	tl, err := temporal.NewTimeline(start, start+int64(nSteps-1)*3600, temporal.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, g.NumVertices())
	for i := range vals {
		vals[i] = 40 + rng.NormFloat64() // ambient noise level, dB
	}
	// A loud event on the third floor, one corner, hours 100-103.
	hot := at(1, 1, 2)
	for s := 100; s <= 103; s++ {
		vals[g.Vertex(hot, s)] = 95
	}
	f := &scalar.Function{
		Dataset: "building_noise", Spec: scalar.Spec{Kind: scalar.Attribute, Attr: "db"},
		SRes: spatial.Neighborhood, TRes: temporal.Hour,
		Timeline: tl, Graph: g, Values: vals,
	}
	set := NewExtractor(f).Extract(Salient)
	for s := 100; s <= 103; s++ {
		if !set.Positive.Get(g.Vertex(hot, s)) {
			t.Errorf("3D hot spot missed at step %d", s)
		}
	}
	// A different floor, same (x, y), same time: not a feature.
	if set.Positive.Get(g.Vertex(at(1, 1, 0), 101)) {
		t.Error("feature leaked to another floor")
	}
}
