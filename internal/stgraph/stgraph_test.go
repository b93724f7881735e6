package stgraph

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// path3 is a 3-region path graph: 0 - 1 - 2.
func path3() [][]int {
	return [][]int{{1}, {0, 2}, {1}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, nil); err == nil {
		t.Error("expected error for zero regions")
	}
	if _, err := New(3, 0, path3()); err == nil {
		t.Error("expected error for zero steps")
	}
	if _, err := New(2, 5, path3()); err == nil {
		t.Error("expected error for adjacency size mismatch")
	}
	if _, err := New(3, 5, [][]int{{5}, {}, {}}); err == nil {
		t.Error("expected error for out-of-range neighbor")
	}
	if _, err := New(3, 5, [][]int{{0}, {}, {}}); err == nil {
		t.Error("expected error for self loop")
	}
}

// The merge-tree kernel's plateau test steps along spatial edges in both
// directions, so New must refuse a one-way or repeated neighbor, in any
// 64-region word of the adjacency.
func TestNewRejectsMalformedAdjacency(t *testing.T) {
	wide := func(links ...[2]int) [][]int { // 130 regions, directed links
		adj := make([][]int, 130)
		for _, l := range links {
			adj[l[0]] = append(adj[l[0]], l[1])
		}
		return adj
	}
	cases := []struct {
		name string
		adj  [][]int
		ok   bool
	}{
		{"path", path3(), true},
		{"one way", [][]int{{1}, {}, {}}, false},
		{"one of two back", [][]int{{1, 2}, {0}, {}}, false},
		{"repeated neighbor", [][]int{{1, 1}, {0}, {}}, false},
		{"repeated both ways", [][]int{{1, 1}, {0, 0}, {}}, false},
		{"symmetric across words", wide([2]int{0, 129}, [2]int{129, 0}, [2]int{63, 64}, [2]int{64, 63}), true},
		{"one way across words", wide([2]int{3, 100}), false},
		// 100 lists 67, which shares 3's bit in the next word.
		{"back link in the wrong word", wide([2]int{3, 100}, [2]int{100, 67}, [2]int{67, 100}), false},
		{"repeated in a later word", wide([2]int{0, 70}, [2]int{0, 70}, [2]int{70, 0}), false},
	}
	for _, c := range cases {
		_, err := New(len(c.adj), 2, c.adj)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
	}
}

// NeighborMasks must hold exactly each region's spatial neighbors, one
// non-empty entry per word that has any.
func TestNeighborMasksMatchAdjacency(t *testing.T) {
	const n = 130
	adj := make([][]int, n)
	for a := 0; a < n; a++ {
		for _, b := range []int{a + 1, a + 63, a + 64, a + 70} {
			if b < n {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	g, err := New(n, 3, adj)
	if err != nil {
		t.Fatal(err)
	}
	off, masks := g.NeighborMasks()
	for r := 0; r < n; r++ {
		var got []int
		words := map[int32]bool{}
		for _, m := range masks[off[r]:off[r+1]] {
			if m.Bits == 0 || words[m.Word] {
				t.Fatalf("region %d: empty or repeated word %d in %v", r, m.Word, masks[off[r]:off[r+1]])
			}
			words[m.Word] = true
			for b := 0; b < 64; b++ {
				if m.Bits>>b&1 != 0 {
					got = append(got, int(m.Word)*64+b)
				}
			}
		}
		want := append([]int(nil), adj[r]...)
		sort.Ints(got)
		sort.Ints(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d: masks hold %v, adjacency %v", r, got, want)
		}
	}
}

// Vertex ids are int32 in the merge-tree kernel: a domain past 2^31-1
// vertices must be refused, not wrapped.
func TestNewRejectsDomainsBeyondInt32(t *testing.T) {
	one := [][]int{nil}
	if _, err := New(1, math.MaxInt32, one); err != nil {
		t.Errorf("%d vertices is the limit and must be accepted: %v", math.MaxInt32, err)
	}
	if _, err := New(1, math.MaxInt32+1, one); err == nil {
		t.Error("expected error for 2^31 vertices")
	}
	if _, err := New(3, math.MaxInt32/3+1, path3()); err == nil {
		t.Error("expected error for regions*steps just past the limit")
	}
	if _, err := New(3, math.MaxInt64/2, path3()); err == nil {
		t.Error("expected error where regions*steps overflows int")
	}
}

func TestCounts(t *testing.T) {
	g, err := New(3, 4, path3())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 12 {
		t.Errorf("NumVertices = %d, want 12", g.NumVertices())
	}
	// spatial: 2 edges per step * 4 steps = 8; temporal: 3 regions * 3 = 9.
	if g.NumEdges() != 17 {
		t.Errorf("NumEdges = %d, want 17", g.NumEdges())
	}
	if g.NumRegions() != 3 || g.NumSteps() != 4 {
		t.Error("NumRegions/NumSteps wrong")
	}
}

func TestVertexRoundTrip(t *testing.T) {
	g, _ := New(3, 4, path3())
	for s := 0; s < 4; s++ {
		for r := 0; r < 3; r++ {
			v := g.Vertex(r, s)
			rr, ss := g.RegionStep(v)
			if rr != r || ss != s {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", r, s, v, rr, ss)
			}
		}
	}
}

func neighbors(g *Graph, v int) []int {
	var out []int
	g.Neighbors(v, func(u int) { out = append(out, u) })
	sort.Ints(out)
	return out
}

func TestNeighborsInterior(t *testing.T) {
	g, _ := New(3, 4, path3())
	// Region 1 at step 1: spatial {0,2}@step1 = {3,5}... vertex = 1*3+1 = 4.
	got := neighbors(g, g.Vertex(1, 1))
	want := []int{1, 3, 5, 7} // region1@step0, region0@step1, region2@step1, region1@step2
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", got, want)
		}
	}
}

func TestNeighborsBoundary(t *testing.T) {
	g, _ := New(3, 4, path3())
	// Region 0 at step 0: spatial {1}@0, temporal next region0@1.
	got := neighbors(g, g.Vertex(0, 0))
	want := []int{1, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	// Last step, region 2.
	got = neighbors(g, g.Vertex(2, 3))
	want = []int{g.Vertex(1, 3), g.Vertex(2, 2)}
	sort.Ints(want)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
}

// The flat neighbor table must list exactly what Neighbors visits, in the
// same order (the merge-tree kernel's edge order depends on it).
func TestNeighborOffsetsMatchNeighbors(t *testing.T) {
	adj := [][]int{{2, 1}, {0, 2}, {3, 0, 1}, {2}}
	for _, steps := range []int{1, 2, 5} {
		g, err := New(4, steps, adj)
		if err != nil {
			t.Fatal(err)
		}
		off, delta := g.NeighborOffsets()
		for v := 0; v < g.NumVertices(); v++ {
			var want, got []int
			g.Neighbors(v, func(u int) { want = append(want, u) })
			r, _ := g.RegionStep(v)
			for _, d := range delta[off[r]:off[r+1]] {
				if u := v + int(d); u >= 0 && u < g.NumVertices() {
					got = append(got, u)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("steps %d vertex %d: table gives %v, Neighbors %v", steps, v, got, want)
			}
		}
	}
}

func TestDegreeMatchesNeighbors(t *testing.T) {
	g, _ := New(3, 5, path3())
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) != len(neighbors(g, v)) {
			t.Fatalf("Degree(%d) = %d, neighbors = %d", v, g.Degree(v), len(neighbors(g, v)))
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g, _ := New(3, 5, path3())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range neighbors(g, v) {
			back := neighbors(g, u)
			found := false
			for _, w := range back {
				if w == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", v, u)
			}
		}
	}
}

func TestPureTimeSeries(t *testing.T) {
	// City resolution: 1 region, no spatial edges — a 1D function.
	g, err := New(1, 10, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 9 {
		t.Errorf("NumEdges = %d, want 9 (pure temporal chain)", g.NumEdges())
	}
	got := neighbors(g, 5)
	if len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Errorf("chain neighbors = %v, want [4 6]", got)
	}
}

func TestSingleVertex(t *testing.T) {
	g, err := New(1, 1, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.Degree(0) != 0 {
		t.Error("single vertex should have no edges")
	}
}

// Edge count formula check against explicit enumeration.
func TestEdgeCountMatchesEnumeration(t *testing.T) {
	adj := [][]int{{1, 2}, {0, 2}, {0, 1, 3}, {2}} // 4 regions, 4 spatial edges
	g, err := New(4, 3, adj)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for v := 0; v < g.NumVertices(); v++ {
		g.Neighbors(v, func(u int) { count++ })
	}
	if count%2 != 0 {
		t.Fatal("odd directed edge count")
	}
	if count/2 != g.NumEdges() {
		t.Errorf("NumEdges = %d, enumeration = %d", g.NumEdges(), count/2)
	}
}
