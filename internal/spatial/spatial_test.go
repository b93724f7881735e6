package spatial

import (
	"math"
	"math/rand"
	"testing"
)

func TestDist(t *testing.T) {
	if d := Dist(Point{0, 0}, Point{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", d)
	}
}

func TestResolutionDAG(t *testing.T) {
	cases := []struct {
		from, to Resolution
		want     bool
	}{
		{GPS, ZipCode, true},
		{GPS, Neighborhood, true},
		{GPS, City, true},
		{ZipCode, City, true},
		{Neighborhood, City, true},
		{ZipCode, Neighborhood, false},
		{Neighborhood, ZipCode, false},
		{City, Neighborhood, false},
		{City, City, true},
	}
	for _, c := range cases {
		if got := c.from.ConvertibleTo(c.to); got != c.want {
			t.Errorf("%v.ConvertibleTo(%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestParseResolutionRoundTrip(t *testing.T) {
	for r, name := range map[Resolution]string{GPS: "gps", ZipCode: "zip", Neighborhood: "neighborhood", City: "city"} {
		if r.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), name)
		}
		got, err := ParseResolution(name)
		if err != nil || got != r {
			t.Errorf("ParseResolution(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseResolution("borough"); err == nil {
		t.Error("expected error for unknown resolution")
	}
}

func testCity(t *testing.T) *CityMap {
	t.Helper()
	c, err := Generate(Config{Seed: 42, GridW: 48, GridH: 48, Neighborhoods: 40, ZipCodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCells() != b.NumCells() || a.NumRegions(Neighborhood) != b.NumRegions(Neighborhood) {
		t.Error("same seed must generate identical cities")
	}
	// The default city is NYC-sized: the paper's ~300 regions at both the
	// zip-code and the neighborhood resolution.
	for _, res := range []Resolution{ZipCode, Neighborhood} {
		if n := a.NumRegions(res); n < 150 || n > 400 {
			t.Errorf("default city has %d regions at %v, want 150–400", n, res)
		}
	}
	cdiff, err := Generate(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCells() == cdiff.NumCells() && a.NumRegions(Neighborhood) == cdiff.NumRegions(Neighborhood) {
		t.Log("different seeds produced same stats (possible but unlikely)")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{GridW: 2, GridH: 2, Neighborhoods: 1, ZipCodes: 1}); err == nil {
		t.Error("expected error for tiny grid")
	}
	if _, err := Generate(Config{GridW: 16, GridH: 16, Neighborhoods: 0, ZipCodes: 1}); err == nil {
		t.Error("expected error for zero regions")
	}
}

func TestCityPartitionsCoverAllCells(t *testing.T) {
	c := testCity(t)
	for _, res := range []Resolution{ZipCode, Neighborhood} {
		n := c.NumRegions(res)
		counts := make([]int, n)
		for cell := 0; cell < c.NumCells(); cell++ {
			r := c.RegionOfCell(cell, res)
			if r < 0 || r >= n {
				t.Fatalf("cell %d region %d out of range at %v", cell, r, res)
			}
			counts[r]++
		}
		for id, cnt := range counts {
			if cnt == 0 {
				t.Errorf("region %d at %v is empty", id, res)
			}
		}
	}
}

func TestCityRegionsContiguous(t *testing.T) {
	c := testCity(t)
	// Every neighborhood must be 4-connected through its own cells.
	res := Neighborhood
	n := c.NumRegions(res)
	visited := make([]bool, c.NumCells())
	comps := make([]int, n)
	for start := 0; start < c.NumCells(); start++ {
		if visited[start] {
			continue
		}
		region := c.RegionOfCell(start, res)
		comps[region]++
		stack := []int{start}
		visited[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range c.Adjacency(GPS)[v] {
				if !visited[u] && c.RegionOfCell(u, res) == region {
					visited[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	for id, k := range comps {
		if k != 1 {
			t.Errorf("neighborhood %d has %d connected components, want 1", id, k)
		}
	}
}

func TestCityAdjacencySymmetricIrreflexive(t *testing.T) {
	c := testCity(t)
	for _, res := range []Resolution{ZipCode, Neighborhood} {
		adj := c.Adjacency(res)
		for i, nbrs := range adj {
			seen := map[int]bool{}
			for _, j := range nbrs {
				if j == i {
					t.Errorf("region %d adjacent to itself at %v", i, res)
				}
				if seen[j] {
					t.Errorf("duplicate adjacency %d-%d at %v", i, j, res)
				}
				seen[j] = true
				found := false
				for _, k := range adj[j] {
					if k == i {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("adjacency not symmetric: %d->%d at %v", i, j, res)
				}
			}
		}
	}
}

func TestCityAdjacencyConnected(t *testing.T) {
	// The region adjacency graph must be connected (the city is one
	// landmass), which the toroidal BFS shift relies on.
	c := testCity(t)
	adj := c.Adjacency(Neighborhood)
	n := len(adj)
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	if count != n {
		t.Errorf("neighborhood adjacency graph has %d reachable of %d regions", count, n)
	}
}

func TestLocateAndRegionOf(t *testing.T) {
	c := testCity(t)
	inf, nan := math.Inf(1), math.NaN()
	for _, p := range []Point{
		{-5, -5}, {nan, 1}, {1, nan}, {inf, 1}, {-inf, 1}, {1, inf}, {1, -inf},
		{1e300, 1}, {-1e300, 1}, {1, 1e300}, {1, -1e300}, {48, 1}, {1, 48},
	} {
		if got := c.Locate(p); got != -1 {
			t.Errorf("Locate(%v) = %d, want -1 (outside)", p, got)
		}
	}
	if c.RegionOf(Point{-5, -5}, City) != -1 {
		t.Error("outside point should map to region -1")
	}
	// A land cell center must locate back to itself.
	for cell := 0; cell < c.NumCells(); cell += 17 {
		p := c.CellCenter(cell)
		if got := c.Locate(p); got != cell {
			t.Fatalf("Locate(center of %d) = %d", cell, got)
		}
		if got := c.RegionOf(p, City); got != 0 {
			t.Fatalf("city region = %d, want 0", got)
		}
	}
}

func TestRandomPointOnLand(t *testing.T) {
	c := testCity(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := c.RandomPoint(rng)
		if c.Locate(p) < 0 {
			t.Fatalf("RandomPoint produced water/outside point %v", p)
		}
	}
}

func TestRegionCounts(t *testing.T) {
	c := testCity(t)
	if c.NumRegions(City) != 1 {
		t.Errorf("city regions = %d, want 1", c.NumRegions(City))
	}
	if c.NumRegions(Neighborhood) < 10 {
		t.Errorf("too few neighborhoods: %d", c.NumRegions(Neighborhood))
	}
	if c.NumRegions(ZipCode) < 10 {
		t.Errorf("too few zips: %d", c.NumRegions(ZipCode))
	}
	if c.NumRegions(GPS) != c.NumCells() {
		t.Error("GPS regions should equal cell count")
	}
}
