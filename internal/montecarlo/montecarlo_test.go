package montecarlo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

func ring(n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		adj[i] = []int{(i + 1) % n, (i + n - 1) % n}
	}
	return adj
}

func grid(w, h int) [][]int {
	adj := make([][]int, w*h)
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				adj[at(x, y)] = append(adj[at(x, y)], at(x+1, y))
				adj[at(x+1, y)] = append(adj[at(x+1, y)], at(x, y))
			}
			if y+1 < h {
				adj[at(x, y)] = append(adj[at(x, y)], at(x, y+1))
				adj[at(x, y+1)] = append(adj[at(x, y+1)], at(x, y))
			}
		}
	}
	return adj
}

func isBijection(perm []int) bool {
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// TestResolvableCut pins Tarone's rule at its cuts: a one-region test over
// S steps reaches alpha exactly when 1/S <= alpha, and a multi-region test
// always can, however short its timeline.
func TestResolvableCut(t *testing.T) {
	for _, tc := range []struct {
		alpha          float64
		regions, steps int
		want           bool
	}{
		{0.05, 1, 19, false}, {0.05, 1, 20, true},
		{0.01, 1, 99, false}, {0.01, 1, 100, true},
		{0.05, 2, 1, true}, {0.01, 48, 3, true},
	} {
		if got := Resolvable(tc.alpha, tc.regions, tc.steps); got != tc.want {
			t.Errorf("Resolvable(%g, %d regions, %d steps) = %v, want %v", tc.alpha, tc.regions, tc.steps, got, tc.want)
		}
	}
}

func TestToroidalShiftBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var adj [][]int
		if seed%2 == 0 {
			adj = ring(3 + rng.Intn(40))
		} else {
			adj = grid(2+rng.Intn(6), 2+rng.Intn(6))
		}
		perm := ToroidalShift(adj, rng)
		return isBijection(perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestToroidalShiftPreservesAdjacency(t *testing.T) {
	// On a ring, the BFS shift should preserve nearly all adjacencies
	// (everything except possibly near the seam).
	adj := ring(40)
	rng := rand.New(rand.NewSource(5))
	total := 0.0
	for i := 0; i < 20; i++ {
		perm := ToroidalShift(adj, rng)
		total += AdjacencyPreserved(adj, perm)
	}
	if avg := total / 20; avg < 0.8 {
		t.Errorf("ring adjacency preservation = %.2f, want >= 0.8", avg)
	}

	gridAdj := grid(8, 8)
	total = 0
	for i := 0; i < 20; i++ {
		perm := ToroidalShift(gridAdj, rng)
		total += AdjacencyPreserved(gridAdj, perm)
	}
	if avg := total / 20; avg < 0.35 {
		t.Errorf("grid adjacency preservation = %.2f, want >= 0.35", avg)
	}

	// A uniform random permutation preserves far less on the grid.
	randTotal := 0.0
	for i := 0; i < 20; i++ {
		perm := rng.Perm(len(gridAdj))
		randTotal += AdjacencyPreserved(gridAdj, perm)
	}
	if randTotal/20 >= total/20 {
		t.Errorf("toroidal shift (%.2f) should beat random permutation (%.2f)",
			total/20, randTotal/20)
	}
}

func TestToroidalShiftSingleRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	perm := ToroidalShift([][]int{nil}, rng)
	if len(perm) != 1 || perm[0] != 0 {
		t.Errorf("single region shift = %v", perm)
	}
}

func TestAdjacencyPreservedIdentity(t *testing.T) {
	adj := ring(10)
	id := make([]int, 10)
	for i := range id {
		id[i] = i
	}
	if AdjacencyPreserved(adj, id) != 1 {
		t.Error("identity must preserve all adjacencies")
	}
	if AdjacencyPreserved([][]int{nil}, []int{0}) != 1 {
		t.Error("no edges should report full preservation")
	}
}

// mkSets builds feature sets on a 1-region x n-step graph.
func mkSets(t testing.TB, n int, aPos, aNeg, bPos, bNeg []int) (*feature.Set, *feature.Set, *stgraph.Graph) {
	t.Helper()
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pos, neg []int) *feature.Set {
		s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
		for _, i := range pos {
			s.Positive.Set(i)
		}
		for _, i := range neg {
			s.Negative.Set(i)
		}
		return s
	}
	return mk(aPos, aNeg), mk(bPos, bNeg), g
}

func TestScatteredCoincidenceIsSignificant(t *testing.T) {
	// Sparse, scattered, perfectly co-occurring features of mixed signs
	// (the hurricane pattern): rotations destroy the alignment, so the
	// observed tau = 1 is significant.
	// Feature sets are realistically dense (hourly functions have many
	// features); with very sparse sets a single-point chance overlap under
	// rotation already yields |tau_k| = 1, which weakens the tau statistic.
	rng := rand.New(rand.NewSource(9))
	n := 2000
	var pos, neg []int
	for i := 0; i < 80; i++ {
		pos = append(pos, rng.Intn(n))
		neg = append(neg, rng.Intn(n))
	}
	a, b, g := mkSets(t, n, pos, neg, pos, neg)
	m := relationship.Evaluate(a, b)
	res := Test(a, b, g, m.Tau, Config{Permutations: 400, Seed: 3})
	if !res.Significant {
		t.Errorf("co-occurring scattered features should be significant, p = %g", res.PValue)
	}
}

func TestIndependentFeaturesNotSignificant(t *testing.T) {
	// Features of a and b are independent random sets: the observed tau is
	// whatever chance gives, and the test must not call it significant.
	rng := rand.New(rand.NewSource(4))
	n := 2000
	randIdx := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = rng.Intn(n)
		}
		return out
	}
	a, b, g := mkSets(t, n, randIdx(30), randIdx(30), randIdx(30), randIdx(30))
	m := relationship.Evaluate(a, b)
	res := Test(a, b, g, m.Tau, Config{Permutations: 400, Seed: 8})
	if res.Significant {
		t.Errorf("independent features should not be significant, p = %g, tau = %g", res.PValue, m.Tau)
	}
}

func TestRestrictedVsStandardOnAutocorrelatedData(t *testing.T) {
	// Long co-located feature runs (strong temporal autocorrelation).
	// The standard test, run by its oracle, scatters features and finds the
	// alignment miraculous; the restricted test knows rotations keep runs
	// intact and sees the overlap as unremarkable. This is the paper's
	// point in Section 6.3 ("Effectiveness of Statistical Significance
	// Test"); TestStandardInflatesNullRejections asserts it on null pairs.
	n := 1000
	var pos, neg []int
	for i := 100; i < 160; i++ {
		pos = append(pos, i)
	}
	for i := 400; i < 460; i++ {
		neg = append(neg, i)
	}
	a, b, g := mkSets(t, n, pos, neg, pos, neg)
	m := relationship.Evaluate(a, b)

	restricted := Test(a, b, g, m.Tau, Config{Permutations: 500, Seed: 42})
	standard := standardTest(a, b, m.Tau, 500, DefaultAlpha, 42)
	if restricted.PValue <= standard.PValue {
		t.Errorf("restricted p (%g) should exceed standard p (%g) on autocorrelated runs",
			restricted.PValue, standard.PValue)
	}
	if !standard.Significant {
		t.Errorf("standard test should (wrongly) call this significant, p = %g", standard.PValue)
	}
}

func TestSpatialShiftTest(t *testing.T) {
	// 2D domain: 36 regions x 40 steps; co-occurring hot spots.
	adj := grid(6, 6)
	g, err := stgraph.New(36, 40, adj)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	mk := func(idx []int) *feature.Set {
		s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
		for _, i := range idx {
			s.Positive.Set(i)
		}
		return s
	}
	rng := rand.New(rand.NewSource(77))
	var hot []int
	for i := 0; i < 70; i++ {
		hot = append(hot, rng.Intn(n))
	}
	a, b := mk(hot), mk(hot)
	// Give each side private negative features so tau varies under shifts.
	for i := 0; i < 50; i++ {
		a.Negative.Set(rng.Intn(n))
		b.Negative.Set(rng.Intn(n))
	}
	m := relationship.Evaluate(a, b)
	res := Test(a, b, g, m.Tau, Config{Permutations: 300, Seed: 12})
	if !res.Significant {
		t.Errorf("spatially co-occurring hot spots should be significant, p = %g", res.PValue)
	}
}

func TestDeterministicSeed(t *testing.T) {
	a, b, g := mkSets(t, 500, []int{5, 80, 200}, nil, []int{5, 80, 200}, nil)
	r1 := Test(a, b, g, 1, Config{Permutations: 200, Seed: 11})
	r2 := Test(a, b, g, 1, Config{Permutations: 200, Seed: 11})
	if r1.PValue != r2.PValue {
		t.Error("same seed must give same p-value")
	}
	r3 := Test(a, b, g, 1, Config{Permutations: 200, Seed: 12})
	_ = r3 // different seed may differ; just ensure it runs
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Permutations != DefaultPermutations || c.Alpha != DefaultAlpha {
		t.Errorf("defaults = %+v", c)
	}
}

func TestMismatchedGraphPanics(t *testing.T) {
	a, b, _ := mkSets(t, 10, nil, nil, nil, nil)
	g, err := stgraph.New(1, 11, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size mismatch")
		}
	}()
	Test(a, b, g, 0, Config{Permutations: 10})
}

func TestZeroTauNeverSignificant(t *testing.T) {
	a, b, g := mkSets(t, 300, []int{1, 2, 3}, nil, []int{100, 101}, nil)
	m := relationship.Evaluate(a, b)
	if m.Tau != 0 {
		t.Fatalf("tau = %g, want 0", m.Tau)
	}
	res := Test(a, b, g, m.Tau, Config{Permutations: 100, Seed: 1})
	if res.Significant {
		t.Error("tau = 0 must never be significant (p = 1)")
	}
	if res.PValue != 1 {
		t.Errorf("p = %g, want 1", res.PValue)
	}
}

func BenchmarkRestrictedTest1D(b *testing.B) {
	n := 24 * 365
	g, _ := stgraph.New(1, n, [][]int{nil})
	rng := rand.New(rand.NewSource(2))
	s1 := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	s2 := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	for i := 0; i < 50; i++ {
		v := rng.Intn(n)
		s1.Positive.Set(v)
		s2.Positive.Set(v)
		w := rng.Intn(n)
		s1.Negative.Set(w)
		s2.Negative.Set(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Test(s1, s2, g, 1.0, Config{Permutations: 1000, Seed: int64(i)})
	}
}

// ToroidalShift builds a random bijection over the regions of a spatial
// adjacency graph that preserves adjacency wherever possible: starting from
// a random seed mapping m(u) = v, adjacent regions of u are assigned to
// unused adjacent regions of v in breadth-first order; regions that cannot
// be placed next to their image neighborhood fall back to a random unused
// region (the graph analogue of wrapping an irregular domain onto a torus).
func ToroidalShift(adj [][]int, rng *rand.Rand) []int {
	var sc shiftScratch
	perm32 := make([]int32, len(adj))
	sc.toroidal(adj, rng, perm32)
	perm := make([]int, len(adj))
	for i, v := range perm32 {
		perm[i] = int(v)
	}
	return perm
}

// AdjacencyPreserved returns the fraction of directed edges (u, u') whose
// images remain adjacent under perm — a quality diagnostic for shifts.
// Neighbor lists are sorted once and membership resolved by binary search,
// so the cost is O(E log deg) rather than O(E·deg).
func AdjacencyPreserved(adj [][]int, perm []int) float64 {
	sorted := make([][]int, len(adj))
	for i, nbrs := range adj {
		s := slices.Clone(nbrs)
		slices.Sort(s)
		sorted[i] = s
	}
	total, kept := 0, 0
	for u, nbrs := range adj {
		for _, up := range nbrs {
			total++
			if _, ok := slices.BinarySearch(sorted[perm[u]], perm[up]); ok {
				kept++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(kept) / float64(total)
}
