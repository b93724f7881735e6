package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// chain builds a 1-region-per-vertex time series graph of length n
// (a pure 1D function, like Figure 2 of the paper).
func chain(t testing.TB, n int) *stgraph.Graph {
	t.Helper()
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// figure2 reproduces the 1D function of Figure 2: maxima at v2, v4, v6, v8
// and minima at v1, v3, v5, v7, v9 (indices 1..9 here, with boundary
// vertices as the endpoints).
//
// index:  0    1    2    3    4    5    6    7    8
// value:  1.0  6.0  2.0  5.0  3.5  4.5  0.5  8.0  0.0
func figure2Values() []float64 {
	return []float64{1.0, 6.0, 2.0, 5.0, 3.5, 4.5, 0.5, 8.0, 0.0}
}

func TestJoinTreeLeavesAreMaxima(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	jt := ComputeJoin(g, vals)
	// Local maxima of the sequence: indices 1 (6.0), 3 (5.0), 5 (4.5), 7 (8.0).
	want := map[int]bool{1: true, 3: true, 5: true, 7: true}
	if len(jt.Leaves) != len(want) {
		t.Fatalf("join leaves = %v, want the 4 maxima", jt.Leaves)
	}
	for _, l := range ints(jt.Leaves) {
		if !want[l] {
			t.Errorf("leaf %d is not a maximum", l)
		}
	}
	// Leaves must be sorted by decreasing value: 7, 1, 3, 5.
	wantOrder := []int{7, 1, 3, 5}
	for i, l := range ints(jt.Leaves) {
		if l != wantOrder[i] {
			t.Fatalf("leaf order = %v, want %v", jt.Leaves, wantOrder)
		}
	}
}

func TestSplitTreeLeavesAreMinima(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	st := ComputeSplit(g, vals)
	// Local minima: 0 (1.0), 2 (2.0), 4 (3.5), 6 (0.5), 8 (0.0).
	want := map[int]bool{0: true, 2: true, 4: true, 6: true, 8: true}
	if len(st.Leaves) != len(want) {
		t.Fatalf("split leaves = %v, want the 5 minima", st.Leaves)
	}
	for _, l := range ints(st.Leaves) {
		if !want[l] {
			t.Errorf("leaf %d is not a minimum", l)
		}
	}
}

func TestJoinPersistencePairing(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	jt, _ := traceBoth(g, vals)

	// Expected pairing in a descending sweep:
	// max 7 (8.0) is global -> essential, persistence = 8.0 - 0.0 = 8.
	// max 1 (6.0) merges with 7's component at saddle 6 (0.5): pi = 5.5.
	// max 3 (5.0) merges with 1's component at saddle 2 (2.0): pi = 3.0.
	// max 5 (4.5) merges with 3's component at saddle 4 (3.5): pi = 1.0.
	wantPersistence := map[int]float64{7: 8.0, 1: 5.5, 3: 3.0, 5: 1.0}
	wantDestroyer := map[int]int{7: -1, 1: 6, 3: 2, 5: 4}
	for i, leaf := range ints(jt.Leaves) {
		p := jt.Pairs[i]
		if math.Abs(p.Persistence-wantPersistence[leaf]) > 1e-12 {
			t.Errorf("persistence of max %d = %g, want %g", leaf, p.Persistence, wantPersistence[leaf])
		}
		if p.Destroyer != wantDestroyer[leaf] {
			t.Errorf("destroyer of max %d = %d, want %d", leaf, p.Destroyer, wantDestroyer[leaf])
		}
		if (leaf == 7) != p.Essential {
			t.Errorf("essential flag of max %d = %v", leaf, p.Essential)
		}
	}
	if jt.Root != 8 {
		t.Errorf("join root = %d, want 8 (global minimum)", jt.Root)
	}
}

func TestSuperLevelSetFigure2(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	jt := ComputeJoin(g, vals)

	// theta = 4.0: {1 (6.0), 3 (5.0), 5 (4.5), 7 (8.0)} — four components.
	got := levelSetVertices(g, vals, jt, 4.0)
	want := []int{1, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("super-level(4.0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("super-level(4.0) = %v, want %v", got, want)
		}
	}

	// theta = 3.0: adds vertex 4 (3.5), bridging maxima 3 and 5.
	got = levelSetVertices(g, vals, jt, 3.0)
	want = []int{1, 3, 4, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("super-level(3.0) = %v, want %v", got, want)
	}

	// theta above the global max: empty.
	if got := levelSetVertices(g, vals, jt, 9.0); len(got) != 0 {
		t.Errorf("super-level(9.0) = %v, want empty", got)
	}

	// theta below the global min: everything.
	if got := levelSetVertices(g, vals, jt, -1.0); len(got) != len(vals) {
		t.Errorf("super-level(-1) = %v, want all %d", got, len(vals))
	}
}

func TestSubLevelSetFigure2(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	st := ComputeSplit(g, vals)
	// theta = 1.0: {0 (1.0), 6 (0.5), 8 (0.0)}.
	got := levelSetVertices(g, vals, st, 1.0)
	want := []int{0, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("sub-level(1.0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sub-level(1.0) = %v, want %v", got, want)
		}
	}
}

func TestLevelSetRepeatedQueries(t *testing.T) {
	// The flood oracle must give identical results across calls.
	vals := figure2Values()
	g := chain(t, len(vals))
	jt := ComputeJoin(g, vals)
	first := levelSetVertices(g, vals, jt, 3.0)
	for i := 0; i < 5; i++ {
		got := levelSetVertices(g, vals, jt, 3.0)
		if len(got) != len(first) {
			t.Fatalf("query %d returned %v, first returned %v", i, got, first)
		}
	}
	// Interleave different thresholds.
	if got := levelSetVertices(g, vals, jt, 7.0); len(got) != 1 || got[0] != 7 {
		t.Errorf("super-level(7.0) = %v, want [7]", got)
	}
	if got := levelSetVertices(g, vals, jt, 3.0); len(got) != len(first) {
		t.Errorf("level set changed after interleaved query: %v", got)
	}
}

func TestLevelSetORsIntoExisting(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	jt := ComputeJoin(g, vals)
	out := bitvec.New(g.NumVertices())
	out.Set(0) // pre-existing bit must survive
	floodLevelSet(g, vals, jt, 7.0, out)
	if !out.Get(0) || !out.Get(7) {
		t.Error("the flood must OR into the output vector")
	}
}

func TestConstantFunction(t *testing.T) {
	g := chain(t, 5)
	vals := []float64{2, 2, 2, 2, 2}
	jt := ComputeJoin(g, vals)
	// Perturbation makes exactly one maximum (the highest-index vertex).
	if len(jt.Leaves) != 1 {
		t.Fatalf("constant function join leaves = %v, want 1", jt.Leaves)
	}
	if jt.Leaves[0] != 4 {
		t.Errorf("perturbed max = %d, want 4 (highest index)", jt.Leaves[0])
	}
	if !jt.Pairs[0].Essential || jt.Pairs[0].Persistence != 0 {
		t.Error("constant function should have one essential zero-persistence pair")
	}
	if got := levelSetVertices(g, vals, jt, 2.0); len(got) != 5 {
		t.Errorf("super-level(2.0) = %v, want all", got)
	}
	if got := levelSetVertices(g, vals, jt, 2.1); len(got) != 0 {
		t.Errorf("super-level(2.1) = %v, want empty", got)
	}
}

func TestSingleVertex(t *testing.T) {
	g, err := stgraph.New(1, 1, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{5}
	jt, _ := traceBoth(g, vals)
	if len(jt.Leaves) != 1 || jt.Root != 0 {
		t.Error("single vertex tree wrong")
	}
	if got := levelSetVertices(g, vals, jt.Tree, 5); len(got) != 1 {
		t.Error("single vertex level set wrong")
	}
}

// TestDiagram reads the persistence diagram of Figure 2's join tree off
// its pairs: one point per maximum, the essential one spanning the range.
func TestDiagram(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	jt := ComputeJoin(g, vals)
	if len(jt.Pairs) != 4 {
		t.Fatalf("diagram has %d points, want 4", len(jt.Pairs))
	}
	// In sweep order (value descending) the pairs of Figure 2 are also in
	// persistence order: 8, 5.5, 3, 1.
	wantP := []float64{8, 5.5, 3, 1}
	for i, p := range jt.Pairs {
		if math.Abs(p.Persistence-wantP[i]) > 1e-12 {
			t.Errorf("pair %d persistence = %g, want %g", i, p.Persistence, wantP[i])
		}
	}
	if p := jt.Pairs[0]; !p.Essential || vals[p.Creator] != 8.0 {
		t.Error("first diagram point should be the essential global max")
	}
	if p := jt.Pairs[1]; vals[p.Creator] != 6.0 || vals[p.Destroyer] != 0.5 {
		t.Errorf("pair 1 = %+v, want creation 6 destruction 0.5", p)
	}
}

func TestMultiSaddle(t *testing.T) {
	// Star graph: center region 0 adjacent to 3 spokes, 1 step.
	// Spokes higher than center: the center merges 3 components at once.
	adj := [][]int{{1, 2, 3}, {0}, {0}, {0}}
	g, err := stgraph.New(4, 1, adj)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, 5, 6, 7}
	jt := ComputeJoin(g, vals)
	if len(jt.Leaves) != 3 {
		t.Fatalf("star join leaves = %v, want 3 maxima", jt.Leaves)
	}
	// Creator 7 survives (essential); 5 and 6 both destroyed at vertex 0.
	for i, leaf := range ints(jt.Leaves) {
		p := jt.Pairs[i]
		switch leaf {
		case 3:
			if !p.Essential {
				t.Error("vertex 3 (value 7) should be essential")
			}
		case 1, 2:
			if p.Destroyer != 0 {
				t.Errorf("leaf %d destroyer = %d, want 0", leaf, p.Destroyer)
			}
		}
	}
}

// randomGraphAndValues builds a random grid-like domain graph and values.
func randomGraphAndValues(rng *rand.Rand) (*stgraph.Graph, []float64) {
	nRegions := 1 + rng.Intn(6)
	nSteps := 1 + rng.Intn(12)
	adj := make([][]int, nRegions)
	for r := 0; r+1 < nRegions; r++ { // path adjacency between regions
		adj[r] = append(adj[r], r+1)
		adj[r+1] = append(adj[r+1], r)
	}
	g, err := stgraph.New(nRegions, nSteps, adj)
	if err != nil {
		panic(err)
	}
	vals := make([]float64, g.NumVertices())
	for i := range vals {
		vals[i] = math.Round(rng.Float64()*10) / 2 // coarse values force ties
	}
	return g, vals
}

// bruteLevelSet computes {v : f(v) >= theta} (join) or <= theta (split).
func bruteLevelSet(vals []float64, theta float64, kind Kind) map[int]bool {
	out := map[int]bool{}
	for v, x := range vals {
		if (kind == Join && x >= theta) || (kind == Split && x <= theta) {
			out[v] = true
		}
	}
	return out
}

// TestLevelSetMatchesBruteForce is the property behind extracting features
// by scan: on a connected domain the output-sensitive merge-tree flood
// equals the brute-force level set.
func TestLevelSetMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, vals := randomGraphAndValues(rng)
		jt := ComputeJoin(g, vals)
		st := ComputeSplit(g, vals)
		for trial := 0; trial < 8; trial++ {
			theta := rng.Float64()*12 - 1
			got := levelSetVertices(g, vals, jt, theta)
			want := bruteLevelSet(vals, theta, Join)
			if len(got) != len(want) {
				return false
			}
			for _, v := range got {
				if !want[v] {
					return false
				}
			}
			got = levelSetVertices(g, vals, st, theta)
			want = bruteLevelSet(vals, theta, Split)
			if len(got) != len(want) {
				return false
			}
			for _, v := range got {
				if !want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLeavesMatchLocalExtrema: join leaves must be exactly the local maxima
// under the perturbed order.
func TestLeavesMatchLocalExtrema(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, vals := randomGraphAndValues(rng)
		jt := ComputeJoin(g, vals)
		above := func(u, v int) bool {
			if vals[u] != vals[v] {
				return vals[u] > vals[v]
			}
			return u > v
		}
		wantMaxima := map[int]bool{}
		for v := 0; v < g.NumVertices(); v++ {
			isMax := true
			g.Neighbors(v, func(u int) {
				if above(u, v) {
					isMax = false
				}
			})
			if isMax {
				wantMaxima[v] = true
			}
		}
		if len(jt.Leaves) != len(wantMaxima) {
			return false
		}
		for _, l := range ints(jt.Leaves) {
			if !wantMaxima[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPairingBijection: every leaf has a pair; exactly one essential pair
// per connected component (our graphs are connected, so exactly one);
// persistence is non-negative and at most the function range.
func TestPairingBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, vals := randomGraphAndValues(rng)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, tree := range []*Tree{ComputeJoin(g, vals), ComputeSplit(g, vals)} {
			if len(tree.Pairs) != len(tree.Leaves) {
				return false
			}
			essentials := 0
			seen := map[int]bool{}
			for i, p := range tree.Pairs {
				if p.Creator != int(tree.Leaves[i]) {
					return false
				}
				if seen[p.Creator] {
					return false
				}
				seen[p.Creator] = true
				if p.Essential {
					essentials++
				}
				if p.Persistence < 0 || p.Persistence > hi-lo+1e-9 {
					return false
				}
			}
			if essentials != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestJoinSplitDuality: the join tree of f has the same structure as the
// split tree of -f (leaf sets coincide).
func TestJoinSplitDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, vals := randomGraphAndValues(rng)
		neg := make([]float64, len(vals))
		for i, v := range vals {
			neg[i] = -v
		}
		jt := ComputeJoin(g, vals)
		st := ComputeSplit(g, neg)
		if len(jt.Leaves) != len(st.Leaves) {
			return false
		}
		a := map[int]bool{}
		for _, l := range ints(jt.Leaves) {
			a[l] = true
		}
		for _, l := range ints(st.Leaves) {
			if !a[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNumCriticalPoints(t *testing.T) {
	vals := figure2Values()
	g := chain(t, len(vals))
	jt := ComputeJoin(g, vals)
	// Critical points of the join tree: 4 maxima + 3 saddles + root = 8.
	if got := jt.NumCriticalPoints(); got != 8 {
		t.Errorf("NumCriticalPoints = %d, want 8", got)
	}
}

func TestKindString(t *testing.T) {
	if Join.String() != "join" || Split.String() != "split" {
		t.Error("Kind.String wrong")
	}
}

func BenchmarkComputeJoin1D(b *testing.B) {
	n := 1 << 16
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeJoin(g, vals)
	}
}

// gridAdjacency is the rook adjacency of a w x h grid of regions.
func gridAdjacency(w, h int) [][]int {
	adj := make([][]int, w*h)
	for r := range adj {
		x, y := r%w, r/w
		if x > 0 {
			adj[r] = append(adj[r], r-1)
		}
		if x+1 < w {
			adj[r] = append(adj[r], r+1)
		}
		if y > 0 {
			adj[r] = append(adj[r], r-w)
		}
		if y+1 < h {
			adj[r] = append(adj[r], r+w)
		}
	}
	return adj
}

// hourlyBursts draws an hourly function over the given number of regions
// that holds base except in bursts: each region leaves it about once every
// `every` steps, for 1–15 consecutive steps of values from draw.
func hourlyBursts(regions, every int, base float64, draw func(*rand.Rand) float64) func(*rand.Rand, int) []float64 {
	return func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		for v := range vals {
			vals[v] = base
		}
		for r := 0; r < regions; r++ {
			for v := r; v < n; v += regions {
				if rng.Intn(every) != 0 {
					continue
				}
				for k := rng.Intn(15); k >= 0 && v < n; k-- {
					vals[v] = draw(rng)
					v += regions
				}
			}
		}
		return vals
	}
}

// hourlyCounts is a zero-inflated hourly count, about 95 % zeros: the
// shape of the (hour, neighbourhood) counts that hold most of an urban
// corpus's vertices.
func hourlyCounts(regions int) func(*rand.Rand, int) []float64 {
	return hourlyBursts(regions, 160, 0, func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(40)) })
}

// hourlyMeans is an hourly average with about 97 % of the vertices at the
// imputed mean and the observed values on both sides of it: the shape of
// an average attribute at (hour, zip).
func hourlyMeans(regions int) func(*rand.Rand, int) []float64 {
	const mean = 12.375
	return hourlyBursts(regions, 260, mean, func(rng *rand.Rand) float64 { return mean + 3*rng.NormFloat64() })
}

func benchmarkMergeTree3D(b *testing.B, w, h, steps int, values func(*rand.Rand, int) []float64) {
	g, err := stgraph.New(w*h, steps, gridAdjacency(w, h))
	if err != nil {
		b.Fatal(err)
	}
	vals := values(rand.New(rand.NewSource(1)), g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeBoth(g, vals)
	}
}

// BenchmarkMergeTree3D builds both trees of a function on a grid city over
// a year of hours. sparse and dense take the largest domain of a one-year
// hourly zip-code corpus, 256 regions x 8,760 steps (bit rows of four
// words): sparse is a zero-inflated count (a 70 % plateau), dense a
// full-mantissa average (no plateau). plateau48 and mean48 are the (hour,
// neighbourhood) shapes that hold most of an urban corpus's vertices, 48
// regions x 8,784 steps: a count with 95 % zeros (the plateau at the
// minimum) and an average with 97 % at the imputed mean (values on both
// sides). sparse-week and dense-week run the sparse and dense generators
// over one week of hours (256 x 168), so a round runs tens of ops where the
// year-long rows run one or two, whose times spread about ±20 % between
// rounds on a shared 2-core host.
func BenchmarkMergeTree3D(b *testing.B) {
	sparse := each(func(rng *rand.Rand) float64 {
		if rng.Intn(10) < 7 {
			return 0
		}
		return float64(rng.Intn(40))
	})
	dense := each(func(rng *rand.Rand) float64 { return rng.NormFloat64() })
	b.Run("sparse", func(b *testing.B) { benchmarkMergeTree3D(b, 16, 16, 8760, sparse) })
	b.Run("dense", func(b *testing.B) { benchmarkMergeTree3D(b, 16, 16, 8760, dense) })
	b.Run("plateau48", func(b *testing.B) { benchmarkMergeTree3D(b, 8, 6, 8784, hourlyCounts(48)) })
	b.Run("mean48", func(b *testing.B) { benchmarkMergeTree3D(b, 8, 6, 8784, hourlyMeans(48)) })
	b.Run("sparse-week", func(b *testing.B) { benchmarkMergeTree3D(b, 16, 16, 168, sparse) })
	b.Run("dense-week", func(b *testing.B) { benchmarkMergeTree3D(b, 16, 16, 168, dense) })
}

// ints widens vertex ids to int.
func ints(vs []int32) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
