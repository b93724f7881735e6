package topology

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// This file keeps the previous merge-tree sweep — sort.Slice over a
// comparison closure, a rank/path-halving union-find on int, the
// Neighbors callback, a negated value copy for split trees, leaves sorted
// after the sweep, critical points counted by sort-and-dedup — as the
// parity oracle of the kernel in sweep.go. It is the reference, not shared
// code: nothing here calls into the kernel.
//
// The oracle builds the whole tree. The kernel keeps only the persistence
// pairs; the rest of the structure — the edges and the root — is checked
// through the sweeper's edge hook (traceBoth).

// Edge is a merge-tree edge between two critical vertices; it represents
// the connected level-set component living between its endpoints.
type Edge struct {
	Upper, Lower int // for join trees, f(Upper) > f(Lower) in perturbed order
}

// traced is a kernel tree with the structure the sweep does not keep: its
// edges, as the edge hook reports them, and its root, the vertex swept last
// (the global minimum of a join tree, the global maximum of a split tree).
type traced struct {
	*Tree
	Edges []Edge
	Root  int
}

// traceBoth builds both trees of vals on g on a fresh sweeper with the edge
// hook set.
func traceBoth(g *stgraph.Graph, vals []float64) (join, split traced) {
	s := new(sweeper)
	var edges []Edge
	s.edge = func(upper, lower int32) { edges = append(edges, Edge{Upper: int(upper), Lower: int(lower)}) }
	run := func(kind Kind) traced {
		edges = nil
		s.sweep(g, vals, kind, &s.ext)
		return traced{Tree: s.tree(kind), Edges: edges, Root: int(s.lastSwept(kind))}
	}
	s.sortDescending(vals, g.NumRegions())
	join = run(Join)
	s.splitOrder()
	return join, run(Split)
}

type oracleTree struct {
	vals   []float64 // sweep values: negated for split trees
	Leaves []int
	Pairs  []Pair
	Edges  []Edge
	Root   int
}

type oracleUF struct {
	parent []int32
	rank   []int8
}

func newOracleUF(n int) *oracleUF {
	uf := &oracleUF{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *oracleUF) find(x int) int {
	p := uf.parent
	for p[x] != int32(x) {
		p[x] = p[p[x]]
		x = int(p[x])
	}
	return x
}

func (uf *oracleUF) union(x, y int) int {
	rx, ry := uf.find(x), uf.find(y)
	if rx == ry {
		return rx
	}
	switch {
	case uf.rank[rx] < uf.rank[ry]:
		rx, ry = ry, rx
	case uf.rank[rx] == uf.rank[ry]:
		uf.rank[rx]++
	}
	uf.parent[ry] = int32(rx)
	return rx
}

func oracleJoin(g *stgraph.Graph, vals []float64) *oracleTree {
	t := &oracleTree{vals: vals}
	t.sweep(g)
	return t
}

func oracleSplit(g *stgraph.Graph, vals []float64) *oracleTree {
	neg := make([]float64, len(vals))
	for i, v := range vals {
		neg[i] = -v
	}
	t := &oracleTree{vals: neg}
	t.sweep(g)
	return t
}

func (t *oracleTree) above(u, v int) bool {
	if t.vals[u] != t.vals[v] {
		return t.vals[u] > t.vals[v]
	}
	return u > v
}

func (t *oracleTree) sweep(g *stgraph.Graph) {
	n := g.NumVertices()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.above(order[a], order[b]) })

	uf := newOracleUF(n)
	head := make([]int32, n)
	creator := make([]int32, n)
	inSweep := make([]bool, n)
	var compRoots []int

	for _, v := range order {
		compRoots = compRoots[:0]
		g.Neighbors(v, func(u int) {
			if !inSweep[u] {
				return
			}
			r := uf.find(u)
			for _, cr := range compRoots {
				if cr == r {
					return
				}
			}
			compRoots = append(compRoots, r)
		})
		inSweep[v] = true

		switch len(compRoots) {
		case 0:
			r := uf.find(v)
			head[r] = int32(v)
			creator[r] = int32(v)
		case 1:
			h, c := head[compRoots[0]], creator[compRoots[0]]
			r := uf.union(v, compRoots[0])
			head[r] = h
			creator[r] = c
		default:
			oldest := compRoots[0]
			for _, r := range compRoots[1:] {
				if t.above(int(creator[r]), int(creator[oldest])) {
					oldest = r
				}
			}
			survivor := creator[oldest]
			for _, r := range compRoots {
				t.Edges = append(t.Edges, Edge{Upper: int(head[r]), Lower: v})
				if r != oldest {
					t.addPair(int(creator[r]), v, false)
				}
			}
			merged := uf.find(v)
			for _, r := range compRoots {
				merged = uf.union(merged, r)
			}
			head[merged] = int32(v)
			creator[merged] = survivor
		}
	}

	root := order[n-1]
	t.Root = root
	survivorRoot := uf.find(root)
	t.addPair(int(creator[survivorRoot]), root, true)
	if head[survivorRoot] != int32(root) {
		t.Edges = append(t.Edges, Edge{Upper: int(head[survivorRoot]), Lower: root})
	}

	idx := make([]int, len(t.Leaves))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.above(t.Leaves[idx[a]], t.Leaves[idx[b]]) })
	leaves := make([]int, len(idx))
	pairs := make([]Pair, len(idx))
	for i, j := range idx {
		leaves[i] = t.Leaves[j]
		pairs[i] = t.Pairs[j]
	}
	t.Leaves, t.Pairs = leaves, pairs
}

func (t *oracleTree) addPair(creator, destroyer int, essential bool) {
	p := Pair{
		Creator:     creator,
		Destroyer:   destroyer,
		Persistence: math.Abs(t.vals[destroyer] - t.vals[creator]),
		Essential:   essential,
	}
	if essential {
		p.Destroyer = -1
	}
	t.Leaves = append(t.Leaves, creator)
	t.Pairs = append(t.Pairs, p)
}

func (t *oracleTree) numCriticalPoints() int {
	vs := make([]int, 0, 2*len(t.Edges)+len(t.Leaves)+1)
	vs = append(vs, t.Root)
	for _, e := range t.Edges {
		vs = append(vs, e.Upper, e.Lower)
	}
	vs = append(vs, t.Leaves...)
	sort.Ints(vs)
	n := 0
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			n++
		}
	}
	return n
}

// sameTree compares a kernel tree with the oracle's pairs, leaves and
// critical-point count; persistence is compared by bits, so NaN (Inf - Inf)
// and zero signs count.
func sameTree(t *testing.T, what string, got *Tree, want *oracleTree) bool {
	t.Helper()
	if !sameExtrema(t, what, &got.Extrema, want) {
		return false
	}
	for i, p := range got.Pairs {
		if w := want.Pairs[i]; p.Creator != w.Creator || p.Destroyer != w.Destroyer || p.Essential != w.Essential ||
			math.Float64bits(p.Persistence) != math.Float64bits(w.Persistence) {
			t.Errorf("%s: Pairs = %v, oracle %v", what, got.Pairs, want.Pairs)
			return false
		}
	}
	return true
}

// sameExtrema compares the leaves, persistences and critical-point count
// the kernel wrote with the oracle's.
func sameExtrema(t *testing.T, what string, got *Extrema, want *oracleTree) bool {
	t.Helper()
	ok := true
	fail := func(field string, g, w any) {
		t.Helper()
		ok = false
		t.Errorf("%s: %s = %v, oracle %v", what, field, g, w)
	}
	if leaves := ints(got.Leaves); !reflect.DeepEqual(leaves, want.Leaves) {
		fail("Leaves", leaves, want.Leaves)
	}
	if len(got.Persistence) != len(want.Pairs) {
		fail("len(Persistence)", len(got.Persistence), len(want.Pairs))
	} else {
		for i, p := range got.Persistence {
			if math.Float64bits(p) != math.Float64bits(want.Pairs[i].Persistence) {
				fail("Persistence", got.Persistence, want.Pairs)
				break
			}
		}
	}
	if got.Critical != want.numCriticalPoints() {
		fail("NumCriticalPoints", got.Critical, want.numCriticalPoints())
	}
	return ok
}

// sameStructure is sameTree plus the edges and the root.
func sameStructure(t *testing.T, what string, got traced, want *oracleTree) bool {
	t.Helper()
	ok := sameTree(t, what, got.Tree, want)
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		ok = false
		t.Errorf("%s: Edges = %v, oracle %v", what, got.Edges, want.Edges)
	}
	if got.Root != want.Root {
		ok = false
		t.Errorf("%s: Root = %d, oracle %d", what, got.Root, want.Root)
	}
	return ok
}

// checkKernel runs every kernel entry point on (g, vals) against the oracle.
func checkKernel(t *testing.T, what string, g *stgraph.Graph, vals []float64) bool {
	t.Helper()
	wantJoin, wantSplit := oracleJoin(g, vals), oracleSplit(g, vals)
	join, split := ComputeBoth(g, vals)
	ok := checkSortOrder(t, what, vals)
	tj, ts := traceBoth(g, vals)
	ok = sameStructure(t, what+" traced join", tj, wantJoin) && ok
	ok = sameStructure(t, what+" traced split", ts, wantSplit) && ok
	var xj, xs Extrema
	Persistence(g, vals, &xj, &xs)
	ok = sameExtrema(t, what+" Persistence join", &xj, wantJoin) && ok
	ok = sameExtrema(t, what+" Persistence split", &xs, wantSplit) && ok
	ok = sameTree(t, what+" ComputeBoth join", join, wantJoin) && ok
	ok = sameTree(t, what+" ComputeBoth split", split, wantSplit) && ok
	ok = sameTree(t, what+" ComputeJoin", ComputeJoin(g, vals), wantJoin) && ok
	ok = sameTree(t, what+" ComputeSplit", ComputeSplit(g, vals), wantSplit) && ok
	if !ok {
		t.Logf("%s: %d regions x %d steps, adjacency %v, values %v",
			what, g.NumRegions(), g.NumSteps(), g.SpatialAdjacency(), vals)
	}
	return ok
}

// randomDomain draws a random symmetric region adjacency (possibly
// disconnected, possibly dense enough for multi-saddles) and step count.
// One domain in four is 63, 64, 65 or 130 regions wide over a few steps, so
// the kernel's bit rows span one, two and three words; half of those have a
// few neighbours per region, like a city map.
func randomDomain(rng *rand.Rand) *stgraph.Graph {
	nRegions, nSteps, density := 1+rng.Intn(7), 1+rng.Intn(9), rng.Float64()
	if rng.Intn(4) == 0 {
		nRegions, nSteps = []int{63, 64, 65, 130}[rng.Intn(4)], 1+rng.Intn(4)
		if rng.Intn(2) == 0 {
			density *= 8 / float64(nRegions)
		}
	}
	adj := make([][]int, nRegions)
	for a := 0; a < nRegions; a++ {
		for b := a + 1; b < nRegions; b++ {
			if rng.Float64() < density {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	for _, nbrs := range adj { // neighbor order is part of the contract
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
	}
	g, err := stgraph.New(nRegions, nSteps, adj)
	if err != nil {
		panic(err)
	}
	return g
}

// valueStyles are the value distributions of the parity property: each
// stresses a different part of the key transform, the tie rule or the
// plateau splice of the sort.
var valueStyles = []struct {
	name   string
	values func(rng *rand.Rand, n int) []float64
}{
	{"plateau", each(func(*rand.Rand) float64 { return 3 })},
	{"two-levels", each(func(rng *rand.Rand) float64 { return float64(rng.Intn(2)) })},
	{"four-levels", each(func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) - 1.5 })},
	{"signed-zeros", each(func(rng *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
	})},
	{"infinities", each(func(rng *rand.Rand) float64 {
		return []float64{math.Inf(1), math.Inf(-1), 0, 2.5, -2.5}[rng.Intn(5)]
	})},
	{"dense", each(func(rng *rand.Rand) float64 { return rng.NormFloat64() * 1e3 })},
	{"tiny-and-huge", each(func(rng *rand.Rand) float64 {
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(2000)-1000)
	})},
	// A dominant value (>= 90 % of vertices) at the minimum, in the middle
	// and at the maximum: zero counts and the imputed mean.
	{"dominant-min", dominant(0, func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(3)) })},
	{"dominant-middle", dominant(0.25, func(rng *rand.Rand) float64 { return rng.NormFloat64() })},
	{"dominant-max", dominant(7, func(rng *rand.Rand) float64 { return -float64(rng.Intn(3)) + rng.Float64() })},
	// An imputed mean: a dominant value with coarse values on both sides,
	// off it in bursts of consecutive ids, so runs stop at the top and the
	// bottom of the domain as well as at a burst.
	{"mid-plateau", func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 2.5
		}
		for off := n / 10; off > 0; {
			for v, k := rng.Intn(n), 1+rng.Intn(4); k > 0 && v < n && off > 0; v, k, off = v+1, k-1, off-1 {
				vals[v] = float64(rng.Intn(6))
			}
		}
		return vals
	}},
	// Two values in equal shares, so the majority vote has no majority.
	{"even-tie", func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i % 2)
		}
		if n%2 == 1 {
			vals[n-1] = 0.5 // the rest ties exactly
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return vals
	}},
}

// each draws every vertex's value independently.
func each(draw func(rng *rand.Rand) float64) func(*rand.Rand, int) []float64 {
	return func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = draw(rng)
		}
		return vals
	}
}

// dominant sets at least 90 % of the vertices to plateau and draws the rest.
func dominant(plateau float64, other func(rng *rand.Rand) float64) func(*rand.Rand, int) []float64 {
	return func(rng *rand.Rand, n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = plateau
		}
		for _, v := range rng.Perm(n)[:n/10] {
			vals[v] = other(rng)
		}
		return vals
	}
}

func TestKernelMatchesOracle(t *testing.T) {
	for _, style := range valueStyles {
		style := style
		t.Run(style.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				g := randomDomain(rng)
				return checkKernel(t, style.name, g, style.values(rng, g.NumVertices()))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkSortOrder compares the kernel's join order — s.order up to below,
// the plateau in descending id, the rest of s.order — with a stable
// comparison sort on (value desc, id desc), its keys with the order's
// values, and the forest's first state with the plateau's runs: on a
// one-region domain a run is consecutive ids, all linked to one run node
// numbered from the top down after the vertices.
func checkSortOrder(t *testing.T, what string, vals []float64) bool {
	t.Helper()
	want := make([]int32, len(vals))
	for i := range want {
		want[i] = int32(len(vals) - 1 - i)
	}
	sort.SliceStable(want, func(a, b int) bool { return sortKey(vals[want[a]]) < sortKey(vals[want[b]]) })
	s := new(sweeper)
	s.sortDescending(vals, 1)
	got := append([]int32(nil), s.order[:s.below]...)
	for v := len(vals) - 1; v >= 0; v-- {
		if s.plat[v]&1 != 0 {
			got = append(got, int32(v))
		}
	}
	got = append(got, s.order[s.below:]...)
	if run := len(got) - len(s.order); !reflect.DeepEqual(got, want) || run > 0 && s.last != got[s.below+run-1] {
		t.Errorf("%s: join order %v (plateau ending at %d), stable sort %v (values %v)", what, got, s.last, want, vals)
		return false
	}
	for i, v := range s.order {
		if s.keys[i] != sortKey(vals[v]) {
			t.Errorf("%s: key %d = %#x, want the key of vertex %d", what, i, s.keys[i], v)
			return false
		}
	}
	runs := int32(len(vals)) // the next run's node
	for v := len(vals) - 1; v >= 0; v-- {
		want := int32(unswept)
		switch {
		case s.plat[v]&1 == 0:
		case v+1 < len(vals) && s.plat[v+1]&1 != 0:
			want = s.parent[v+1]
		default:
			want, runs = runs, runs+1
		}
		if s.parent[v] != want {
			t.Errorf("%s: vertex %d links to %d, want %d (its run's node, or unswept)", what, v, s.parent[v], want)
			return false
		}
	}
	if int(runs) != len(s.parent) || slices.ContainsFunc(s.parent[len(vals):], func(p int32) bool { return p != unswept }) {
		t.Errorf("%s: %d slots for %d vertices and %d runs, run slots %v", what, len(s.parent), len(vals), int(runs)-len(vals), s.parent[len(vals):])
		return false
	}
	return true
}

func TestSortMatchesStableSort(t *testing.T) {
	for _, style := range valueStyles {
		style := style
		t.Run(style.name, func(t *testing.T) {
			prop := func(seed int64, size uint16) bool {
				rng := rand.New(rand.NewSource(seed))
				return checkSortOrder(t, style.name, style.values(rng, 1+int(size)%3000))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestKernelEdgeCases(t *testing.T) {
	star := [][]int{{1, 2, 3, 4}, {0}, {0}, {0}, {0}}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name           string
		regions, steps int
		adj            [][]int
		vals           []float64
	}{
		{"single vertex", 1, 1, [][]int{nil}, []float64{7}},
		{"one-region chain", 1, 9, [][]int{nil}, figure2Values()},
		{"one-region plateau chain", 1, 6, [][]int{nil}, []float64{2, 2, 2, 2, 2, 2}},
		{"one-step star, 4-way join multi-saddle", 5, 1, star, []float64{0, 5, 6, 7, 8}},
		{"one-step star, 4-way split multi-saddle", 5, 1, star, []float64{9, 5, 6, 7, 8}},
		{"one-step star, tied spokes", 5, 1, star, []float64{0, 5, 5, 5, 5}},
		{"isolated regions, one step", 3, 1, [][]int{nil, nil, nil}, []float64{1, 3, 2}},
		{"isolated regions over time", 3, 3, [][]int{nil, nil, nil}, []float64{1, 3, 2, 4, 0, 2, 1, 5, 2}},
		{"two islands with inner saddles", 6, 1, [][]int{{1}, {0, 2}, {1}, {4}, {3, 5}, {4}},
			[]float64{5, 1, 4, 9, 2, 8}},
		{"signed zeros tie", 1, 4, [][]int{nil}, []float64{0, negZero, 0, negZero}},
		{"infinite range", 1, 3, [][]int{nil}, []float64{math.Inf(1), 0, math.Inf(-1)}},
		{"all +Inf", 2, 2, [][]int{{1}, {0}}, []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}},
	}
	for _, c := range cases {
		g, err := stgraph.New(c.regions, c.steps, c.adj)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkKernel(t, c.name, g, c.vals)
	}
}

// A sweeper that has served a larger domain must build the same trees on a
// smaller one: stale keys, parents and components may not leak through.
func TestPooledScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big, err := stgraph.New(5, 40, [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	bigVals := make([]float64, big.NumVertices())
	for i := range bigVals {
		bigVals[i] = float64(rng.Intn(5))
	}
	small, err := stgraph.New(2, 7, [][]int{{1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	smallVals := make([]float64, small.NumVertices())
	for i := range smallVals {
		smallVals[i] = rng.NormFloat64()
	}

	s := new(sweeper)
	build := func(g *stgraph.Graph, vals []float64) (*Tree, *Tree) {
		s.sortDescending(vals, g.NumRegions())
		s.sweep(g, vals, Join, &s.ext)
		join := s.tree(Join)
		s.splitOrder()
		s.sweep(g, vals, Split, &s.ext)
		return join, s.tree(Split)
	}
	build(big, bigVals)
	join, split := build(small, smallVals)
	sameTree(t, "reused scratch join", join, oracleJoin(small, smallVals))
	sameTree(t, "reused scratch split", split, oracleSplit(small, smallVals))
	join, split = build(big, bigVals)
	sameTree(t, "regrown scratch join", join, oracleJoin(big, bigVals))
	sameTree(t, "regrown scratch split", split, oracleSplit(big, bigVals))
}

// Concurrent builds share the graph (read-only CSR) and the sweeper pool;
// run under -race.
func TestConcurrentComputeBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDomain(rng)
	const workers = 8
	vals := make([][]float64, workers)
	for w := range vals {
		vals[w] = make([]float64, g.NumVertices())
		for i := range vals[w] {
			vals[w][i] = float64(rng.Intn(4))
		}
	}
	type built struct{ join, split *Tree }
	out := make([][]built, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j, s := ComputeBoth(g, vals[w])
				out[w] = append(out[w], built{j, s})
			}
		}(w)
	}
	wg.Wait()
	for w, trees := range out {
		wantJoin, wantSplit := oracleJoin(g, vals[w]), oracleSplit(g, vals[w])
		for _, b := range trees {
			if !sameTree(t, "concurrent join", b.join, wantJoin) || !sameTree(t, "concurrent split", b.split, wantSplit) {
				return
			}
		}
	}
}

// TestPlateauShortcutFires pins that the bit rows, not the neighbour walk,
// settle the plateau of the (hour, neighbourhood) shapes — 48 regions x
// 8,784 steps, a count with 95 % zeros and an average with 97 % at the
// imputed mean — in both trees: the parity tests cannot see a shortcut that
// silently stops firing.
func TestPlateauShortcutFires(t *testing.T) {
	const regions, steps = 48, 8784
	g, err := stgraph.New(regions, steps, gridAdjacency(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		values  func(*rand.Rand, int) []float64
		plateau float64
		share   float64
	}{
		{"hourly counts", hourlyCounts(regions), 0, 0.94},
		{"hourly means", hourlyMeans(regions), 12.375, 0.96},
	} {
		vals := c.values(rand.New(rand.NewSource(3)), g.NumVertices())
		s := new(sweeper)
		s.sortDescending(vals, regions)
		run := 0
		for _, w := range s.plat {
			run += bits.OnesCount64(w)
		}
		if share := float64(run) / float64(len(vals)); share < c.share || vals[s.last] != c.plateau {
			t.Fatalf("%s: plateau is %.1f %% of the vertices at %v, want %v at >= %.0f %%",
				c.name, 100*share, vals[s.last], c.plateau, 100*c.share)
		}
		s.sweep(g, vals, Join, &s.ext)
		join, joinSettled := s.tree(Join), s.shortcuts
		s.splitOrder()
		s.sweep(g, vals, Split, &s.ext)
		split := s.tree(Split)
		for _, k := range []struct {
			kind    Kind
			settled int
		}{{Join, joinSettled}, {Split, s.shortcuts}} {
			share := float64(k.settled) / float64(run)
			t.Logf("%s %v: %d of %d plateau vertices (%.1f %%) settled by the rows", c.name, k.kind, k.settled, run, 100*share)
			if share < 0.9 {
				t.Errorf("%s %v: %.1f %% of the plateau settled by the rows, want >= 90 %%", c.name, k.kind, 100*share)
			}
		}
		sameTree(t, c.name+" join", join, oracleJoin(g, vals))
		sameTree(t, c.name+" split", split, oracleSplit(g, vals))
	}
}

// FuzzMergeTreeOracle compares the kernel with the oracle on a decoded
// domain: byte 0 picks 1–130 regions, byte 1 1–64 steps, byte 2 1–4 value
// levels and byte 3 an edge count; that many byte pairs name the edges
// (made symmetric, self-loops and repeats skipped), and the bytes after
// them, repeated, give the levels of the vertices.
func FuzzMergeTreeOracle(f *testing.F) {
	f.Add([]byte{0, 8, 1, 0})
	f.Add([]byte{62, 2, 2, 3, 0, 1, 1, 2, 61, 62, 0, 1, 1, 0, 1})
	f.Add([]byte{63, 3, 3, 4, 0, 63, 63, 62, 10, 11, 32, 31, 0, 2, 1, 0, 0, 0})
	f.Add([]byte{64, 2, 2, 3, 64, 0, 63, 64, 1, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{129, 1, 4, 6, 0, 129, 64, 65, 127, 128, 63, 64, 1, 2, 5, 70, 0, 0, 0, 1, 2, 3, 0})
	f.Add([]byte{2, 63, 2, 2, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nRegions, nSteps, levels := 1+int(data[0])%130, 1+int(data[1])%64, 1+int(data[2])%4
		adj := make([][]int, nRegions)
		linked := map[[2]int]bool{}
		rest := data[4:]
		for e := int(data[3]); e > 0 && len(rest) >= 2; e-- {
			a, b := int(rest[0])%nRegions, int(rest[1])%nRegions
			rest = rest[2:]
			if key := [2]int{min(a, b), max(a, b)}; a != b && !linked[key] {
				linked[key] = true
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
		g, err := stgraph.New(nRegions, nSteps, adj)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, g.NumVertices())
		if len(rest) > 0 {
			for i := range vals {
				vals[i] = float64(int(rest[i%len(rest)]) % levels)
			}
		}
		checkKernel(t, "fuzz", g, vals)
	})
}
