package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// denseSets builds a pair of feature sets with roughly the given bit
// density, restricted to vertices in [lo, hi) — lo/hi model windowed and
// tile-compacted sub-domains where features cluster in a step range.
func denseSets(rng *rand.Rand, nVerts int, density float64, lo, hi int) (*feature.Set, *feature.Set) {
	mk := func() *feature.Set {
		return &feature.Set{Positive: bitvec.New(nVerts), Negative: bitvec.New(nVerts)}
	}
	a, b := mk(), mk()
	span := hi - lo
	k := int(density * float64(span))
	for i := 0; i < k; i++ {
		v := lo + rng.Intn(span)
		switch rng.Intn(3) {
		case 0:
			a.Positive.Set(v)
		case 1:
			a.Negative.Set(v)
		default:
			a.Positive.Set(v)
			a.Negative.Set(v) // overlapping signs exercise the union mask
		}
		w := lo + rng.Intn(span)
		if rng.Intn(2) == 0 {
			b.Positive.Set(w)
		} else {
			b.Negative.Set(w)
		}
	}
	return a, b
}

// setSigns makes function 2's feature signs disjoint, as real feature sets
// have them, and then gives k of its vertices, drawn with rng, both signs:
// with k = 0 the word walk may count it, with k > 0 only the feature walk
// does.
func setSigns(rng *rand.Rand, b *feature.Set, k int) {
	for _, v := range b.Positive.Ones() {
		b.Negative.Clear(v)
	}
	for range k {
		v := rng.Intn(b.NumVertices())
		b.Positive.Set(v)
		b.Negative.Set(v)
	}
}

// pairSets draws function 1 with about na features and function 2 with
// about nb, its signs disjoint, over n vertices.
func pairSets(rng *rand.Rand, n, na, nb int) (*feature.Set, *feature.Set) {
	a, _ := denseSets(rng, n, float64(na)/float64(n), 0, n)
	_, b := denseSets(rng, n, float64(nb)/float64(n), 0, n)
	setSigns(rng, b, 0)
	return a, b
}

// pathName names the counting path a test under walk w takes: the word
// walk, or the feature walk over one function's features. A word walk
// forced on a function 2 with vertices of both signs is a feature walk.
func pathName(w walk, b *feature.Set) string {
	switch w {
	case wordWalk:
		if b.Positive.AndCount(b.Negative) > 0 {
			return "word walk forced with both signs"
		}
		return "word walk"
	case flatA:
		return "flat walk over function 1"
	case flatB:
		return "flat walk over function 2"
	}
	return "chosen walk"
}

// gridGraph is the w x h grid over steps time steps; 1 x 1 is a pure time
// series, one region without neighbours.
func gridGraph(tb testing.TB, w, h, steps int) *stgraph.Graph {
	tb.Helper()
	adj := [][]int{nil}
	if w*h > 1 {
		adj = grid(w, h)
	}
	g, err := stgraph.New(w*h, steps, adj)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// shiftedTau is the oracle's tau: the direct transcription of the paper's
// definition. Each feature vertex of function 2 is carried through the
// vertex map sigma (region permutation + time transport) and probed against
// function 1's bit vectors one vertex at a time.
func shiftedTau(a *feature.Set, pos2, neg2 []int, sigma func(v int) int) float64 {
	var p, n, sigmaBoth int
	visit := func(verts []int, positive bool) {
		for _, v := range verts {
			w := sigma(v)
			inPos := a.Positive.Get(w)
			inNeg := a.Negative.Get(w)
			if !inPos && !inNeg {
				continue
			}
			sigmaBoth++
			if (positive && inPos) || (!positive && inNeg) {
				p++
			} else {
				n++
			}
		}
	}
	visit(pos2, true)
	visit(neg2, false)
	if sigmaBoth == 0 {
		return 0
	}
	return float64(p-n) / float64(sigmaBoth)
}

// oracleShifts is the oracle's transcription of the shift sequence, written
// out separately from ShiftPool: a fresh stream per permChunk shifts, seeded
// with chunkSeed(seed, chunk), and one public ToroidalShift per draw.
func oracleShifts(adj [][]int, seed int64, m int) [][]int {
	var src splitmix
	rng := rand.New(&src)
	shifts := make([][]int, m)
	for k := range shifts {
		if k%permChunk == 0 {
			src.state = uint64(chunkSeed(seed, k/permChunk))
		}
		shifts[k] = ToroidalShift(adj, rng)
	}
	return shifts
}

// enumerated reports whether the oracle enumerates a test's randomizations
// instead of drawing them: a test on one region, whose only randomizations
// are the S-1 rotations.
func enumerated(g *stgraph.Graph) bool {
	return g.NumRegions() == 1
}

// rotateTau is the oracle's tau under randomization (spatPerm, rot): region
// r of function 2 lands on spatPerm[r] (r itself when spatPerm is nil) and
// step s on step s+rot, wrapped.
func rotateTau(a *feature.Set, pos2, neg2 []int, g *stgraph.Graph, spatPerm []int, rot int) float64 {
	return shiftedTau(a, pos2, neg2, func(v int) int {
		r, s := g.RegionStep(v)
		if spatPerm != nil {
			r = spatPerm[r]
		}
		return g.Vertex(r, (s+rot)%g.NumSteps())
	})
}

// oracleTaus is the reference the production kernel is held to. It takes
// permutation k's spatial shift from oracleShifts and replays every chunk's
// per-test RNG stream itself — same chunkSeed, same rotation draws, written
// out here in the order the p-values are computed under — and evaluates each
// randomization per vertex through shiftedTau. It shares no tau arithmetic,
// no draw sequencing and no memo with testRun.chunk and ShiftPool, so a
// reordered draw, a miscounted word or a misindexed shift there shows up as
// a diverging permutation index. An enumerated test's stream is every
// rotation 1..S-1 in order, whatever cfg.Permutations says.
func oracleTaus(a, b *feature.Set, g *stgraph.Graph, cfg Config) []float64 {
	pos2, neg2 := b.Positive.Ones(), b.Negative.Ones()
	nSteps := g.NumSteps()
	if enumerated(g) {
		taus := make([]float64, nSteps-1)
		for k := range taus {
			taus[k] = rotateTau(a, pos2, neg2, g, nil, k+1)
		}
		return taus
	}
	seed := cfg.Seed ^ shiftStream
	if cfg.Shifts != nil {
		seed = cfg.Shifts.seed
	}
	shifts := oracleShifts(g.SpatialAdjacency(), seed, cfg.Permutations)
	var src splitmix
	rng := rand.New(&src)
	taus := make([]float64, cfg.Permutations)
	for i := range taus {
		if i%permChunk == 0 {
			src.state = uint64(chunkSeed(cfg.Seed, i/permChunk))
		}
		rot := 0
		if nSteps > 1 {
			rot = 1 + rng.Intn(nSteps-1)
		}
		taus[i] = rotateTau(a, pos2, neg2, g, shifts[i], rot)
	}
	return taus
}

// permInto fills buf with a uniform random permutation of [0, len(buf)),
// consuming the RNG exactly as rand.Perm does (the inside-out Fisher-Yates
// with one Intn(i+1) draw per element, in ascending order, asserted by
// TestPermIntoMatchesRandPerm). It is rand.Perm without the per-call
// allocation.
func permInto(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// standardTest is the standard (unrestricted) Monte Carlo test Section 6.3
// contrasts with the restricted one: each of m randomizations permutes all
// vertices uniformly (permInto), ignoring spatial and temporal dependence,
// and tau is taken per vertex (shiftedTau). p follows the package's
// two-sided rule, and the test stops where stopThreshold decides it
// insignificant, so the verdict is exact and a stopped p is conservative.
func standardTest(a, b *feature.Set, tau float64, m int, alpha float64, seed int64) Result {
	pos2, neg2 := b.Positive.Ones(), b.Negative.Ones()
	rng := rand.New(&splitmix{uint64(seed)})
	perm := make([]int, a.NumVertices())
	extreme, shifts := 0, 0
	for shifts < m && extreme < stopThreshold(alpha, m) {
		permInto(rng, perm)
		tk := shiftedTau(a, pos2, neg2, func(v int) int { return perm[v] })
		if tau != 0 && math.Abs(tk) >= math.Abs(tau) {
			extreme++
		}
		shifts++
	}
	p := float64(1+extreme) / float64(1+shifts)
	return Result{PValue: p, Significant: p <= alpha, TauObserved: tau, Shifts: shifts}
}

// oracleResult folds a tau stream into the Result a sequential scan
// reports: count the randomizations at least as extreme as tau, and unless
// exhaustive stop where the count proves p > alpha — for a drawn stream at
// the end of the first 50-wide chunk where it reaches alpha*(m+1), for an
// enumerated one at the rotation where (1+count)/(m+1) exceeds alpha. An
// enumerated stream of m rotations with 1/(m+1) > alpha cannot reach alpha
// and is not resolvable: nothing is counted.
func oracleResult(taus []float64, tau float64, cfg Config, exhaustive, enumerated bool) Result {
	cfg = cfg.withDefaults()
	m := len(taus)
	if enumerated && 1/float64(m+1) > cfg.Alpha {
		if math.IsNaN(tau) {
			tau = 0
		}
		return Result{PValue: 1, TauObserved: tau, NotResolvable: true}
	}
	extreme, shifts := 0, 0
	for i, tk := range taus {
		hit := tau != 0 && math.Abs(tk) >= math.Abs(tau)
		if hit {
			extreme++
		}
		shifts = i + 1
		if exhaustive {
			continue
		}
		if enumerated && hit && float64(1+extreme)/float64(m+1) > cfg.Alpha ||
			!enumerated && shifts%permChunk == 0 && float64(extreme) >= cfg.Alpha*float64(m+1) {
			break
		}
	}
	p := float64(1+extreme) / float64(1+shifts)
	return Result{PValue: p, Significant: p <= cfg.Alpha, TauObserved: tau, Extreme: extreme, Shifts: shifts}
}

// checkKernelParity captures the production kernel's full per-permutation
// tau stream (Exhaustive, so every index is covered) and requires bitwise
// identity with the oracle's, then checks the
// exhaustive Result, with the sink and without it, and the adaptive Result
// against the oracle's fold, and the adaptive verdict against the exhaustive
// one. An enumerated test's sink must see each rotation once, in order, and
// no stream at all when the test is not resolvable. The test is held to the
// oracle under each walk forced — the word walk, and the feature walk over
// either function's features — and under the walk the selection picks,
// adaptively as well. A b with vertices of both signs (see setSigns) must
// take a feature walk even when the word walk is forced. It returns the
// exhaustive run without the sink under the selected walk; its prep is
// released.
func checkKernelParity(t *testing.T, a, b *feature.Set, g *stgraph.Graph, tau float64, cfg Config) *testRun {
	t.Helper()
	want := oracleTaus(a, b, g, cfg)
	ex := cfg
	ex.Exhaustive = true
	enum := enumerated(g)
	w := oracleResult(want, tau, cfg, true, enum)
	wAdaptive := oracleResult(want, tau, cfg, false, enum)
	if wAdaptive.Significant != w.Significant {
		t.Fatalf("oracle: adaptive verdict %+v differs from exhaustive %+v", wAdaptive, w)
	}
	var run *testRun
	overlap := b.Positive.AndCount(b.Negative) > 0
	for _, wk := range []walk{wordWalk, flatA, flatB, chooseWalk} {
		path := pathName(wk, b)
		got := make([]float64, len(want))
		var order []int
		res, _ := test(a, b, g, tau, ex, func(perm int, tauK float64) {
			got[perm] = tauK
			if enum {
				order = append(order, perm)
			}
		}, wk)
		for i := range want {
			if w.Shifts > 0 && got[i] != want[i] {
				t.Fatalf("%s: tau stream diverges at permutation %d: oracle %v kernel %v (cfg %+v)",
					path, i, want[i], got[i], cfg)
			}
		}
		if enum && w.Shifts > 0 {
			if len(order) != len(want) {
				t.Fatalf("%s: sink saw %d rotations, want %d", path, len(order), len(want))
			}
			for i, k := range order {
				if k != i {
					t.Fatalf("%s: sink saw rotation index %d at position %d, want each once in order", path, k, i)
				}
			}
		} else if len(order) != 0 {
			t.Fatalf("%s: sink saw %d rotations of a test that evaluates none", path, len(order))
		}
		if res != w {
			t.Fatalf("%s: exhaustive Result mismatch: oracle %+v kernel %+v (cfg %+v)", path, w, res, cfg)
		}
		res, run = test(a, b, g, tau, ex, nil, wk)
		if res != w {
			t.Fatalf("%s: exhaustive Result without the sink mismatch: oracle %+v kernel %+v (cfg %+v)", path, w, res, cfg)
		}
		forced := wk != chooseWalk && !(overlap && wk == wordWalk)
		if run != nil && (run.prep != nil || forced && run.walk != wk || overlap && run.walk == wordWalk) {
			t.Fatalf("%s: the run took walk %d, prep released %v", path, run.walk, run.prep == nil)
		}
		if r, _ := test(a, b, g, tau, cfg, nil, wk); r != wAdaptive {
			t.Fatalf("%s: adaptive Result mismatch: oracle %+v kernel %+v (cfg %+v)", path, wAdaptive, r, cfg)
		}
	}
	if r := Test(a, b, g, tau, cfg); r != wAdaptive {
		t.Fatalf("adaptive Result mismatch: oracle %+v kernel %+v (cfg %+v)", wAdaptive, r, cfg)
	}
	return run
}

// TestKernelParity pins the kernel's contract: the word-level kernel is
// byte-identical to the per-vertex oracle for every domain shape, feature
// density, windowed sub-domain and shift pool, and with
// function 2's signs disjoint or overlapping on purpose.
func TestKernelParity(t *testing.T) {
	cases := []struct {
		name           string
		regions, steps int
		adj            func() [][]int
		density        float64
		lo, hi         int // vertex window; 0,0 => full domain
		both           int // function 2's signs: 0 as drawn, -1 disjoint, k > 0 k vertices of both (setSigns)
	}{
		{name: "timeseries-sparse", regions: 1, steps: 500, adj: func() [][]int { return [][]int{nil} }, density: 0.02},
		{name: "timeseries-dense", regions: 1, steps: 321, adj: func() [][]int { return [][]int{nil} }, density: 0.5},
		{name: "grid3x3", regions: 9, steps: 64, adj: func() [][]int { return grid(3, 3) }, density: 0.1},
		{name: "grid4x4-dense", regions: 16, steps: 100, adj: func() [][]int { return grid(4, 4) }, density: 0.4},
		{name: "ring7-unaligned-steps", regions: 7, steps: 67, adj: func() [][]int { return ring(7) }, density: 0.15},
		{name: "grid5x5-windowed", regions: 25, steps: 128, adj: func() [][]int { return grid(5, 5) }, density: 0.2,
			lo: 25 * 40, hi: 25 * 90}, // features confined to steps [40, 90)
		{name: "single-step", regions: 9, steps: 1, adj: func() [][]int { return grid(3, 3) }, density: 0.5},
		{name: "word-boundary-steps", regions: 4, steps: 64, adj: func() [][]int { return grid(2, 2) }, density: 0.3},
		{name: "word-boundary-plus1", regions: 4, steps: 65, adj: func() [][]int { return grid(2, 2) }, density: 0.3},
		{name: "timeseries-disjoint", regions: 1, steps: 321, adj: func() [][]int { return [][]int{nil} }, density: 0.5, both: -1},
		{name: "timeseries-both-signs", regions: 1, steps: 321, adj: func() [][]int { return [][]int{nil} }, density: 0.3, both: 40},
		{name: "grid4x4-disjoint", regions: 16, steps: 100, adj: func() [][]int { return grid(4, 4) }, density: 0.4, both: -1},
		{name: "grid4x4-both-signs", regions: 16, steps: 100, adj: func() [][]int { return grid(4, 4) }, density: 0.1, both: 60},
		{name: "ring7-both-signs-sparse", regions: 7, steps: 67, adj: func() [][]int { return ring(7) }, density: 0.02, both: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := stgraph.New(tc.regions, tc.steps, tc.adj())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			lo, hi := tc.lo, tc.hi
			if hi == 0 {
				lo, hi = 0, g.NumVertices()
			}
			a, b := denseSets(rng, g.NumVertices(), tc.density, lo, hi)
			if tc.both != 0 {
				setSigns(rng, b, max(tc.both, 0))
			}
			// One pool across the whole matrix, as a family of tests shares
			// it, and the private sequence a Config without a pool draws.
			shared := NewShiftPool(g.SpatialAdjacency(), 99)
			for _, tau := range []float64{0.6, -0.35} {
				for _, pool := range []*ShiftPool{nil, shared} {
					checkKernelParity(t, a, b, g, tau, Config{
						Permutations: 150, Seed: 23, Shifts: pool,
					})
				}
			}
		})
	}
}

// TestKernelParityOneSided covers feature sets with an entirely absent
// sign (a side without lanes, read by the word walk as zeros) and
// empty intersections, and a function 2 with vertices of both signs.
func TestKernelParityOneSided(t *testing.T) {
	g, err := stgraph.New(9, 80, grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(77))
	mk := func(pos, neg bool) *feature.Set {
		s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
		for i := 0; i < 50; i++ {
			if pos {
				s.Positive.Set(rng.Intn(n))
			}
			if neg {
				s.Negative.Set(rng.Intn(n))
			}
		}
		return s
	}
	cases := []struct {
		name string
		a, b *feature.Set
	}{
		{"b-positive-only", mk(true, true), mk(true, false)},
		{"b-negative-only", mk(true, true), mk(false, true)},
		{"a-positive-only", mk(true, false), mk(true, true)},
		{"disjoint-sides", mk(true, false), mk(false, true)},
		{"b-both-signs", mk(true, true), mk(true, true)},
	}
	setSigns(rng, cases[4].b, 15)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkKernelParity(t, tc.a, tc.b, g, 0.4, Config{
				Permutations: 120, Seed: 5,
			})
		})
	}
}

// TestKernelParityShapes covers the shapes with a path of their own. On one
// region a test enumerates its rotations. Over 2, 3 and 14 steps it is not
// resolvable at the default alpha, so each one-region shape also runs at
// alpha 0.5, where every one is resolvable and the stop fires within a few
// rotations. On several regions the step counts put a doubled lane's rotated
// window across zero, one and two word boundaries. Each shape also runs with
// a one-sided function 2.
//
// The walk the selection picks is pinned on both sides of the crossover: 48
// regions x 1,416 steps at 1 % density (about 14 features a 23-word lane)
// and 48 x 14 at 10 and 40 % (about 210 features against 48 one-word
// lanes) take the feature walk over function 2's features, 48 x 14 at 80 %
// (about 360 against 48) the word walk, and its one-sided function 2 (about
// 215) the feature walk again.
//
// Below 2,160 steps one region also covers both ends of the enumeration.
// Function 1 positive at every step against function 2 positive at the
// first step and negative at the last scores tau* = 0 at every rotation, so
// |tau| = 1 leaves no rotation extreme: a resolvable test is significant at
// p = 1/S and must visit every rotation even adaptively. a = b positive at
// every step scores tau* = 1 at every rotation, so both tau = -1 (a tie in
// the opposite direction) and tau just above 0 make every rotation
// extreme, and the adaptive test stops at the first rotation where
// (1 + rotations visited) / S exceeds alpha.
func TestKernelParityShapes(t *testing.T) {
	type shape struct {
		w, h, steps, perms int
		density            float64
		walks              [2]walk // what the selection picks for function 2 and its one-sided twin; chooseWalk: either
	}
	var shapes []shape
	for _, steps := range []int{2, 3, 14, 90, 2160} {
		shapes = append(shapes, shape{1, 1, steps, 1000, 0.4, [2]walk{}})
	}
	for _, steps := range []int{2, 3, 63, 64, 65, 127, 128, 129} {
		shapes = append(shapes, shape{3, 2, steps, 150, 0.4, [2]walk{}})
	}
	shapes = append(shapes, shape{8, 6, 1416, 150, 0.01, [2]walk{flatB, flatB}},
		shape{8, 6, 14, 150, 0.1, [2]walk{flatB, flatB}}, shape{8, 6, 14, 150, 0.4, [2]walk{flatB, flatB}},
		shape{8, 6, 14, 150, 0.8, [2]walk{wordWalk, flatB}})
	type pair struct {
		a, b *feature.Set
		tau  float64
		// visits is the rotations an adaptive one-region test must visit
		// when resolvable; nil when it is not pinned.
		visits func(steps int, alpha float64) int
		walk   walk // the walk the selection must pick; chooseWalk: either
	}
	every := func(steps int, _ float64) int { return steps - 1 }
	decided := func(steps int, alpha float64) int {
		e := 1
		for float64(1+e)/float64(steps) <= alpha {
			e++
		}
		return min(e, steps-1)
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%dx%d", sh.w*sh.h, sh.steps)
		if sh.walks[0] != chooseWalk {
			name += fmt.Sprintf("-%g", sh.density)
		}
		t.Run(name, func(t *testing.T) {
			g := gridGraph(t, sh.w, sh.h, sh.steps)
			n := g.NumVertices()
			a, b := denseSets(rand.New(rand.NewSource(int64(sh.steps))), n, sh.density, 0, n)
			if sh.walks[0] != chooseWalk {
				setSigns(nil, b, 0) // as real data, so the word walk may count it
			}
			oneSided := &feature.Set{Positive: bitvec.New(n), Negative: b.Negative}
			pairs := []pair{{a, b, -0.3, nil, sh.walks[0]}, {a, oneSided, -0.3, nil, sh.walks[1]}}
			alphas := []float64{0}
			if n == sh.steps {
				alphas = append(alphas, 0.5)
			}
			if n == sh.steps && sh.steps < 2160 {
				set := func(pos, neg *bitvec.Vector) *feature.Set {
					return &feature.Set{Positive: pos, Negative: neg}
				}
				firstStep, lastStep, all := bitvec.New(n), bitvec.New(n), bitvec.New(n)
				firstStep.Set(0)
				lastStep.Set(n - 1)
				for s := 0; s < n; s++ {
					all.Set(s)
				}
				full, balanced := set(all, bitvec.New(n)), set(firstStep, lastStep)
				pairs = append(pairs,
					pair{full, balanced, 1, every, chooseWalk},
					pair{full, full, -1, decided, chooseWalk},
					pair{full, full, 1e-9, decided, chooseWalk})
			}
			for _, p := range pairs {
				for _, alpha := range alphas {
					cfg := Config{Permutations: sh.perms, Alpha: alpha, Seed: 31}
					run := checkKernelParity(t, p.a, p.b, g, p.tau, cfg)
					if run != nil && p.walk != chooseWalk && run.walk != p.walk {
						t.Fatalf("tau=%v: %s, want %s", p.tau, pathName(run.walk, p.b), pathName(p.walk, p.b))
					}
					res := Test(p.a, p.b, g, p.tau, cfg)
					if p.visits == nil || res.NotResolvable {
						continue
					}
					if want := p.visits(sh.steps, cfg.withDefaults().Alpha); res.Shifts != want {
						t.Fatalf("tau=%v alpha=%v: adaptive test visited %d rotations, want %d",
							p.tau, alpha, res.Shifts, want)
					}
				}
			}
		})
	}
}

// TestPermIntoMatchesRandPerm pins permInto to rand.Perm's exact draw
// sequence (the allocation-free replacement must consume the RNG
// identically or permutation streams silently diverge).
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 63, 64, 100, 1000} {
		want := rand.New(rand.NewSource(int64(n))).Perm(n)
		buf := make([]int, n)
		permInto(rand.New(rand.NewSource(int64(n))), buf)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: permInto[%d] = %d, rand.Perm = %d", n, i, buf[i], want[i])
			}
		}
	}
}

// TestShuffleMatchesRandShuffle pins shuffle to rand.Shuffle's exact draw
// sequence, the next draw included.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 63, 1000} {
		want, got := make([]int, n), make([]int, n)
		for i := range want {
			want[i], got[i] = i, i
		}
		rngA := rand.New(rand.NewSource(int64(n)))
		rngB := rand.New(rand.NewSource(int64(n)))
		rngA.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		shuffle(rngB, got)
		if !slices.Equal(got, want) || rngA.Int63() != rngB.Int63() {
			t.Fatalf("n=%d: shuffle = %v, rand.Shuffle = %v", n, got, want)
		}
	}
}

// TestSplitmixIntnMatchesRand pins splitmix.intn, chunk's rotation draw, to
// rand.(*Rand).Intn over the same source, draw for draw and the next draw
// included. 2^30+1 rejects about half its draws, so the rejection loop runs.
func TestSplitmixIntnMatchesRand(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65, 2159, 8783, 1<<30 + 1, 1<<31 - 1} {
		for _, seed := range []int64{0, 1, -7, 0x5eed} {
			want := rand.New(&splitmix{uint64(seed)})
			got := &splitmix{uint64(seed)}
			for i := 0; i < 10000; i++ {
				if w, g := want.Intn(n), got.intn(n); w != g {
					t.Fatalf("n=%d seed=%d draw %d: intn = %d, rand.Intn = %d", n, seed, i, g, w)
				}
			}
			if want.Int63() != got.Int63() {
				t.Fatalf("n=%d seed=%d: streams diverge after 10,000 draws", n, seed)
			}
		}
	}
}

// TestToroidalScratchMatchesPublic: a scratch reused across constructions
// consumes the RNG and produces bijections exactly like the public
// ToroidalShift with its fresh one, and both still produce the shifts the
// closure-shuffling construction did (the literals are its output).
func TestToroidalScratchMatchesPublic(t *testing.T) {
	adj := grid(4, 5)
	var sc shiftScratch
	rngA := rand.New(rand.NewSource(13))
	rngB := rand.New(rand.NewSource(13))
	historical := [][]int{
		{12, 13, 9, 5, 8, 14, 10, 6, 4, 18, 11, 2, 0, 19, 7, 3, 1, 15, 16, 17},
		{15, 11, 10, 6, 14, 7, 9, 5, 18, 3, 13, 4, 19, 2, 12, 0, 8, 1, 16, 17},
	}
	reused := make([]int32, len(adj))
	for i := 0; i < 20; i++ {
		fresh := ToroidalShift(adj, rngA)
		sc.toroidal(adj, rngB, reused)
		if i < len(historical) && !slices.Equal(fresh, historical[i]) {
			t.Fatalf("iteration %d: ToroidalShift = %v, historically %v", i, fresh, historical[i])
		}
		for j := range fresh {
			if fresh[j] != int(reused[j]) {
				t.Fatalf("iteration %d: perm[%d] = %d (scratch) vs %d (fresh)", i, j, reused[j], fresh[j])
			}
		}
		if !isBijection(fresh) {
			t.Fatalf("iteration %d: toroidal shift is not a bijection", i)
		}
	}
}

// TestChunkSteadyStateAllocs asserts the kernel's allocation contract: after
// the first chunk sizes the scratch buffers, evaluating further permutation
// chunks allocates nothing, under each counting path — the word walk, the
// feature walk over either function's features, whose σ⁻¹ table lives in
// the scratch, and either with function 2's signs overlapping — whether the
// chunk's shifts are read from the pool's memo or regenerated past it, and
// on one region, where a test has no chunk, enumerating all 89 rotations of
// a 90-step test allocates nothing either.
func TestChunkSteadyStateAllocs(t *testing.T) {
	for _, dom := range []struct {
		w, h, steps int
	}{{4, 4, 128}, {1, 1, 90}} {
		g := gridGraph(t, dom.w, dom.h, dom.steps)
		rng := rand.New(rand.NewSource(3))
		a, b := denseSets(rng, g.NumVertices(), 0.1, 0, g.NumVertices())
		for _, both := range []int{0, 5} {
			setSigns(rng, b, both)
			for _, wk := range []walk{wordWalk, flatA, flatB} {
				for _, budget := range []int{0, shiftPoolBudget} {
					run := &testRun{
						a: a, g: g, tau: 0.9,
						cfg: Config{Permutations: 200, Alpha: 0.05, Seed: 5,
							Shifts: newShiftPool(g.SpatialAdjacency(), 5, budget)},
					}
					run.prep, run.walk = newVectorPrep(a, b, g, wk)
					sc := scratchPool.Get().(*scratch)
					step := func() { run.chunk(1, sc) }
					if g.NumRegions() == 1 {
						run.cfg.Exhaustive = true
						step = func() { run.enumerate(sc) }
					}
					step() // size the scratch buffers, memoise the chunk
					if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
						t.Errorf("%dx%d %s budget=%d: steady-state chunk allocates %.0f objects, want 0",
							dom.w*dom.h, dom.steps, pathName(wk, b), budget, allocs)
					}
				}
			}
		}
	}
}

// TestNaNObservedNotSignificant: a NaN observed score compares false with
// every randomization, so nothing would count as extreme and any test would
// report p = 1/(1+m). NaN is no evidence at all: like a zero score it is
// reported with p = 1 and no randomization run, on one region and on
// several. A one-region test too short to reach alpha (1x14) is reported
// not resolvable, its score likewise as zero.
func TestNaNObservedNotSignificant(t *testing.T) {
	for _, dom := range []struct{ w, h, steps int }{{1, 1, 90}, {3, 3, 40}, {1, 1, 14}} {
		g := gridGraph(t, dom.w, dom.h, dom.steps)
		n := g.NumVertices()
		a, b := denseSets(rand.New(rand.NewSource(8)), n, 0.3, 0, n)
		want := Result{PValue: 1}
		if dom.w*dom.h == 1 && dom.steps < 20 {
			want.NotResolvable = true
		}
		for _, tau := range []float64{0, math.NaN()} {
			if got := Test(a, b, g, tau, Config{Seed: 1}); got != want {
				t.Errorf("%dx%d tau=%v: Result %+v, want %+v", dom.w*dom.h, dom.steps, tau, got, want)
			}
		}
	}
}

var raceEnabled bool // set by race_test.go

// TestOpenTestAllocs pins what opening a test costs once the prep and
// scratch pools are warm: a whole test allocates only its run record, under
// every walk and on one region too, where a 1x2,160 test enumerates its
// 2,159 rotations. A dense 48x2,160 pair's transposed lanes live in the
// pooled prep (building them afresh cost four vectors and four Ones slices
// more), as do a sparse 48x2,160 or 48x1,416 pair's feature list and codes,
// walked over function 2's features, and a 48x90 pair's of 9 and 1,000
// features, walked over function 1's.
func TestOpenTestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, dom := range []struct {
		w, h, steps, features int
		sparseA               int  // when non-zero, function 1's feature count, drawn apart
		walk                  walk // the walk the selection picks
	}{{8, 6, 2160, 8000, 0, wordWalk}, {8, 6, 2160, 1500, 0, flatB}, {8, 6, 1416, 600, 0, flatB}, {8, 6, 90, 1000, 9, flatA},
		{1, 1, 2160, 1500, 0, wordWalk}} {
		g := gridGraph(t, dom.w, dom.h, dom.steps)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(42))
		a, b := denseSets(rng, n, float64(dom.features)/float64(n), 0, n)
		if dom.sparseA > 0 {
			a, b = pairSets(rng, n, dom.sparseA, dom.features)
		}
		setSigns(rng, b, 0)
		cfg := Config{Seed: 1, Shifts: NewShiftPool(g.SpatialAdjacency(), 1)}
		// Warm the pools and memoise the shifts.
		if _, run := test(a, b, g, 0.9, cfg, nil, chooseWalk); run.walk != dom.walk {
			t.Fatalf("%dx%d, %d features: %s, want %s", dom.w*dom.h, dom.steps, dom.features, pathName(run.walk, b), pathName(dom.walk, b))
		}
		if allocs := testing.AllocsPerRun(10, func() { Test(a, b, g, 0.9, cfg) }); allocs > 1 {
			t.Errorf("opening a warmed %dx%d test of %d features allocates %.0f objects, want <= 1",
				dom.w*dom.h, dom.steps, dom.features, allocs)
		}
	}
}

// FuzzKernelParity fuzzes domain shape, density, seed, observed tau (±0.5 or
// ±1, by tauB mod 4), alpha (the default, or 0.5 when tauB has bit 2 set,
// so one-region tests of 2 to 19 steps are resolvable) and function 2's
// signs (bothB: 0 as drawn, otherwise disjoint plus (bothB-1) mod 16
// vertices of both, see setSigns), requiring Results and tau streams
// byte-identical to the oracle's under each walk forced — the word walk
// (a feature walk when bothB leaves function 2 with both signs on a
// vertex) and the feature walk over either function — and the one chosen. The
// seeds at 1–2 % density over 64 steps or more are ones the selection hands
// to the feature walk.
func FuzzKernelParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(50), uint8(30), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(200), uint8(10), uint8(1), uint8(1))
	f.Add(int64(3), uint8(4), uint8(2), uint8(64), uint8(80), uint8(0), uint8(9))
	f.Add(int64(-9), uint8(5), uint8(5), uint8(65), uint8(50), uint8(1), uint8(0))
	f.Add(int64(4), uint8(0), uint8(0), uint8(2), uint8(60), uint8(4), uint8(1))   // 1x3: two rotations
	f.Add(int64(5), uint8(4), uint8(4), uint8(128), uint8(40), uint8(1), uint8(0)) // 5x5x129
	f.Add(int64(6), uint8(0), uint8(0), uint8(1), uint8(50), uint8(4), uint8(9))   // 1x2: one rotation
	f.Add(int64(7), uint8(0), uint8(0), uint8(1), uint8(99), uint8(6), uint8(0))   // 1x2, tau = 1
	f.Add(int64(8), uint8(0), uint8(0), uint8(2), uint8(5), uint8(7), uint8(0))    // 1x3, tau = -1
	f.Add(int64(8), uint8(0), uint8(0), uint8(13), uint8(5), uint8(1), uint8(1))   // 1x14: not resolvable
	f.Add(int64(9), uint8(0), uint8(0), uint8(89), uint8(20), uint8(2), uint8(0))  // 1x90, tau = 1
	f.Add(int64(10), uint8(2), uint8(2), uint8(13), uint8(70), uint8(3), uint8(1)) // 3x3x14, tau = -1
	f.Add(int64(11), uint8(4), uint8(4), uint8(199), uint8(0), uint8(0), uint8(9)) // 5x5x200 at 1 %
	f.Add(int64(12), uint8(0), uint8(0), uint8(150), uint8(1), uint8(1), uint8(0)) // 1x151 at 1.9 %
	f.Add(int64(13), uint8(3), uint8(2), uint8(63), uint8(0), uint8(2), uint8(1))  // 4x3x64 at 1 %, tau = 1
	f.Fuzz(func(t *testing.T, seed int64, w, h, stepsB, densityB, tauB, bothB uint8) {
		w = w%5 + 1
		h = h%5 + 1
		steps := int(stepsB)%200 + 1
		var adj [][]int
		if w*h == 1 {
			adj = [][]int{nil}
		} else {
			adj = grid(int(w), int(h))
		}
		g, err := stgraph.New(int(w)*int(h), steps, adj)
		if err != nil {
			t.Skip()
		}
		density := 0.01 + float64(densityB%100)/110
		rng := rand.New(rand.NewSource(seed))
		a, b := denseSets(rng, g.NumVertices(), density, 0, g.NumVertices())
		if bothB > 0 {
			setSigns(rng, b, int(bothB-1)%16)
		}
		tau := []float64{0.5, -0.5, 1, -1}[tauB%4]
		alpha := []float64{0, 0.5}[tauB/4%2]
		checkKernelParity(t, a, b, g, tau, Config{
			Permutations: 100, Alpha: alpha, Seed: seed,
		})
	})
}

// BenchmarkShiftedTauKernel measures one permutation chunk (50
// randomizations) per iteration on a 16x16-region hourly-resolution domain,
// and then one whole exhaustive test — layout and scratch included, 1,000
// permutations on several regions and S-1 enumerated rotations on one — on
// the resolvable shapes and feature counts per set the graph-wide corpus is
// made of: city x day (1x90, 33), dense city x hour (1x2160, 1,300),
// neighbourhood x week (48x14, 90) and neighbourhood x hour (48x2160,
// 1,500); on two of the 9-data-set fleet corpus, one either side of the
// walk choice: neighbourhood x hour (48x1416, 600, the feature walk) and
// dense city x hour (1x1416, 500, the word walk); on graph-wide pairs whose
// functions differ in feature count (function 1 / function 2): 48x14 (22 /
// 108), 48x3 (21 / 16), 48x90 (9 / 1,016 and 921 / 856); and on a sparse
// 256-region day domain (256x90, 30 / 400), whose feature walk over
// function 1 scatters σ⁻¹ over 256 regions a randomization. Function 2's
// signs are disjoint in every row, as extracted feature sets have them.
func BenchmarkShiftedTauKernel(b *testing.B) {
	g, err := stgraph.New(256, 1464, grid(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	fa, fb := denseSets(rng, g.NumVertices(), 0.08, 0, g.NumVertices())
	setSigns(rng, fb, 0)
	b.Run("chunk", func(b *testing.B) {
		run := &testRun{
			a: fa, g: g, tau: 0.9,
			cfg: Config{Permutations: 8 * permChunk, Alpha: 0.05, Seed: 1,
				Shifts: NewShiftPool(g.SpatialAdjacency(), 1)},
		}
		run.prep, run.walk = newVectorPrep(fa, fb, g, chooseWalk)
		sc := scratchPool.Get().(*scratch)
		run.chunk(0, sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run.chunk(i%8, sc)
		}
	})
	for _, sh := range []struct {
		w, h, steps, features int
		na                    int // when non-zero, function 1's feature count, drawn apart
	}{{1, 1, 90, 33, 0}, {1, 1, 2160, 1300, 0}, {8, 6, 14, 90, 0}, {8, 6, 2160, 1500, 0}, {8, 6, 1416, 600, 0}, {1, 1, 1416, 500, 0},
		{8, 6, 14, 108, 22}, {8, 6, 3, 16, 21}, {8, 6, 90, 1016, 9}, {8, 6, 90, 856, 921}, {16, 16, 90, 400, 30}} {
		name := fmt.Sprintf("%dx%d", sh.w*sh.h, sh.steps)
		if sh.na > 0 {
			name += fmt.Sprintf("-%d/%d", sh.na, sh.features)
		}
		b.Run(name, func(b *testing.B) {
			g := gridGraph(b, sh.w, sh.h, sh.steps)
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(42))
			fa, fb := denseSets(rng, n, float64(sh.features)/float64(n), 0, n)
			if sh.na > 0 {
				fa, fb = pairSets(rng, n, sh.na, sh.features)
			}
			setSigns(rng, fb, 0)
			cfg := Config{Seed: 1, Exhaustive: true, Shifts: NewShiftPool(g.SpatialAdjacency(), 1)}
			res := Test(fa, fb, g, 0.9, cfg) // memoise the shifts, as a family's first test does
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Test(fa, fb, g, 0.9, cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Shifts), "ns/permutation")
		})
	}
}

// BenchmarkToroidalShift measures one toroidal-shift construction on a
// 16x16 grid with a reused scratch, as ShiftPool runs it.
func BenchmarkToroidalShift(b *testing.B) {
	adj := grid(16, 16)
	var sc shiftScratch
	rng := rand.New(rand.NewSource(5))
	perm := make([]int32, len(adj))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.toroidal(adj, rng, perm)
	}
}

// BenchmarkShiftPoolChunk measures what a test chunk pays for its 50
// shifts on a 16x16 grid: a memo read, or a regeneration past the budget.
func BenchmarkShiftPoolChunk(b *testing.B) {
	adj := grid(16, 16)
	for _, bc := range []struct {
		name   string
		budget int
	}{{"memoised", shiftPoolBudget}, {"regenerated", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			pool := newShiftPool(adj, 5, bc.budget)
			sc := &scratch{}
			sc.rng = rand.New(&sc.src)
			for ci := 0; ci < 8; ci++ {
				pool.chunk(ci, sc)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.chunk(i%8, sc)
			}
		})
	}
}
