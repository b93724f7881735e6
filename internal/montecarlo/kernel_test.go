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

// blockStepPerm builds the temporal bijection of one Block randomization:
// the blocks [b*l, (b+1)*l) are laid out consecutively in the order given
// by blockPerm, so when nSteps is not divisible by l the short tail block
// simply occupies fewer output steps instead of wrapping onto steps owned
// by another block. The result maps old step -> new step.
func blockStepPerm(nSteps, l int, blockPerm []int) []int {
	sp := make([]int, nSteps)
	pos := 0
	for _, b := range blockPerm {
		end := min((b+1)*l, nSteps)
		for s := b * l; s < end; s++ {
			sp[s] = pos
			pos++
		}
	}
	return sp
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

// oracleTaus is the reference the production kernel is held to. It takes
// permutation k's spatial shift from oracleShifts and replays every chunk's
// per-test RNG stream itself — same chunkSeed, same permInto and rotation
// draws, written out here in the order the p-values are computed under —
// and evaluates each randomization per vertex through shiftedTau. It shares
// no tau arithmetic, no draw sequencing and no memo with testRun.chunk and
// ShiftPool, so a reordered draw, a miscounted word or a misindexed shift
// there shows up as a diverging permutation index.
func oracleTaus(a, b *feature.Set, g *stgraph.Graph, cfg Config) []float64 {
	pos2, neg2 := b.Positive.Ones(), b.Negative.Ones()
	nRegions, nSteps := g.NumRegions(), g.NumSteps()
	var shifts [][]int
	if nRegions > 1 && cfg.Kind != Standard {
		seed := cfg.Seed ^ shiftStream
		if cfg.Shifts != nil {
			seed = cfg.Shifts.seed
		}
		shifts = oracleShifts(g.SpatialAdjacency(), seed, cfg.Permutations)
	}
	var src splitmix
	rng := rand.New(&src)
	taus := make([]float64, cfg.Permutations)
	for i := range taus {
		if i%permChunk == 0 {
			src.state = uint64(chunkSeed(cfg.Seed, i/permChunk))
		}
		var spatPerm []int
		if shifts != nil {
			spatPerm = shifts[i]
		}
		switch cfg.Kind {
		case Standard:
			perm := make([]int, g.NumVertices())
			permInto(rng, perm)
			taus[i] = shiftedTau(a, pos2, neg2, func(v int) int { return perm[v] })
		case Block:
			l := blockLength(nSteps)
			blockPerm := make([]int, (nSteps+l-1)/l)
			permInto(rng, blockPerm)
			stepPerm := blockStepPerm(nSteps, l, blockPerm)
			taus[i] = shiftedTau(a, pos2, neg2, func(v int) int {
				r, s := g.RegionStep(v)
				if spatPerm != nil {
					r = spatPerm[r]
				}
				return g.Vertex(r, stepPerm[s])
			})
		default: // Restricted
			rot := 0
			if nSteps > 1 {
				rot = 1 + rng.Intn(nSteps-1)
			}
			taus[i] = shiftedTau(a, pos2, neg2, func(v int) int {
				r, s := g.RegionStep(v)
				if spatPerm != nil {
					r = spatPerm[r]
				}
				return g.Vertex(r, (s+rot)%nSteps)
			})
		}
	}
	return taus
}

// oracleResult folds a tau stream into the Result a sequential scan
// reports: count the randomizations at least as extreme as tau, and unless
// exhaustive stop at the end of the first 50-wide chunk where the count
// reaches alpha*(m+1), which proves p > alpha.
func oracleResult(taus []float64, tau float64, cfg Config, exhaustive bool) Result {
	cfg = cfg.withDefaults()
	m := len(taus)
	extreme, shifts := 0, 0
	for i, tk := range taus {
		if (tau < 0 && tk <= tau) || (tau > 0 && tk >= tau) {
			extreme++
		}
		shifts = i + 1
		if !exhaustive && shifts%permChunk == 0 && float64(extreme) >= cfg.Alpha*float64(m+1) {
			break
		}
	}
	p := float64(1+extreme) / float64(1+shifts)
	return Result{PValue: p, Significant: p <= cfg.Alpha, TauObserved: tau, Shifts: shifts}
}

// checkKernelParity captures the production kernel's full per-permutation
// tau stream (Exhaustive, so every index is covered under any Workers
// value) and requires bitwise identity with the oracle's, then checks the
// exhaustive Result — with the sink and without it, the run in which
// rotChunk's closed forms may fire — and the adaptive Result against the
// oracle's fold. It returns the exhaustive run without the sink.
func checkKernelParity(t *testing.T, a, b *feature.Set, g *stgraph.Graph, tau float64, cfg Config) *testRun {
	t.Helper()
	want := oracleTaus(a, b, g, cfg)
	ex := cfg
	ex.Exhaustive = true
	got := make([]float64, cfg.Permutations)
	res, _ := test(a, b, g, tau, ex, func(perm int, tauK float64) { got[perm] = tauK })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tau stream diverges at permutation %d: oracle %v kernel %v (cfg %+v)",
				i, want[i], got[i], cfg)
		}
	}
	w := oracleResult(want, tau, cfg, true)
	if res != w {
		t.Fatalf("exhaustive Result mismatch: oracle %+v kernel %+v (cfg %+v)", w, res, cfg)
	}
	res, run := test(a, b, g, tau, ex, nil)
	if res != w {
		t.Fatalf("exhaustive Result without the sink mismatch: oracle %+v kernel %+v (cfg %+v)", w, res, cfg)
	}
	if w, r := oracleResult(want, tau, cfg, false), Test(a, b, g, tau, cfg); r != w {
		t.Fatalf("adaptive Result mismatch: oracle %+v kernel %+v (cfg %+v)", w, r, cfg)
	}
	return run
}

// TestKernelParity pins the kernel's contract: the word-level kernel is
// byte-identical to the per-vertex oracle for every Kind, domain shape,
// feature density, windowed sub-domain, and Workers value.
func TestKernelParity(t *testing.T) {
	cases := []struct {
		name           string
		regions, steps int
		adj            func() [][]int
		density        float64
		lo, hi         int // vertex window; 0,0 => full domain
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
			// One pool across the whole matrix, as a family of tests shares
			// it, and the private sequence a Config without a pool draws.
			shared := NewShiftPool(g.SpatialAdjacency(), 99)
			for _, kind := range []Kind{Restricted, Standard, Block} {
				for _, workers := range []int{1, 4} {
					for _, tau := range []float64{0.6, -0.35} {
						for _, pool := range []*ShiftPool{nil, shared} {
							checkKernelParity(t, a, b, g, tau, Config{
								Permutations: 150, Seed: 23, Kind: kind, Workers: workers, Shifts: pool,
							})
						}
					}
				}
			}
		})
	}
}

// TestKernelParityOneSided covers feature sets with an entirely absent
// sign (the bPosAny/bNegAny fast paths) and empty intersections.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range []Kind{Restricted, Standard, Block} {
				checkKernelParity(t, tc.a, tc.b, g, 0.4, Config{
					Permutations: 120, Seed: 5, Kind: kind, Workers: 2,
				})
			}
		})
	}
}

// TestKernelParityShapes covers the shapes with a path of their own. On one
// region a Restricted test classifies each rotation once, so 1,000
// permutations over 2, 3, 14 and 90 steps hit its table more than nine
// times in ten (steps = 2 has the single rotation 1), while over 2,160 steps
// the table never completes. On several regions the step counts put a
// doubled lane's rotated window across zero, one and two word boundaries.
// Each shape also runs with a one-sided function 2, and every cell under
// Workers 1, 2 and 4.
//
// Below 2,160 steps one region also forces rotChunk's closed forms: |tau|
// = 1 against a sparse positive-only function 1 and negative-only function
// 2, or against a = b positive at every step, leaves the extreme set empty;
// tau just above 0 against the latter makes it full. The run's counters
// show each closed form deciding chunks, so the parity cannot pass by
// drawing everything.
func TestKernelParityShapes(t *testing.T) {
	type shape struct {
		w, h, steps, perms int
	}
	var shapes []shape
	for _, steps := range []int{2, 3, 14, 90, 2160} {
		shapes = append(shapes, shape{1, 1, steps, 1000})
	}
	for _, steps := range []int{2, 3, 63, 64, 65, 127, 128, 129} {
		shapes = append(shapes, shape{3, 2, steps, 150})
	}
	type pair struct {
		a, b *feature.Set
		tau  float64
		// decided reads the Restricted run's counter of the closed form
		// the pair must fire; nil when it need not fire.
		decided func(*testRun) int
	}
	none := func(r *testRun) int { return r.decidedNone }
	all := func(r *testRun) int { return r.decidedAll }
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%dx%d", sh.w*sh.h, sh.steps), func(t *testing.T) {
			g := gridGraph(t, sh.w, sh.h, sh.steps)
			n := g.NumVertices()
			a, b := denseSets(rand.New(rand.NewSource(int64(sh.steps))), n, 0.4, 0, n)
			oneSided := &feature.Set{Positive: bitvec.New(n), Negative: b.Negative}
			pairs := []pair{{a, b, -0.3, nil}, {a, oneSided, -0.3, nil}}
			if n == sh.steps && sh.steps < 2160 {
				set := func(pos, neg *bitvec.Vector) *feature.Set {
					return &feature.Set{Positive: pos, Negative: neg}
				}
				first, last, every := bitvec.New(n), bitvec.New(n), bitvec.New(n)
				first.Set(0)
				last.Set(n - 1)
				for s := 0; s < n; s++ {
					every.Set(s)
				}
				sparseA, sparseB := set(first, bitvec.New(n)), set(bitvec.New(n), last)
				full := set(every, bitvec.New(n))
				pairs = append(pairs,
					pair{sparseA, sparseB, 1, none},
					pair{full, full, -1, none},
					pair{full, full, 1e-9, all})
			}
			for _, p := range pairs {
				for _, kind := range []Kind{Restricted, Block} {
					for _, workers := range []int{1, 2, 4} {
						run := checkKernelParity(t, p.a, p.b, g, p.tau, Config{
							Permutations: sh.perms, Seed: 31, Kind: kind, Workers: workers,
						})
						if kind != Restricted || n != sh.steps {
							continue
						}
						if sh.steps == 2160 && run.decidedNone+run.decidedAll != 0 {
							t.Fatalf("%d chunks decided by a closed form over 2,160 steps, want 0",
								run.decidedNone+run.decidedAll)
						}
						if p.decided != nil && p.decided(run) == 0 {
							t.Fatalf("tau=%v workers=%d: no chunk decided by the closed form", p.tau, workers)
						}
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

// TestChunkSteadyStateAllocs asserts the kernel's allocation contract:
// after the first chunk sizes the scratch buffers, evaluating further
// permutation chunks allocates nothing, for every Kind — whether the
// chunk's shifts are read from the pool's memo or regenerated past it, and
// on one region, where a Restricted chunk is rotChunk and its rotation
// table is sized with the scratch, not in the loop. Chunk 1 alone never
// completes a 90-step table, so every call draws.
func TestChunkSteadyStateAllocs(t *testing.T) {
	for _, dom := range []struct {
		w, h, steps int
	}{{4, 4, 128}, {1, 1, 90}} {
		g := gridGraph(t, dom.w, dom.h, dom.steps)
		rng := rand.New(rand.NewSource(3))
		a, b := denseSets(rng, g.NumVertices(), 0.1, 0, g.NumVertices())
		for _, kind := range []Kind{Restricted, Standard, Block} {
			for _, budget := range []int{0, shiftPoolBudget} {
				run := &testRun{
					a: a, pos2: b.Positive.Ones(), neg2: b.Negative.Ones(),
					g: g, tau: 0.9,
					cfg: Config{Permutations: 200, Alpha: 0.05, Seed: 5, Kind: kind,
						Shifts: newShiftPool(g.SpatialAdjacency(), 5, budget)},
					prep: newVectorPrep(a, b, g, kind),
				}
				step := run.chunk
				if run.oneRegion() {
					step = run.rotChunk
				}
				sc := run.newScratch()
				step(1, sc) // size the scratch buffers, memoise the chunk
				if allocs := testing.AllocsPerRun(5, func() { step(1, sc) }); allocs != 0 {
					t.Errorf("%dx%d kind=%v budget=%d: steady-state chunk allocates %.0f objects, want 0",
						dom.w*dom.h, dom.steps, kind, budget, allocs)
				}
			}
		}
	}
}

// TestNaNObservedNotSignificant: a NaN observed score compares false with
// every randomization, so nothing would count as extreme and any test would
// report p = 1/(1+m). NaN is no evidence at all: like a zero score it is
// reported with p = 1 and no randomization run, for every Kind, on one
// region and on several.
func TestNaNObservedNotSignificant(t *testing.T) {
	want := Result{PValue: 1}
	for _, dom := range []struct{ w, h, steps int }{{1, 1, 90}, {3, 3, 40}} {
		g := gridGraph(t, dom.w, dom.h, dom.steps)
		n := g.NumVertices()
		a, b := denseSets(rand.New(rand.NewSource(8)), n, 0.3, 0, n)
		for _, kind := range []Kind{Restricted, Standard, Block} {
			for _, tau := range []float64{0, math.NaN()} {
				if got := Test(a, b, g, tau, Config{Seed: 1, Kind: kind, Workers: 2}); got != want {
					t.Errorf("%dx%d kind=%v tau=%v: Result %+v, want %+v", dom.w*dom.h, dom.steps, kind, tau, got, want)
				}
			}
		}
	}
}

var raceEnabled bool // set by race_test.go

// TestOpenTestAllocs pins what opening a test costs once the prep and
// scratch pools are warm: a whole Restricted test on a 48x2,160 pair at
// Workers 1 allocates only its run record and chunk counts, where building
// the transposed lanes afresh cost four vectors and four Ones slices more.
// So does a 1x2,160 test, whose 2,159-rotation table lives in the pooled
// scratch.
func TestOpenTestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, dom := range []struct{ w, h int }{{8, 6}, {1, 1}} {
		g := gridGraph(t, dom.w, dom.h, 2160)
		n := g.NumVertices()
		a, b := denseSets(rand.New(rand.NewSource(42)), n, 1500/float64(n), 0, n)
		cfg := Config{Seed: 1, Workers: 1, Shifts: NewShiftPool(g.SpatialAdjacency(), 1)}
		Test(a, b, g, 0.9, cfg) // warm the pools and memoise the shifts
		if allocs := testing.AllocsPerRun(10, func() { Test(a, b, g, 0.9, cfg) }); allocs > 2 {
			t.Errorf("opening a warmed %dx2160 test allocates %.0f objects, want <= 2", dom.w*dom.h, allocs)
		}
	}
}

// FuzzKernelParity fuzzes domain shape, density, seed, Kind, and observed
// tau (±0.5 or ±1, by tauB mod 4), requiring Results and tau streams
// byte-identical to the oracle's.
func FuzzKernelParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(50), uint8(30), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(200), uint8(10), uint8(1), uint8(1))
	f.Add(int64(3), uint8(4), uint8(2), uint8(64), uint8(80), uint8(2), uint8(0))
	f.Add(int64(-9), uint8(5), uint8(5), uint8(65), uint8(50), uint8(0), uint8(1))
	f.Add(int64(4), uint8(0), uint8(0), uint8(2), uint8(60), uint8(0), uint8(0))   // 1x3: two rotations
	f.Add(int64(5), uint8(4), uint8(4), uint8(128), uint8(40), uint8(0), uint8(1)) // 5x5x129
	f.Add(int64(6), uint8(0), uint8(0), uint8(1), uint8(50), uint8(0), uint8(0))   // 1x2: one rotation
	f.Add(int64(7), uint8(0), uint8(0), uint8(1), uint8(99), uint8(0), uint8(2))   // 1x2, tau = 1
	f.Add(int64(8), uint8(0), uint8(0), uint8(2), uint8(5), uint8(0), uint8(3))    // 1x3, tau = -1
	f.Add(int64(9), uint8(0), uint8(0), uint8(89), uint8(20), uint8(0), uint8(2))  // 1x90, tau = 1
	f.Add(int64(10), uint8(2), uint8(2), uint8(13), uint8(70), uint8(0), uint8(3)) // 3x3x14, tau = -1
	f.Fuzz(func(t *testing.T, seed int64, w, h, stepsB, densityB, kindB, tauB uint8) {
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
		tau := []float64{0.5, -0.5, 1, -1}[tauB%4]
		kind := Kind(kindB % 3)
		checkKernelParity(t, a, b, g, tau, Config{
			Permutations: 100, Seed: seed, Kind: kind, Workers: int(densityB % 3),
		})
	})
}

// BenchmarkShiftedTauKernel measures one permutation chunk (50
// randomizations) per iteration on a 16x16-region hourly-resolution
// domain, per Kind, and then one whole exhaustive Restricted test of 1,000
// permutations — transposition, scratch and rotation table included — on
// the shapes and feature counts per set the graph-wide corpus is made of:
// city x month (1x3, 2), city x day (1x90, 33), neighbourhood x week
// (48x14, 90) and neighbourhood x hour (48x2160, 1,500).
func BenchmarkShiftedTauKernel(b *testing.B) {
	g, err := stgraph.New(256, 1464, grid(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	fa, fb := denseSets(rng, g.NumVertices(), 0.08, 0, g.NumVertices())
	for _, kind := range []Kind{Restricted, Standard, Block} {
		b.Run(kind.String(), func(b *testing.B) {
			run := &testRun{
				a: fa, pos2: fb.Positive.Ones(), neg2: fb.Negative.Ones(),
				g: g, tau: 0.9,
				cfg: Config{Permutations: 8 * permChunk, Alpha: 0.05, Seed: 1, Kind: kind,
					Shifts: NewShiftPool(g.SpatialAdjacency(), 1)},
				prep: newVectorPrep(fa, fb, g, kind),
			}
			sc := run.newScratch()
			run.chunk(0, sc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.chunk(i%8, sc)
			}
		})
	}
	for _, sh := range []struct {
		w, h, steps, features int
	}{{1, 1, 3, 2}, {1, 1, 90, 33}, {8, 6, 14, 90}, {8, 6, 2160, 1500}} {
		b.Run(fmt.Sprintf("%dx%d", sh.w*sh.h, sh.steps), func(b *testing.B) {
			g := gridGraph(b, sh.w, sh.h, sh.steps)
			n := g.NumVertices()
			fa, fb := denseSets(rand.New(rand.NewSource(42)), n, float64(sh.features)/float64(n), 0, n)
			cfg := Config{Seed: 1, Exhaustive: true, Shifts: NewShiftPool(g.SpatialAdjacency(), 1)}
			Test(fa, fb, g, 0.9, cfg) // memoise the shifts, as a family's first test does
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Test(fa, fb, g, 0.9, cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*DefaultPermutations), "ns/permutation")
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
