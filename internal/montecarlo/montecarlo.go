// Package montecarlo implements the statistical significance machinery of
// the Data Polygamy framework (Section 4 of the paper): restricted Monte
// Carlo permutation tests that respect the spatial and temporal
// dependencies of urban data.
//
// Spatial correlation is respected through graph toroidal shifts: a random
// bijection of the region set built breadth-first so that adjacent regions
// map to adjacent regions wherever possible. Temporal correlation is
// respected by wrapping time onto a circle and rotating it. A standard
// (unrestricted) permutation test is also provided for the comparison in
// Section 6.3, which shows why ignoring dependencies misleads.
//
// The p-value follows Equation (3)/(4) with add-one smoothing and a
// direction-aware tail: for a negative observed score it is
// p = (1 + #{k : tau_k <= tau*}) / (1 + |m|) — exactly the paper's
// P(X <= x*) — and for a positive observed score the mirrored upper tail
// P(X >= x*) is used, so both strongly negative and strongly positive
// relationships can be significant. An observed score of zero or NaN is
// never significant (p = 1).
//
// The randomizations are evaluated a word at a time: both feature sets
// are transposed once per test into region-major lanes, a rotated lane is a
// window of function 2's doubled lane read at a bit offset, and tau is read
// off fused popcounts at 64 vertices per word without the randomization ever
// being stored. The per-vertex transcription
// of the paper's definition lives in kernel_test.go as the oracle every
// permutation's tau is compared against (TestKernelParity,
// FuzzKernelParity).
package montecarlo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// Significance-test metrics on the default registry. Permutations run vs.
// early stops is the live view of how much work the adaptive termination
// saves (the paper's hypothesis-testing cost dominates query latency).
var (
	mTests = obsv.NewCounter("polygamy_montecarlo_tests_total",
		"Significance tests run (tau = 0 shortcuts included).")
	mPermutations = obsv.NewCounter("polygamy_montecarlo_permutations_total",
		"Permutations actually evaluated across all tests.")
	mTauEvals = obsv.NewCounter("polygamy_montecarlo_tau_evaluations_total",
		"Tau kernel runs: one per permutation, except that a one-region Restricted test runs one per distinct rotation per test.")
	mEarlyStops = obsv.NewCounter("polygamy_montecarlo_early_stops_total",
		"Tests stopped by adaptive termination before the full permutation budget.")
	mShiftsBuilt = obsv.NewCounter("polygamy_montecarlo_shifts_built_total",
		"Toroidal shifts constructed, memoised or regenerated past a pool's budget.")
	mShiftPoolBytes = obsv.NewGauge("polygamy_montecarlo_shift_pool_bytes",
		"Bytes of toroidal shifts memoised by the live shift pools.")
)

// DefaultPermutations is the paper's |m| = 1,000 toroidal shifts.
const DefaultPermutations = 1000

// DefaultAlpha is the paper's significance level of 5%.
const DefaultAlpha = 0.05

// Kind selects the permutation scheme.
type Kind int

const (
	// Restricted uses toroidal shifts (spatial) and circular rotations
	// (temporal), respecting data dependencies.
	Restricted Kind = iota
	// Standard permutes vertices uniformly at random, ignoring spatio-
	// temporal dependencies (for comparison only).
	Standard
	// Block permutes whole temporal blocks (the block-bootstrap family the
	// paper cites via Kunsch [22]): within-block dependence is preserved,
	// long-range alignment is broken. Spatial shifts are applied as in
	// Restricted.
	Block
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Restricted:
		return "restricted"
	case Standard:
		return "standard"
	case Block:
		return "block"
	default:
		return "montecarlo.Kind(?)"
	}
}

// blockLength picks the temporal block size for Block permutations: about
// fifty blocks, at least two steps each.
func blockLength(nSteps int) int {
	l := nSteps / 50
	if l < 2 {
		l = 2
	}
	return l
}

// Config parameterises a significance test.
type Config struct {
	Permutations int     // number of randomizations |m|; 0 => DefaultPermutations
	Alpha        float64 // significance level; 0 => DefaultAlpha
	Seed         int64   // RNG seed for reproducibility
	Kind         Kind    // Restricted, Standard or Block

	// Shifts is the toroidal-shift sequence the Restricted and Block kinds
	// take their spatial shifts from; it must be over the graph's spatial
	// adjacency. A family of tests shares one pool (see ShiftPool). Nil
	// draws the same kind of sequence from Seed, for this test alone.
	Shifts *ShiftPool

	// Workers is the number of goroutines evaluating permutation chunks;
	// <= 1 runs sequentially. The permutations are partitioned into
	// fixed-size chunks whose RNGs are seeded deterministically from Seed
	// and the chunk index, so the Result is byte-identical for every
	// Workers value (including the sequential path). A Restricted test on a
	// one-region domain runs its chunks on one goroutine whatever Workers
	// says: they share the test's rotation table (see Test).
	Workers int

	// Exhaustive disables adaptive early termination, forcing all
	// Permutations to be evaluated. By default the test stops at a chunk
	// boundary as soon as the exceedance count proves p > Alpha (see Test);
	// the Significant verdict is identical either way, but an early-stopped
	// run reports the (conservative, still valid) p-value of the truncated
	// permutation stream and a smaller Shifts counter.
	Exhaustive bool
}

func (c Config) withDefaults() Config {
	if c.Permutations <= 0 {
		c.Permutations = DefaultPermutations
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	return c
}

// Result reports the outcome of a significance test. Shifts counts the
// permutations actually evaluated: equal to Config.Permutations for an
// exhaustive (or significant — the verdict is only ever decided early in
// the insignificant direction) run, smaller when adaptive early
// termination stopped the test, and 0 for the tau = 0 shortcut. PValue is
// always computed over the evaluated permutations, so it is exact for full
// runs and a valid conservative p-value for truncated ones.
type Result struct {
	PValue      float64
	Significant bool
	TauObserved float64
	Shifts      int
}

// shiftScratch holds the working state of one toroidal-shift construction,
// reused across constructions so the steady-state loop allocates nothing.
type shiftScratch struct {
	used  []uint64 // bitset of already-assigned image regions; bits >= n pre-set
	queue []int
	cands []int
}

// pickUnused returns a random unused region, probing cyclically from a
// random start. One rng.Intn(n) draw is consumed; the probe scans the used
// bitset a word at a time, which matters late in the construction when most
// regions are taken. Bits at and above n are pre-set by toroidal, so they
// are never returned.
func pickUnused(used []uint64, n int, rng *rand.Rand) int {
	k := rng.Intn(n)
	w := k / 64
	free := ^used[w] &^ (1<<uint(k%64) - 1)
	for i := 0; ; i++ {
		if free != 0 {
			return w*64 + bits.TrailingZeros64(free)
		}
		if i >= len(used) {
			panic("montecarlo: no unused region left")
		}
		w++
		if w == len(used) {
			w = 0
		}
		free = ^used[w]
	}
}

// shuffle permutes xs uniformly, consuming the RNG exactly as rand.Shuffle
// does for lengths below 2^31 (a descending Fisher-Yates with one
// multiply-shift-reduced Uint32 per element and its rejection loop — locked
// by the Go 1 compatibility promise and asserted by
// TestShuffleMatchesRandShuffle). It is rand.Shuffle without the swap
// closure.
func shuffle(rng *rand.Rand, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if uint32(prod) < n {
			for thresh := -n % n; uint32(prod) < thresh; {
				prod = uint64(rng.Uint32()) * uint64(n)
			}
		}
		j := int(prod >> 32)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// toroidal builds one shift into perm, which must hold len(adj) regions.
// The draws — pickUnused probes and candidate shuffles, in breadth-first
// order — are ToroidalShift's; TestToroidalScratchMatchesPublic holds a
// reused scratch to it.
func (sc *shiftScratch) toroidal(adj [][]int, rng *rand.Rand, perm []int32) {
	n := len(adj)
	nw := (n + 63) / 64
	if cap(sc.used) < nw {
		sc.used = make([]uint64, nw)
		sc.queue = make([]int, 0, n)
	}
	used := sc.used[:nw]
	for i := range perm {
		perm[i] = -1
	}
	for i := range used {
		used[i] = 0
	}
	if tail := n % 64; tail != 0 {
		used[nw-1] = ^uint64(0) << uint(tail) // out-of-range bits read as used
	}
	queue := sc.queue[:0]
	cands := sc.cands[:0]
	for start := 0; start < n; start++ {
		if perm[start] >= 0 {
			continue
		}
		v := pickUnused(used, n, rng)
		perm[start] = int32(v)
		used[v/64] |= 1 << uint(v%64)
		queue = append(queue, start)
		for head := len(queue) - 1; head < len(queue); head++ {
			u := queue[head]
			// Candidate images: unused neighbors of the image of u, in
			// random order.
			cands = cands[:0]
			for _, w := range adj[perm[u]] {
				if used[w/64]>>uint(w%64)&1 == 0 {
					cands = append(cands, w)
				}
			}
			shuffle(rng, cands)
			ci := 0
			for _, up := range adj[u] {
				if perm[up] >= 0 {
					continue
				}
				var img int
				if ci < len(cands) {
					img = cands[ci]
					ci++
				} else {
					img = pickUnused(used, n, rng)
				}
				perm[up] = int32(img)
				used[img/64] |= 1 << uint(img%64)
				queue = append(queue, up)
			}
		}
	}
	sc.queue = queue[:0]
	sc.cands = cands[:0]
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

// permChunk is the number of randomizations per independently seeded chunk.
// Chunking is a function of Permutations alone — never of Workers — so the
// sequential and parallel paths evaluate identical RNG streams and produce
// byte-identical p-values.
const permChunk = 50

// chunkSeed derives the RNG seed of one permutation chunk from the test
// seed (a splitmix64 step keyed by the chunk index, so chunk streams are
// decorrelated even for adjacent seeds).
func chunkSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(chunk+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitmix is a splitmix64 rand.Source64. Seeding is constant-time, which
// matters here: every permutation chunk gets a fresh RNG, and the standard
// library's default source pays a 607-word warm-up per seed — measurably
// slowing a 20-chunk test down.
type splitmix struct{ state uint64 }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// intn returns what rand.New(s).Intn(n) would for n in [1, 2^31): Int31n's
// mask for a power of two and its rejection loop otherwise, draw for draw
// (TestSplitmixIntnMatchesRand), without the rand.Source interface call.
func (s *splitmix) intn(n int) int {
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(int32(s.Uint64()>>33) & (n32 - 1))
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n32))
	v := int32(s.Uint64() >> 33)
	for v > max {
		v = int32(s.Uint64() >> 33)
	}
	return int(v % n32)
}

// permInto fills buf with a uniform random permutation of [0, len(buf)),
// consuming the RNG exactly as rand.Perm does (the inside-out Fisher-Yates
// with one Intn(i+1) draw per element, in ascending order — locked by the
// Go 1 compatibility promise and asserted by TestPermIntoMatchesRandPerm).
// It is rand.Perm without the per-call allocation.
func permInto(rng *rand.Rand, buf []int) {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// shiftPoolBudget bounds the bytes of shifts one ShiftPool memoises: 4 MB
// holds 4,000 shifts of a 256-region domain.
const shiftPoolBudget = 4 << 20

// shiftStream separates the shift sequence a test without a pool draws
// from Config.Seed from the rotation stream drawn from the same seed.
const shiftStream = 0x746f726f6964616c // "toroidal"

// ShiftPool is the toroidal-shift sequence of one spatial adjacency: shift
// k is the (k mod permChunk)-th shift drawn from the stream seeded with
// chunkSeed(seed, k/permChunk). A shift depends on the adjacency and the
// RNG only, never on the functions under test, so every test of a family
// takes permutation k's shift from the same pool and the breadth-first
// construction runs once per shift instead of once per test.
//
// The leading chunks are memoised on first use, up to a byte budget; a
// chunk past it is regenerated from its seed into the caller's scratch, so
// a result depends on the sequence and never on what is memoised
// (TestShiftPoolMemoIndependence). A pool is safe for concurrent use.
type ShiftPool struct {
	adj  [][]int
	seed int64
	memo []shiftChunk
}

type shiftChunk struct {
	once   sync.Once
	shifts []int32 // permChunk shifts of len(adj) regions, back to back
}

// NewShiftPool returns the shift sequence of adj under seed.
func NewShiftPool(adj [][]int, seed int64) *ShiftPool {
	return newShiftPool(adj, seed, shiftPoolBudget)
}

func newShiftPool(adj [][]int, seed int64, budget int) *ShiftPool {
	p := &ShiftPool{adj: adj, seed: seed}
	if slots := budget / (permChunk * 4 * max(len(adj), 1)); slots > 0 {
		p.memo = make([]shiftChunk, slots)
		// Followers open a framework per epoch and never close the old one,
		// so the gauge gets a pool's bytes back when the pool is collected.
		runtime.SetFinalizer(p, func(p *ShiftPool) { mShiftPoolBytes.Add(-float64(p.memoBytes())) })
	}
	return p
}

// memoBytes counts the bytes memoised so far. It reads the memo without
// synchronisation: no chunk call may be in flight.
func (p *ShiftPool) memoBytes() (n int) {
	for i := range p.memo {
		n += 4 * len(p.memo[i].shifts)
	}
	return n
}

// chunk returns shifts [ci*permChunk, (ci+1)*permChunk) of the sequence.
// The result is read-only and, past the memo, valid until sc's next call.
func (p *ShiftPool) chunk(ci int, sc *scratch) []int32 {
	size := permChunk * len(p.adj)
	if ci >= len(p.memo) {
		if cap(sc.shifts) < size {
			sc.shifts = make([]int32, size)
		}
		return p.generate(ci, sc, sc.shifts[:size])
	}
	c := &p.memo[ci]
	c.once.Do(func() {
		c.shifts = p.generate(ci, sc, make([]int32, size))
		mShiftPoolBytes.Add(float64(4 * size))
	})
	return c.shifts
}

// generate draws chunk ci of the sequence into dst through sc's RNG, which
// it leaves mid-stream: the caller reseeds it.
func (p *ShiftPool) generate(ci int, sc *scratch, dst []int32) []int32 {
	sc.src.state = uint64(chunkSeed(p.seed, ci))
	n := len(p.adj)
	for k := 0; k < permChunk; k++ {
		sc.shift.toroidal(p.adj, sc.rng, dst[k*n:(k+1)*n])
	}
	mShiftsBuilt.Add(permChunk)
	return dst
}

// stopThreshold is the exceedance count that decides a test early: once
// extreme >= ceil(alpha*(m+1)), every possible completion of the
// permutation stream has 1+extreme > alpha*(m+1), hence
// p = (1+extreme_final)/(1+m) > alpha — the exceedance count only grows,
// so the verdict "not significant" is already exact. The bound is
// one-sided by construction: a test can never be declared *significant*
// early, because the remaining permutations could still push the count
// over the threshold.
func stopThreshold(alpha float64, m int) int {
	return int(math.Ceil(alpha * float64(m+1)))
}

// foldCounts replays per-chunk exceedance counts in deterministic chunk
// order, applying the early-stopping rule exactly as a sequential scan
// would: accumulate chunk by chunk and stop at the end of the first chunk
// whose cumulative count reaches threshold. It returns the accumulated
// exceedances and the number of permutations covered. Both the sequential
// and the parallel paths reduce through this one function, which is what
// keeps their Results byte-identical: the stopping point is a pure
// function of the (deterministic) per-chunk counts, never of scheduling.
func foldCounts(counts []int, m, threshold int, exhaustive bool) (extreme, shifts int) {
	for ci, c := range counts {
		extreme += c
		shifts = min((ci+1)*permChunk, m)
		if !exhaustive && extreme >= threshold {
			break
		}
	}
	return extreme, shifts
}

// vectorPrep is the per-test immutable state of the tau kernel: both
// feature sets re-laid-out so that each randomization becomes a handful of
// word-level reads and popcounts. It is built once per Test, shared
// read-only by all worker goroutines, and refilled in place from prepPool
// by the next Test once this one is done with it.
//
// For Restricted and Block kinds both functions are transposed to
// region-major lanes. Function 1's masks are lane-padded: region r's
// time-run occupies the laneBits-bit lane starting at bit r*laneBits, with
// laneBits = NumWords(nSteps)*64, so every lane starts on a word boundary
// and the padding bits [nSteps, laneBits) are permanently zero. Function 2's
// lanes are doubled: region r's time-run sits twice, back to back, at the
// start of a dblBits-bit lane that ends in a spare word, so the run rotated
// by rot steps is the contiguous nSteps-bit window starting at bit
// nSteps-rot, and the word after a window's last always exists. A region
// shift pairs a source lane with another destination lane — no per-vertex
// index arithmetic, nothing stored. For Standard the native vertex-major
// layout is already right; only the union mask is precomputed.
type vectorPrep struct {
	laneBits int // function 1: nSteps rounded up to a multiple of 64
	dblBits  int // function 2: 2*nSteps rounded up to a multiple of 64, plus one word

	pos, neg side           // per sign: function 2's lanes against function 1's mask
	aAllT    *bitvec.Vector // function 1's union, lane-padded

	// aAllLane[r] reports whether function 1 has any feature in region r.
	// A destination lane with no function-1 features contributes zero to
	// every popcount no matter what lands there, so the kernel skips it.
	aAllLane []bool

	// bPosAny/bNegAny gate entire sides of the Standard kernel: a function
	// with no negative features (common under one-tailed thresholds) skips
	// the negative scatter and popcount pass altogether.
	bPosAny, bNegAny bool

	aAllV *bitvec.Vector // vertex-major union of function 1 (Standard kind)
}

// side is one sign of a transposed pair.
type side struct {
	a     *bitvec.Vector // function 1's features of this sign, lane-padded
	b     *bitvec.Vector // function 2's, in doubled lanes; nil when it has none
	lanes []int32        // regions whose lane of b holds a feature, ascending
}

// transposeLanes re-lays v (vertex-major, vertex = step*R + region) into
// region-major lanes of stride bits: region r's step s is bit r*stride + s
// and, in a doubled lane, bit r*stride + nSteps + s as well. On one region
// v already is the lane, so it is copied a word at a time. dst is re-sized
// and zeroed first (allocated when nil); union, when not nil, gets the
// same bits on top of what it holds.
func transposeLanes(dst, union, v *bitvec.Vector, g *stgraph.Graph, stride int, doubled bool) *bitvec.Vector {
	if dst == nil {
		dst = new(bitvec.Vector)
	}
	dst.Resize(g.NumRegions() * stride)
	if S := g.NumSteps(); g.NumRegions() == 1 {
		dst.CopyRange(v, 0, 0, S)
		if doubled {
			dst.CopyRange(v, 0, S, S)
		}
		if union != nil {
			union.OrWith(dst)
		}
		return dst
	}
	for wi, w := range v.Words() {
		for ; w != 0; w &= w - 1 {
			r, s := g.RegionStep(wi*64 + bits.TrailingZeros64(w))
			dst.Set(r*stride + s)
			if doubled {
				dst.Set(r*stride + g.NumSteps() + s)
			}
			if union != nil {
				union.Set(r*stride + s)
			}
		}
	}
	return dst
}

func (p *vectorPrep) fillSide(s *side, a, b *bitvec.Vector, g *stgraph.Graph) {
	s.a = transposeLanes(s.a, p.aAllT, a, g, p.laneBits, false)
	s.lanes = s.lanes[:0]
	if b.Any() {
		s.b = transposeLanes(s.b, nil, b, g, p.dblBits, true)
		for r := 0; r < g.NumRegions(); r++ {
			if s.b.AnyRange(r*p.dblBits, r*p.dblBits+g.NumSteps()) {
				s.lanes = append(s.lanes, int32(r))
			}
		}
	}
}

// prepPool recycles vectorPrep buffers across tests: opening a test then
// refills lanes already sized for a domain of its shape instead of
// allocating them.
var prepPool = sync.Pool{New: func() any { return &vectorPrep{aAllT: new(bitvec.Vector)} }}

func newVectorPrep(a, b *feature.Set, g *stgraph.Graph, kind Kind) *vectorPrep {
	p := prepPool.Get().(*vectorPrep)
	p.laneBits = bitvec.NumWords(g.NumSteps()) * 64
	p.dblBits = (bitvec.NumWords(2*g.NumSteps()) + 1) * 64
	p.bPosAny, p.bNegAny = b.Positive.Any(), b.Negative.Any()
	p.aAllV = nil
	if kind == Standard {
		p.aAllV = a.All()
		return p
	}
	p.aAllT.Resize(g.NumRegions() * p.laneBits)
	p.fillSide(&p.pos, a.Positive, b.Positive, g)
	p.fillSide(&p.neg, a.Negative, b.Negative, g)
	p.aAllLane = slices.Grow(p.aAllLane[:0], g.NumRegions())[:g.NumRegions()]
	for r := range p.aAllLane {
		p.aAllLane[r] = p.aAllT.AnyRange(r*p.laneBits, (r+1)*p.laneBits)
	}
	return p
}

// scratch is the per-worker mutable state of a test run: a reseedable RNG
// and the permutation/output buffers every randomization writes into. Each
// goroutine of a Test takes one from scratchPool, sized for this run, so the
// steady-state permutation loop allocates nothing (asserted by
// TestChunkSteadyStateAllocs) and neither, once warm, does opening a test.
type scratch struct {
	src splitmix
	rng *rand.Rand

	perm []int // Standard: vertex perm; Block: block perm

	// shift builds the toroidal shifts a pool asks this worker for; shifts
	// holds a chunk of them when it lies past the pool's memo.
	shift  shiftScratch
	shifts []int32

	// Standard: function 2's permuted positive/negative vectors,
	// vertex-major.
	permPos, permNeg *bitvec.Vector

	// Block: the one destination lane a source lane's blocks are laid out
	// in, wholly overwritten before each count.
	lane *bitvec.Vector

	// rot is the rotation table of a one-region Restricted test, the one
	// test this scratch serves (see rotChunk).
	rot rotTable
}

// rotTable classifies the rotations of a one-region Restricted test by
// whether tau under the rotation is as extreme as the observed score.
type rotTable struct {
	class   []uint8 // by rotation: rotUnknown, rotOrdinary or rotExtreme
	size    int     // rotations a draw can land on: 1..S-1, or rotation 0 when S = 1
	known   int     // rotations classified so far
	extreme int     // classified rotations that are extreme
}

const (
	rotUnknown uint8 = iota
	rotOrdinary
	rotExtreme
)

func (sc *scratch) intBuf(n int) []int {
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	return sc.perm[:n]
}

// scratchPool recycles worker scratches across tests. The RNG wraps the
// scratch's own splitmix source; chunk reseeding just overwrites the source
// state, which yields the same stream as a freshly constructed rand.New
// for that seed.
var scratchPool = sync.Pool{New: func() any {
	sc := &scratch{permPos: new(bitvec.Vector), permNeg: new(bitvec.Vector), lane: new(bitvec.Vector)}
	sc.rng = rand.New(&sc.src)
	return sc
}}

// newScratch takes a worker's scratch from the pool and sizes it for this
// run; the worker puts it back when the run is done.
func (t *testRun) newScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	switch {
	case t.cfg.Kind == Standard:
		sc.permPos.Resize(t.a.NumVertices())
		sc.permNeg.Resize(t.a.NumVertices())
	case t.cfg.Kind == Block:
		sc.lane.Resize(t.prep.laneBits)
	case t.oneRegion():
		S := t.g.NumSteps()
		sc.rot = rotTable{class: slices.Grow(sc.rot.class[:0], S)[:S], size: max(S-1, 1)}
		clear(sc.rot.class)
	}
	return sc
}

// tauFromCounts turns the fused popcount tallies into tau. With
// pp = |sigma(pos2) ∩ aPos|, bp = |sigma(pos2) ∩ aAll| (and pn/bn the
// negative-side mirrors), the per-vertex definition's tallies are
// p = pp + pn, |Σ| = bp + bn, n = |Σ| - p: a positive feature of function 2
// landing on a positive feature of function 1 counts toward p even when
// the vertex is also negative. Identical integer counts make the float64
// division bit-identical to the test oracle's.
func tauFromCounts(pp, pn, bp, bn int) float64 {
	sigmaBoth := bp + bn
	if sigmaBoth == 0 {
		return 0
	}
	p := pp + pn
	n := sigmaBoth - p
	return float64(p-n) / float64(sigmaBoth)
}

// countTau is the whole-vector variant of tauFromCounts used by the
// Standard kernel, whose uniform vertex permutation has no lane structure
// to exploit.
func (t *testRun) countTau(sc *scratch, aPos, aNeg, aAll *bitvec.Vector) float64 {
	var pp, bp, pn, bn int
	if t.prep.bPosAny {
		pp, bp = sc.permPos.AndCount2(aPos, aAll)
	}
	if t.prep.bNegAny {
		pn, bn = sc.permNeg.AndCount2(aNeg, aAll)
	}
	return tauFromCounts(pp, pn, bp, bn)
}

// vectorTauRestricted counts one Restricted randomization: region r of
// function 2 lands on region spatPerm[r] (r itself when spatPerm is nil)
// rotated by rot steps over the temporal circle — the window of its doubled
// lane that starts at bit nSteps-rot — and that window is counted against
// function 1's destination lane a word at a time, never stored.
func (t *testRun) vectorTauRestricted(spatPerm []int32, rot int) float64 {
	pp, bp := t.countRotated(&t.prep.pos, spatPerm, rot)
	pn, bn := t.countRotated(&t.prep.neg, spatPerm, rot)
	return tauFromCounts(pp, pn, bp, bn)
}

// countRotated tallies one sign of a Restricted randomization: same counts
// the vertices where function 2's shifted features meet function 1's of the
// same sign, both where they meet any. Only non-empty source lanes are
// visited, and a destination lane without function-1 features is skipped —
// it zeroes every AND.
func (t *testRun) countRotated(s *side, spatPerm []int32, rot int) (same, both int) {
	p, S := t.prep, t.g.NumSteps()
	for _, r := range s.lanes {
		dst := r
		if spatPerm != nil {
			dst = spatPerm[r]
		}
		if !p.aAllLane[dst] {
			continue
		}
		c, cb := s.b.AndCount2Window(int(r)*p.dblBits+S-rot, S, s.a, p.aAllT, int(dst)*p.laneBits)
		same += c
		both += cb
	}
	return same, both
}

// vectorTauBlock counts one Block randomization: within each source lane
// the temporal blocks are laid out consecutively in blockPerm order, and the
// lane is counted against function 1's lane at spatPerm[r].
func (t *testRun) vectorTauBlock(sc *scratch, spatPerm []int32, blockPerm []int, l int) float64 {
	pp, bp := t.countBlocks(&t.prep.pos, sc.lane, spatPerm, blockPerm, l)
	pn, bn := t.countBlocks(&t.prep.neg, sc.lane, spatPerm, blockPerm, l)
	return tauFromCounts(pp, pn, bp, bn)
}

// countBlocks is countRotated for Block: the blocks, read from the first
// copy of the doubled lane, partition [0, nSteps), so piecewise copies
// overwrite all of lane's first nSteps bits before it is counted.
func (t *testRun) countBlocks(s *side, lane *bitvec.Vector, spatPerm []int32, blockPerm []int, l int) (same, both int) {
	p, S := t.prep, t.g.NumSteps()
	for _, r := range s.lanes {
		dst := r
		if spatPerm != nil {
			dst = spatPerm[r]
		}
		if !p.aAllLane[dst] {
			continue
		}
		pos := 0
		for _, b := range blockPerm {
			lo := b * l
			n := min(l, S-lo)
			lane.CopyRange(s.b, int(r)*p.dblBits+lo, pos, n)
			pos += n
		}
		c, cb := lane.AndCount2Window(0, S, s.a, p.aAllT, int(dst)*p.laneBits)
		same += c
		both += cb
	}
	return same, both
}

// vectorTauStandard materializes one Standard randomization by scattering
// function 2's feature vertices through the vertex permutation into
// vertex-major scratch vectors (reset per call — a uniform perm has no
// lane structure to overwrite in place).
func (t *testRun) vectorTauStandard(sc *scratch, vertPerm []int) float64 {
	p := t.prep
	if p.bPosAny {
		sc.permPos.Reset()
		for _, v := range t.pos2 {
			sc.permPos.Set(vertPerm[v])
		}
	}
	if p.bNegAny {
		sc.permNeg.Reset()
		for _, v := range t.neg2 {
			sc.permNeg.Set(vertPerm[v])
		}
	}
	return t.countTau(sc, t.a.Positive, t.a.Negative, p.aAllV)
}

// Test runs the Monte Carlo significance test for the relationship between
// two feature sets on the shared domain graph g, given the observed score
// tauObserved.
//
// Restricted mode: when the domain has more than one region, randomization
// k applies toroidal shift k of Config.Shifts to the regions; time is
// additionally rotated, by the test's own draw, to respect temporal
// wrap-around. For pure time series (one region), only the circular time
// rotation is used. Standard mode permutes all vertices uniformly.
//
// The randomizations run in fixed-size chunks with per-chunk deterministic
// seeds; Config.Workers spreads the chunks over goroutines without changing
// the result (see Config). A one-region Restricted test has only S-1
// distinct randomizations over S steps, so its chunks share a table that
// runs the kernel once per rotation (see rotChunk).
//
// An observed score of zero or NaN is never significant: no randomization
// is evaluated and p = 1.
//
// Unless Config.Exhaustive is set, the test terminates adaptively: it
// stops at the first chunk boundary where the exceedance count reaches
// stopThreshold, which proves p > Alpha no matter how the remaining
// permutations would fall. The Significant verdict is therefore identical
// to an exhaustive run for every input and seed (asserted by
// TestAdaptiveExhaustiveParity); only insignificant tests stop early, so
// significant pairs always report their exact full-|m| p-value, while
// stopped tests report the conservative p-value of the truncated stream
// over Result.Shifts permutations.
func Test(a, b *feature.Set, g *stgraph.Graph, tauObserved float64, cfg Config) Result {
	res, _ := test(a, b, g, tauObserved, cfg, nil)
	return res
}

// test is Test with an optional per-permutation tau sink, the hook the
// kernel-parity tests use to compare the full tau stream (not just the
// folded Result) against the per-vertex oracle. sink is called with the
// global permutation index; under Workers > 1 calls arrive concurrently
// from multiple goroutines and may cover chunks past the adaptive stopping
// point (in-flight work), so parity tests compare streams in Exhaustive
// mode. A sink sees every draw, so it turns rotChunk's closed forms off.
// The run is returned for its counters; it is nil when no randomization
// was evaluated.
func test(a, b *feature.Set, g *stgraph.Graph, tauObserved float64, cfg Config, sink func(perm int, tau float64)) (Result, *testRun) {
	cfg = cfg.withDefaults()
	if a.NumVertices() != g.NumVertices() || b.NumVertices() != g.NumVertices() {
		panic(fmt.Sprintf("montecarlo: feature sets (%d, %d vertices) do not match graph (%d)",
			a.NumVertices(), b.NumVertices(), g.NumVertices()))
	}
	if tauObserved == 0 || math.IsNaN(tauObserved) {
		mTests.Inc()
		return Result{PValue: 1, Significant: false, TauObserved: 0, Shifts: 0}, nil
	}
	if cfg.Shifts == nil {
		// No memo: this test is the sequence's only reader, so each chunk
		// is drawn into the scratch of the worker that evaluates it.
		cfg.Shifts = newShiftPool(g.SpatialAdjacency(), cfg.Seed^shiftStream, 0)
	} else if len(cfg.Shifts.adj) != g.NumRegions() {
		panic(fmt.Sprintf("montecarlo: shift pool over %d regions does not match graph (%d)",
			len(cfg.Shifts.adj), g.NumRegions()))
	}
	run := &testRun{
		a:    a,
		g:    g,
		tau:  tauObserved,
		cfg:  cfg,
		prep: newVectorPrep(a, b, g, cfg.Kind),
		sink: sink,
	}
	if cfg.Kind == Standard {
		// Only the Standard scatter walks individual vertices; the lane
		// kernels never do, so skip materializing the index slices for them.
		run.pos2 = b.Positive.Ones()
		run.neg2 = b.Negative.Ones()
	}
	nChunks := (cfg.Permutations + permChunk - 1) / permChunk
	threshold := stopThreshold(cfg.Alpha, cfg.Permutations)
	counts := make([]int, nChunks)
	if w := min(cfg.Workers, nChunks); w > 1 && !run.oneRegion() {
		run.parallel(w, counts, threshold)
	} else {
		sc := run.newScratch()
		ex := 0
		for ci := range counts {
			if run.oneRegion() {
				counts[ci] = run.rotChunk(ci, sc)
			} else {
				counts[ci] = run.chunk(ci, sc)
			}
			ex += counts[ci]
			if !cfg.Exhaustive && ex >= threshold {
				break
			}
		}
		scratchPool.Put(sc)
	}
	prepPool.Put(run.prep)
	extreme, shifts := foldCounts(counts, cfg.Permutations, threshold, cfg.Exhaustive)
	p := float64(1+extreme) / float64(1+shifts)
	mTests.Inc()
	mPermutations.Add(uint64(shifts))
	if shifts < cfg.Permutations {
		mEarlyStops.Inc()
	}
	return Result{
		PValue:      p,
		Significant: p <= cfg.Alpha,
		TauObserved: tauObserved,
		Shifts:      shifts,
	}, run
}

// parallel evaluates permutation chunks on w goroutines, filling counts.
// Workers claim chunk indices from a shared cursor, so chunks are claimed
// in order. Early stopping is coordinated through the completed *prefix*
// of chunks: claiming halts once the chunks 0..c are all done and their
// cumulative exceedances reach threshold — the same condition foldCounts
// re-derives afterwards. Workers may finish chunks beyond the stopping
// point (at most one in-flight chunk each); those counts are recorded but
// lie past where foldCounts stops, so they can never influence the Result.
func (t *testRun) parallel(w int, counts []int, threshold int) {
	var (
		mu       sync.Mutex
		done     = make([]bool, len(counts))
		prefix   int
		prefixEx int
		next     atomic.Int64
		stopped  atomic.Bool
		wg       sync.WaitGroup
	)
	report := func(ci, c int) {
		mu.Lock()
		defer mu.Unlock()
		counts[ci] = c
		done[ci] = true
		for !stopped.Load() && prefix < len(counts) && done[prefix] {
			prefixEx += counts[prefix]
			prefix++
			if !t.cfg.Exhaustive && prefixEx >= threshold {
				stopped.Store(true)
			}
		}
	}
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := t.newScratch()
			defer scratchPool.Put(sc)
			for !stopped.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= len(counts) {
					return
				}
				report(ci, t.chunk(ci, sc))
			}
		}()
	}
	wg.Wait()
}

// testRun carries the immutable inputs of one significance test across its
// permutation chunks.
type testRun struct {
	a          *feature.Set
	pos2, neg2 []int
	g          *stgraph.Graph
	tau        float64
	cfg        Config
	prep       *vectorPrep
	sink       func(perm int, tau float64)

	// Chunks rotChunk decided without drawing, by an empty and by a full
	// extreme set.
	decidedNone, decidedAll int
}

// oneRegion reports whether the test's randomization is a time rotation
// alone, the shape rotChunk counts.
func (t *testRun) oneRegion() bool {
	return t.cfg.Kind == Restricted && t.g.NumRegions() == 1
}

// isExtreme reports whether a randomization's tau is at least as extreme as
// the observed score, in the observed score's direction.
func (t *testRun) isExtreme(tauK float64) bool {
	return (t.tau < 0 && tauK <= t.tau) || (t.tau > 0 && tauK >= t.tau)
}

// chunk counts the extreme randomizations among permutation indices
// [ci*permChunk, min((ci+1)*permChunk, |m|)). Permutation k's toroidal
// shift is shift k of the pool; the draws that are the test's own — vertex
// or block permutation, time rotation — come from the chunk's
// deterministically seeded stream in sc. The test oracle replays both
// sequences draw for draw; reordering one changes every reported p-value
// (and fails TestKernelParity). A one-region Restricted test counts its
// chunks with rotChunk instead.
func (t *testRun) chunk(ci int, sc *scratch) int {
	g := t.g
	nRegions := g.NumRegions()
	nSteps := g.NumSteps()
	nVerts := g.NumVertices()
	var shifts []int32
	if nRegions > 1 && t.cfg.Kind != Standard {
		shifts = t.cfg.Shifts.chunk(ci, sc)
	}
	sc.src.state = uint64(chunkSeed(t.cfg.Seed, ci))
	rng := sc.rng
	n := t.cfg.Permutations - ci*permChunk
	if n > permChunk {
		n = permChunk
	}
	extreme := 0
	for k := 0; k < n; k++ {
		var spatPerm []int32
		if shifts != nil {
			spatPerm = shifts[k*nRegions : (k+1)*nRegions]
		}
		var tauK float64
		switch t.cfg.Kind {
		case Standard:
			perm := sc.intBuf(nVerts)
			permInto(rng, perm)
			tauK = t.vectorTauStandard(sc, perm)
		case Block:
			l := blockLength(nSteps)
			nBlocks := (nSteps + l - 1) / l
			blockPerm := sc.intBuf(nBlocks)
			permInto(rng, blockPerm)
			tauK = t.vectorTauBlock(sc, spatPerm, blockPerm, l)
		default: // Restricted
			rot := 0
			if nSteps > 1 {
				rot = 1 + sc.src.intn(nSteps-1)
			}
			tauK = t.vectorTauRestricted(spatPerm, rot)
		}
		if t.sink != nil {
			t.sink(ci*permChunk+k, tauK)
		}
		if t.isExtreme(tauK) {
			extreme++
		}
	}
	mTauEvals.Add(uint64(n))
	return extreme
}

// rotChunk is chunk for a one-region Restricted test, whose randomization
// is its time rotation alone. It replays chunk's draws — the chunk's seed,
// one rotation per permutation — and counts the draws that land on an
// extreme rotation. The kernel runs only for a rotation sc's table has not
// classified yet, so a test runs it at most once per rotation. Once every
// rotation is classified and none or all of them are extreme, the count is
// 0 or n whatever the draws, and none is made.
func (t *testRun) rotChunk(ci int, sc *scratch) int {
	tab := &sc.rot
	n := min(permChunk, t.cfg.Permutations-ci*permChunk)
	if t.sink == nil && tab.known == tab.size {
		switch tab.extreme {
		case 0:
			t.decidedNone++
			return 0
		case tab.size:
			t.decidedAll++
			return n
		}
	}
	S, known := t.g.NumSteps(), tab.known
	sc.src.state = uint64(chunkSeed(t.cfg.Seed, ci))
	extreme := 0
	for k := 0; k < n; k++ {
		rot := 0
		if S > 1 {
			rot = 1 + sc.src.intn(S-1)
		}
		c := tab.class[rot]
		if c == rotUnknown {
			c = rotOrdinary
			if t.isExtreme(t.vectorTauRestricted(nil, rot)) {
				c = rotExtreme
				tab.extreme++
			}
			tab.class[rot] = c
			tab.known++
		}
		if t.sink != nil {
			t.sink(ci*permChunk+k, t.vectorTauRestricted(nil, rot))
		}
		if c == rotExtreme {
			extreme++
		}
	}
	mTauEvals.Add(uint64(tab.known - known))
	return extreme
}
