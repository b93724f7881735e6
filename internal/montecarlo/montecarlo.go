// Package montecarlo implements the statistical significance machinery of
// the Data Polygamy framework (Section 4 of the paper): restricted Monte
// Carlo permutation tests that respect the spatial and temporal
// dependencies of urban data.
//
// Spatial correlation is respected through graph toroidal shifts: a random
// bijection of the region set built breadth-first so that adjacent regions
// map to adjacent regions wherever possible. Temporal correlation is
// respected by wrapping time onto a circle and rotating it. This is the
// only randomization the package runs: the standard (unrestricted) vertex
// permutation that Section 6.3 contrasts with it is a test oracle
// (kernel_test.go), which asserts the section's claim on null pairs.
//
// The p-value follows Equation (3)/(4) with add-one smoothing and is
// two-sided: p = (1 + #{k : |tau_k| >= |tau*|}) / (1 + |m|). A
// randomization counts as extreme when its score ties or beats the
// observed score's magnitude in either direction, so a strongly negative
// and a strongly positive relationship are judged by one rule, and
// "p <= alpha" is a level-alpha test over both directions together, not
// alpha per direction. An observed score of zero or NaN is never
// significant: no randomization is evaluated and p = 1.
//
// On a one-region domain a Restricted randomization is a time rotation
// alone, and a domain of S steps has only S-1 of them besides the
// identity. They are enumerated, not sampled: |m| = S-1, so p = (1 +
// #extreme) / S is the exact permutation p-value and no RNG is drawn. Its
// smallest attainable value is 1/S, so when 1/S > alpha no outcome can be
// significant; such a test is not resolvable (Tarone's rule, Biometrics
// 1990). Resolvable states the rule on the domain's shape alone, so a
// caller can apply it before a test exists and leave the candidate out of
// its multiple-testing family; Test applies it too and reports such a test
// as NotResolvable without evaluating anything.
//
// The randomizations are never stored: both feature sets are transposed
// once per test into region-major lanes, and a rotated lane is a window of
// function 2's doubled lane. A test counts each randomization by one of two
// walks, the one its feature and lane counts make cheaper: the word walk
// counts each window against function 1's lane a word at a time, both signs
// in one pass, two popcounts a word of 64 vertices; the feature walk lists
// the sparser function's features and, in one flat loop, reads the other
// function's sign code where each lands. Only the feature walk counts a
// function 2 with a vertex of both signs, which extracted feature sets
// almost never have. The per-vertex transcription of the
// paper's definition lives in kernel_test.go as the oracle every
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
		"Tau kernel runs: one per permutation; a one-region Restricted test's permutations are its rotations, each run once.")
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

// Config parameterises a significance test.
type Config struct {
	Permutations int     // number of randomizations |m|; 0 => DefaultPermutations
	Alpha        float64 // significance level; 0 => DefaultAlpha
	Seed         int64   // RNG seed for reproducibility

	// Shifts is the toroidal-shift sequence the test takes its spatial
	// shifts from; it must be over the graph's spatial adjacency. A family
	// of tests shares one pool (see ShiftPool). Nil draws the same kind of
	// sequence from Seed, for this test alone.
	Shifts *ShiftPool

	// Workers is ignored: a test evaluates its chunks in order on the
	// calling goroutine, and a caller that runs many tests runs them on its
	// own worker pool.
	//
	// Deprecated: nothing reads it. It goes with bench/replay.go, its last
	// setter (see ROADMAP.md).
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
// permutations actually evaluated: equal to Config.Permutations (S-1, the
// rotations, for a one-region test) for an exhaustive (or significant — the
// verdict is only ever decided early in the insignificant direction) run,
// smaller when adaptive early termination stopped the test, and 0 for the
// tau = 0 shortcut and a test that is not resolvable. Extreme counts the
// evaluated permutations at least as extreme as the observed score, and
// PValue is PValue(Extreme, Shifts): exact for full runs and a valid
// conservative p-value for truncated ones.
//
// NotResolvable marks a one-region test whose smallest attainable p-value
// exceeds Alpha: nothing was evaluated, PValue is 1, and the test is no
// hypothesis a correction should count.
type Result struct {
	PValue        float64
	Significant   bool
	TauObserved   float64
	Extreme       int
	Shifts        int
	NotResolvable bool
}

// PValue is the p-value of a test that visited randomizations of which
// extreme were at least as extreme as the observed score: (1 + extreme) /
// (1 + visited), Eqs. (3) and (4) of the paper. It is the one place a
// p-value is made; zero counts give 1.
func PValue(extreme, visited int) float64 {
	return float64(1+extreme) / float64(1+visited)
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

// permChunk is the number of randomizations per independently seeded chunk.
// Chunk ci's rotations come from the stream seeded with chunkSeed(Seed, ci)
// and its shifts are the pool's chunk ci, so permutation k is a function of
// the seed and k alone.
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

// vectorPrep is the per-test immutable state of the tau kernel: both
// feature sets re-laid-out so that each randomization becomes a handful of
// word-level reads and popcounts, or one table read per listed feature. It
// is built once per Test, read by each of its randomizations, and refilled
// in place from prepPool by the next Test once this one is done with it.
//
// Both functions are transposed to region-major lanes. Function 1's masks
// are lane-padded: region r's time-run occupies the laneBits-bit lane
// starting at bit r*laneBits, with laneBits = NumWords(nSteps)*64, so every
// lane starts on a word boundary and the padding bits [nSteps, laneBits) are
// permanently zero. Function 2's lanes are doubled: region r's time-run sits
// twice, back to back, at the start of a dblBits-bit lane that ends in a
// spare word, so the run rotated by rot steps is the contiguous nSteps-bit
// window starting at bit nSteps-rot, and the word after a window's last
// always exists. A region shift pairs a source lane with another destination
// lane — no per-vertex index arithmetic, nothing stored. A test the feature
// walk counts also has one function's features listed (see listFlat).
type vectorPrep struct {
	laneBits int // function 1: nSteps rounded up to a multiple of 64
	dblBits  int // function 2: 2*nSteps rounded up to a multiple of 64, plus one word

	aPos, aNeg, aAll *bitvec.Vector // function 1's features by sign and their union, lane-padded
	bPos, bNeg       *bitvec.Vector // function 2's, doubled; all zero for a sign it lacks
	bLanes           []int32        // regions where function 2 has a feature of either sign, ascending

	// aAllLane[r] reports whether function 1 has any feature in region r.
	// A destination lane with no function-1 features contributes zero to
	// every popcount no matter what lands there, so the word walk skips it.
	aAllLane []bool

	// The feature walk's layout, filled by listFlat: one function's features,
	// lane by lane and steps ascending, and the other's sign codes
	// (pos | neg<<1, one byte a step) in doubled lanes of 2*nSteps bytes.
	flat []flatEntry
	code []uint8
}

// flatEntry is one listed feature: its region and step<<2 | pos | neg<<1.
type flatEntry struct {
	lane int32
	key  uint32
}

// walk selects how a test counts a randomization. Tests force each walk
// through test; Test always lets newVectorPrep choose.
type walk uint8

const (
	chooseWalk walk = iota // the cheaper walk by the cost rule of chooseFor
	wordWalk               // countWords over transposed lanes
	flatA                  // countFlat over function 1's listed features
	flatB                  // countFlat over function 2's
)

// The walk choice weighs, per randomization, the feature walk's reads
// against the word walk's window words, in features read. wordEntries is
// how many features the feature walk reads in the time the word walk counts
// one word of a window, both signs at once; a window of a lane of w words
// spans w+1. scatterRegions is how many regions it scatters into σ⁻¹, to
// walk function 1's features, in the time of one read. Forced on
// BenchmarkShiftedTauKernel's rows, function 2's signs disjoint (median ns
// per randomization of 5 runs, 2-core Xeon, word walk / feature walk over
// function 2), a read costs 1.8–2.9 ns and a window word 4.5–8: 48x14 at 85
// features a side, one-word lanes, 391 / 250; 48x90 at 921 / 856, two-word
// lanes, 1,163 / 1,483; 48x1416 at 600, 23-word lanes, 5,230 / 1,303;
// 48x2160 at 1,500, 34-word lanes, 10,403 / 3,457; 1x2160 at 1,300, 170 /
// 1,743 — about 2.5 reads a window word. On 256x90 at 30 / 400 features
// the walk over function 1's, σ⁻¹ included, costs 374 and over function
// 2's 986: a region scattered costs about half a read. With these constants
// every row gets its fastest walk, or on 48x14 and 48x2160, whose two
// feature walks tie within run-to-run spread, one of the two.
const (
	wordEntries    = 3
	scatterRegions = 2
)

// chooseFor is the walk a test's counts make cheaper: the feature walk over
// the sparser side — function 1's nA features plus R/scatterRegions for
// σ⁻¹, or function 2's nB — when it reads fewer than wordEntries features
// per word of the windows of function 2's listed lanes or when function 2
// has a vertex of both signs (overlap), which the word walk does not count,
// the word walk otherwise.
func chooseFor(nA, nB, R, lanes, laneWords int, overlap bool) walk {
	flat, w := nA+R/scatterRegions, flatA
	if nB < flat {
		flat, w = nB, flatB
	}
	if overlap || flat < wordEntries*lanes*(laneWords+1) {
		return w
	}
	return wordWalk
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
	// (r, s) is vertex at's region and step, advanced from one set bit to
	// the next without a division: the walk crosses each step once. Bits
	// are written to the words directly: every index is below R*stride.
	R, r, s, at := g.NumRegions(), 0, 0, 0
	var uw []uint64
	if union != nil {
		uw = union.Words()
	}
	dw := dst.Words()
	for wi, w := range v.Words() {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			for r += i - at; r >= R; r -= R {
				s++
			}
			at = i
			j := uint(r*stride + s)
			dw[j/64] |= 1 << (j % 64)
			if doubled {
				k := j + uint(g.NumSteps())
				dw[k/64] |= 1 << (k % 64)
			}
			if uw != nil {
				uw[j/64] |= 1 << (j % 64)
			}
		}
	}
	return dst
}

// listFlat fills the feature walk's layout for walk w: the walked
// function's features as entries, lane by lane and steps ascending, and the
// other's codes, each step at both of its positions in the doubled code
// lane. Either function's lanes are read up to nSteps bits: past them a
// doubled lane repeats itself.
func (p *vectorPrep) listFlat(w walk, R, S int) {
	fn := [2][2]*bitvec.Vector{{p.aPos, p.aNeg}, {p.bPos, p.bNeg}}
	stride := [2]int{p.laneBits, p.dblBits}
	order := [2]int{1, 0} // the function coded, then the one listed
	if w == flatB {
		order = [2]int{0, 1}
	}
	p.code = slices.Grow(p.code[:0], R*2*S)[:R*2*S]
	clear(p.code)
	p.flat = p.flat[:0]
	for side, f := range order {
		pw, nw := fn[f][0].Words(), fn[f][1].Words()
		for r := range R {
			for i := range bitvec.NumWords(S) {
				j := r*stride[f]/64 + i
				for x := pw[j] | nw[j]; x != 0; x &= x - 1 {
					b := bits.TrailingZeros64(x)
					st, c := i*64+b, uint8(pw[j]>>b&1|nw[j]>>b&1<<1)
					if st >= S {
						break
					}
					if side == 0 {
						p.code[r*2*S+st], p.code[r*2*S+S+st] = c, c
					} else {
						p.flat = append(p.flat, flatEntry{int32(r), uint32(st)<<2 | uint32(c)})
					}
				}
			}
		}
	}
}

// prepPool recycles vectorPrep buffers across tests: opening a test then
// refills lanes already sized for a domain of its shape instead of
// allocating them.
var prepPool = sync.Pool{New: func() any { return &vectorPrep{aAll: new(bitvec.Vector)} }}

// newVectorPrep lays out a test's feature sets for its kernel and returns
// the walk that counts it: w, or, for chooseWalk and for a word walk that
// cannot count function 2's signs, the one chooseFor picks from the feature
// counts and function 2's listed lanes.
func newVectorPrep(a, b *feature.Set, g *stgraph.Graph, w walk) (*vectorPrep, walk) {
	p := prepPool.Get().(*vectorPrep)
	R, S := g.NumRegions(), g.NumSteps()
	p.laneBits = bitvec.NumWords(S) * 64
	p.dblBits = (bitvec.NumWords(2*S) + 1) * 64
	p.aAll.Resize(R * p.laneBits)
	p.aPos = transposeLanes(p.aPos, p.aAll, a.Positive, g, p.laneBits, false)
	p.aNeg = transposeLanes(p.aNeg, p.aAll, a.Negative, g, p.laneBits, false)
	p.bPos = transposeLanes(p.bPos, nil, b.Positive, g, p.dblBits, true)
	p.bNeg = transposeLanes(p.bNeg, nil, b.Negative, g, p.dblBits, true)
	p.aAllLane = slices.Grow(p.aAllLane[:0], R)[:R]
	p.bLanes = p.bLanes[:0]
	for r := range R {
		p.aAllLane[r] = p.aAll.AnyRange(r*p.laneBits, (r+1)*p.laneBits)
		if lo, hi := r*p.dblBits, r*p.dblBits+S; p.bPos.AnyRange(lo, hi) || p.bNeg.AnyRange(lo, hi) {
			p.bLanes = append(p.bLanes, int32(r))
		}
	}
	bBoth := b.Positive.AndCount(b.Negative)
	if w == chooseWalk || w == wordWalk && bBoth > 0 {
		nB := b.Positive.Count() + b.Negative.Count() - bBoth
		w = chooseFor(p.aAll.Count(), nB, R, len(p.bLanes), p.laneBits/64, bBoth > 0)
	}
	if w != wordWalk {
		p.listFlat(w, R, S)
	}
	return p, w
}

// scratch is the mutable state of a test run: a reseedable RNG and the
// buffers a randomization writes into. Each Test takes one from
// scratchPool, so the steady-state permutation loop allocates nothing
// (asserted by TestChunkSteadyStateAllocs) and neither, once warm, does
// opening a test.
type scratch struct {
	src splitmix
	rng *rand.Rand

	// shift builds the toroidal shifts a pool asks this test for; shifts
	// holds a chunk of them when it lies past the pool's memo.
	shift  shiftScratch
	shifts []int32

	// base is the feature walk's lane-base table, one entry a region.
	base []int
}

// scratchPool recycles scratches across tests. The RNG wraps the
// scratch's own splitmix source; chunk reseeding just overwrites the source
// state, which yields the same stream as a freshly constructed rand.New
// for that seed.
var scratchPool = sync.Pool{New: func() any {
	sc := &scratch{}
	sc.rng = rand.New(&sc.src)
	return sc
}}

// tauFromCounts turns a randomization's tallies into tau. same is
// |σ(pos2) ∩ aPos| + |σ(neg2) ∩ aNeg| and both is |σ(pos2) ∩ aAll| +
// |σ(neg2) ∩ aAll|, so the per-vertex definition's tallies are p = same,
// |Σ| = both, n = |Σ| - p: a positive feature of function 2 landing on a
// positive feature of function 1 counts toward p even when the vertex is
// also negative. Identical integer counts make the float64 division
// bit-identical to the test oracle's.
func tauFromCounts(same, both int) float64 {
	if both == 0 {
		return 0
	}
	return float64(same-(both-same)) / float64(both)
}

// vectorTau counts one randomization: region r of function 2 lands on region
// spatPerm[r] (noShift on one region) rotated by rot steps over the
// temporal circle — the window of its doubled lane that starts at bit
// nSteps-rot — and is counted against function 1's destination lane by the
// test's walk, never stored.
func (t *testRun) vectorTau(sc *scratch, spatPerm []int32, rot int) float64 {
	if t.walk == wordWalk {
		return tauFromCounts(t.countWords(spatPerm, rot))
	}
	return tauFromCounts(t.countFlat(sc, spatPerm, rot))
}

// countWords tallies a randomization a word at a time, both signs of a
// window in one pass: function 2's signs being disjoint (newVectorPrep sends
// a test whose aren't to the feature walk), the per-sign counts summed are
// same = |wp∧xp ∨ wn∧xn| and both = |(wp ∨ wn)∧u| for its windows wp and wn
// against function 1's masks xp and xn and union u — two popcounts a word
// instead of four. Only function 2's listed lanes are visited, and a
// destination lane without function-1 features is skipped — it zeroes every
// AND. A window is read a whole lane of words long: its bits past nSteps
// meet function 1's zero padding, and its last word's successor is the
// doubled lane's spare word.
func (t *testRun) countWords(spatPerm []int32, rot int) (same, both int) {
	p := t.prep
	nw := p.laneBits / 64
	bp, bn, ap, an, uw := p.bPos.Words(), p.bNeg.Words(), p.aPos.Words(), p.aNeg.Words(), p.aAll.Words()
	off := t.g.NumSteps() - rot
	lo, hi := uint(off%64), uint(63-off%64)
	for _, r := range p.bLanes {
		dst := spatPerm[r]
		if !p.aAllLane[dst] {
			continue
		}
		i := (int(r)*p.dblBits + off) / 64
		if nw == 1 {
			// Two shifts: a shift by 64 must give 0.
			wp := bp[i]>>(lo&63) | bp[i+1]<<1<<(hi&63)
			wn := bn[i]>>(lo&63) | bn[i+1]<<1<<(hi&63)
			same += bits.OnesCount64(wp&ap[dst] | wn&an[dst])
			both += bits.OnesCount64((wp | wn) & uw[dst])
			continue
		}
		d := int(dst) * nw
		c, cb := countWindow(bp[i:i+nw+1], bn[i:i+nw+1], ap[d:d+nw], an[d:d+nw], uw[d:d+nw], lo, hi)
		same += c
		both += cb
	}
	return same, both
}

// countWindow counts the windows of sp and sn that start lo bits into their
// first words, len(xp) words long, as countWords does.
// It is kept out of line: inlined into the lane loop, its counters and
// cursors no longer fit in registers and are spilled on every word.
//
//go:noinline
func countWindow(sp, sn, xp, xn, u []uint64, lo, hi uint) (same, both int) {
	sp, sn = sp[:len(xp)+1], sn[:len(xp)+1]
	xn, u = xn[:len(xp)], u[:len(xp)]
	for i := range xp {
		wp := sp[i]>>(lo&63) | sp[i+1]<<1<<(hi&63)
		wn := sn[i]>>(lo&63) | sn[i+1]<<1<<(hi&63)
		same += bits.OnesCount64(wp&xp[i] | wn&xn[i])
		both += bits.OnesCount64((wp | wn) & u[i])
	}
	return same, both
}

// featurePairCounts[s][x<<2|y] is what one listed feature adds when the
// feature walk walks side s (0: function 1's features, 1: function 2's): y
// is the entry's code, x the code read where it lands, so function 2's code
// c and function 1's f are (x, y) on side 0 and (y, x) on side 1. The low
// half holds c∧f's popcount, the same-sign count, and the high half c's, the
// any-sign count, when f is non-zero; a feature of function 2 that lands on
// none of function 1 counts nowhere, so the f = 0 rows are zero.
var featurePairCounts = func() (t [2][16]uint64) {
	for x := range uint(4) {
		for y := range uint(4) {
			for s, cf := range [2][2]uint{{x, y}, {y, x}} {
				if c, f := cf[0], cf[1]; f != 0 {
					t[s][x<<2|y] = uint64(bits.OnesCount(c&f)) | uint64(bits.OnesCount(c))<<32
				}
			}
		}
	}
	return t
}()

// countFlat tallies a randomization feature by feature, both signs at once,
// in one flat loop over the walked function's listed features: one code
// read where the feature lands and one table add each, no branch. The
// lane-base table, in the test's scratch, holds for each region of the
// walked function where its features' codes start: a feature of function 2
// in region r lands in region σ(r), rot steps on, so r's base, filled for
// function 2's listed lanes only, is σ(r)'s doubled code lane plus rot; a
// feature of function 1 in region d meets
// region σ⁻¹(d) of function 2, whose rotated window starts nSteps-rot into
// its doubled code lane, so the bases are scattered through σ. The integers
// are the word walk's, so tau is bit-identical.
func (t *testRun) countFlat(sc *scratch, spatPerm []int32, rot int) (same, both int) {
	S2, R := 2*t.g.NumSteps(), len(spatPerm)
	if len(sc.base) < R {
		sc.base = make([]int, R)
	}
	base := sc.base[:R]
	if t.walk == flatA {
		at := S2/2 - rot
		for r, d := range spatPerm {
			base[d] = r*S2 + at
		}
	} else {
		for _, r := range t.prep.bLanes {
			base[r] = int(spatPerm[r])*S2 + rot
		}
	}
	pairs, code := &featurePairCounts[t.walk-flatA], t.prep.code
	var acc uint64
	for _, e := range t.prep.flat {
		acc += pairs[(uint(code[base[e.lane]+int(e.key>>2)])<<2|uint(e.key&3))&15]
	}
	return int(uint32(acc)), int(acc >> 32)
}

// Test runs the Monte Carlo significance test for the relationship between
// two feature sets on the shared domain graph g, given the observed score
// tauObserved.
//
// When the domain has more than one region, randomization k applies
// toroidal shift k of Config.Shifts to the regions; time is additionally
// rotated, by the test's own draw, to respect temporal wrap-around.
//
// The randomizations run in fixed-size chunks with per-chunk deterministic
// seeds, in chunk order on the calling goroutine (see permChunk).
//
// A pure time series (one region) is randomized by the circular time
// rotation alone, and its S steps admit S-1 rotations besides the identity.
// The test enumerates them in order instead of drawing Config.Permutations
// (see enumerate), so its p-value is exact. When even p = 1/S, an observed
// score beyond every rotation, exceeds Alpha, the test is not resolvable:
// nothing is evaluated and the Result says so.
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
// over Result.Shifts permutations. An enumerated test stops likewise, after
// the rotation that proves p > Alpha.
func Test(a, b *feature.Set, g *stgraph.Graph, tauObserved float64, cfg Config) Result {
	res, _ := test(a, b, g, tauObserved, cfg, nil, chooseWalk)
	return res
}

// test is Test with an optional per-permutation tau sink, the hook the
// kernel-parity tests use to compare the full tau stream (not just the
// folded Result) against the per-vertex oracle. sink is called once per
// evaluated randomization, in order, with the global permutation index (an
// enumerated test's rotation-1): exactly Result.Shifts calls. w forces the
// test's walk unless it is chooseWalk. The run is returned for its walk,
// its prep already released to the next test; it is nil when no
// randomization was evaluated.
func test(a, b *feature.Set, g *stgraph.Graph, tauObserved float64, cfg Config, sink func(perm int, tau float64), w walk) (Result, *testRun) {
	cfg = cfg.withDefaults()
	if a.NumVertices() != g.NumVertices() || b.NumVertices() != g.NumVertices() {
		panic(fmt.Sprintf("montecarlo: feature sets (%d, %d vertices) do not match graph (%d)",
			a.NumVertices(), b.NumVertices(), g.NumVertices()))
	}
	if math.IsNaN(tauObserved) {
		tauObserved = 0 // never significant, and reported as zero
	}
	oneRegion := g.NumRegions() == 1
	if !Resolvable(cfg.Alpha, g.NumRegions(), g.NumSteps()) {
		return Result{PValue: 1, TauObserved: tauObserved, NotResolvable: true}, nil
	}
	if tauObserved == 0 {
		mTests.Inc()
		return Result{PValue: 1, Significant: false, TauObserved: 0, Shifts: 0}, nil
	}
	switch {
	case cfg.Shifts != nil && len(cfg.Shifts.adj) != g.NumRegions():
		panic(fmt.Sprintf("montecarlo: shift pool over %d regions does not match graph (%d)",
			len(cfg.Shifts.adj), g.NumRegions()))
	case cfg.Shifts == nil && !oneRegion:
		// No memo: this test is the sequence's only reader, so each chunk
		// is drawn into the test's scratch.
		cfg.Shifts = newShiftPool(g.SpatialAdjacency(), cfg.Seed^shiftStream, 0)
	}
	run := &testRun{
		a:    a,
		g:    g,
		tau:  tauObserved,
		cfg:  cfg,
		sink: sink,
	}
	run.prep, run.walk = newVectorPrep(a, b, g, w)
	m := cfg.Permutations
	var extreme, shifts int
	sc := scratchPool.Get().(*scratch)
	if oneRegion {
		m = g.NumSteps() - 1
		extreme, shifts = run.enumerate(sc)
	} else {
		threshold := stopThreshold(cfg.Alpha, m)
		for ci := 0; shifts < m; ci++ {
			extreme += run.chunk(ci, sc)
			shifts = min((ci+1)*permChunk, m)
			if !cfg.Exhaustive && extreme >= threshold {
				break
			}
		}
	}
	scratchPool.Put(sc)
	prepPool.Put(run.prep)
	run.prep = nil // the next test may refill it
	p := PValue(extreme, shifts)
	mTests.Inc()
	mPermutations.Add(uint64(shifts))
	if shifts < m {
		mEarlyStops.Inc()
	}
	return Result{
		PValue:      p,
		Significant: p <= cfg.Alpha,
		TauObserved: tauObserved,
		Extreme:     extreme,
		Shifts:      shifts,
	}, run
}

// testRun carries the immutable inputs of one significance test across its
// permutation chunks.
type testRun struct {
	a    *feature.Set
	g    *stgraph.Graph
	tau  float64
	cfg  Config
	prep *vectorPrep
	walk walk // the walk that counts each randomization, never chooseWalk
	sink func(perm int, tau float64)
}

// isExtreme reports whether a randomization's tau is at least as extreme as
// the observed score in magnitude, in either direction; a tie counts. A
// zero observed score makes none extreme (Test returns p = 1 before any
// randomization runs).
func (t *testRun) isExtreme(tauK float64) bool {
	return t.tau != 0 && math.Abs(tauK) >= math.Abs(t.tau)
}

// chunk counts the extreme randomizations among permutation indices
// [ci*permChunk, min((ci+1)*permChunk, |m|)). Permutation k's toroidal
// shift is shift k of the pool; its time rotation, the test's own draw,
// comes from the chunk's deterministically seeded stream in sc. The test
// oracle replays both sequences draw for draw; reordering one changes every
// reported p-value (and fails TestKernelParity). A one-region test has no
// chunks: see enumerate.
func (t *testRun) chunk(ci int, sc *scratch) int {
	nRegions, nSteps := t.g.NumRegions(), t.g.NumSteps()
	shifts := t.cfg.Shifts.chunk(ci, sc)
	sc.src.state = uint64(chunkSeed(t.cfg.Seed, ci))
	n := min(t.cfg.Permutations-ci*permChunk, permChunk)
	extreme := 0
	for k := 0; k < n; k++ {
		rot := 0
		if nSteps > 1 {
			rot = 1 + sc.src.intn(nSteps-1)
		}
		tauK := t.vectorTau(sc, shifts[k*nRegions:(k+1)*nRegions], rot)
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

// noShift is the one spatial shift of a one-region domain.
var noShift = []int32{0}

// Resolvable reports whether a test on a domain of regions × steps can reach
// alpha at all. A multi-region test always can. A one-region test is exact
// over its steps-1 rotations, so its smallest attainable p-value is 1/steps;
// when that exceeds alpha no outcome is significant and the test is not
// resolvable (Tarone's rule). Test applies it, and a caller that knows a
// test's domain before it has the feature sets can apply it first.
func Resolvable(alpha float64, regions, steps int) bool {
	return regions > 1 || !(PValue(0, steps-1) > alpha)
}

// enumerate counts a one-region test exactly: it visits the
// rotations 1..S-1 in order and returns how many were visited and how many
// of them are extreme. Unless the test is Exhaustive it stops at the first
// extreme rotation after which even the exhaustive p-value, PValue(extreme,
// S-1), exceeds alpha: the count only grows, so the test is decided
// insignificant. (A sampled test stops on stopThreshold, which can stop one
// extreme later than this rule would.)
func (t *testRun) enumerate(sc *scratch) (extreme, visited int) {
	S := t.g.NumSteps()
	for rot := 1; rot < S; rot++ {
		tauK := t.vectorTau(sc, noShift, rot)
		if t.sink != nil {
			t.sink(rot-1, tauK)
		}
		visited++
		if t.isExtreme(tauK) {
			extreme++
			if !t.cfg.Exhaustive && PValue(extreme, S-1) > t.cfg.Alpha {
				break
			}
		}
	}
	mTauEvals.Add(uint64(visited))
	return extreme, visited
}
