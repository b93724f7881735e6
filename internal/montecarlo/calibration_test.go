package montecarlo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// TestNullCalibration checks the statistical validity of the restricted
// test: under the null hypothesis (independent feature sets), the fraction
// of trials declared significant at alpha must not wildly exceed alpha.
// (Permutation tests with add-one smoothing are conservative, so the rate
// should be at or below ~alpha plus sampling error.)
func TestNullCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	rng := rand.New(rand.NewSource(42))
	n := 3000
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	trials := 120
	significant := 0
	for trial := 0; trial < trials; trial++ {
		mk := func() *feature.Set {
			s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
			for i := 0; i < 60; i++ {
				s.Positive.Set(rng.Intn(n))
				s.Negative.Set(rng.Intn(n))
			}
			return s
		}
		a, b := mk(), mk()
		m := relationship.Evaluate(a, b)
		res := Test(a, b, g, m.Tau, Config{Permutations: 200, Seed: int64(trial), Alpha: 0.05})
		if res.Significant {
			significant++
		}
	}
	rate := float64(significant) / float64(trials)
	// Allow generous sampling slack above alpha = 0.05.
	if rate > 0.15 {
		t.Errorf("null rejection rate = %.3f, want <= ~alpha (0.05) + slack", rate)
	}
}

// TestPowerUnderAlternative: strongly dependent feature sets must be
// detected with high probability — the test has power, not just size.
func TestPowerUnderAlternative(t *testing.T) {
	if testing.Short() {
		t.Skip("power study is slow")
	}
	rng := rand.New(rand.NewSource(43))
	n := 3000
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	trials := 40
	detected := 0
	for trial := 0; trial < trials; trial++ {
		a := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
		b := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
		// Co-occurring mixed-sign events.
		for i := 0; i < 100; i++ {
			v := rng.Intn(n)
			a.Positive.Set(v)
			b.Positive.Set(v)
			w := rng.Intn(n)
			a.Negative.Set(w)
			b.Negative.Set(w)
		}
		m := relationship.Evaluate(a, b)
		res := Test(a, b, g, m.Tau, Config{Permutations: 200, Seed: int64(1000 + trial)})
		if res.Significant {
			detected++
		}
	}
	if rate := float64(detected) / float64(trials); rate < 0.9 {
		t.Errorf("power = %.2f, want >= 0.9 for perfectly co-occurring features", rate)
	}
}

// burstSet draws n bursts of each sign on g: a burst holds one region for
// three consecutive steps. Features are dependent in time and independent
// across regions, so a region bijection plus a time rotation is an exact
// symmetry of their distribution and the restricted test's size is exactly
// alpha. (Bursts that also cover a region's neighbours are not used here:
// on a bounded 8x8 grid a toroidal shift keeps only ~54% of adjacencies, the
// shifted function is less clustered than the observed one, and null pairs
// are rejected at ~18% — with or without a shared pool, at this commit and
// before it. That is a property of the shift construction, ROADMAP item 3.)
func burstSet(rng *rand.Rand, g *stgraph.Graph, n int) *feature.Set {
	s := &feature.Set{Positive: bitvec.New(g.NumVertices()), Negative: bitvec.New(g.NumVertices())}
	for i := 0; i < 2*n; i++ {
		stampBurst(s, g, rng.Intn(g.NumRegions()), rng.Intn(g.NumSteps()-2), i%2 == 0)
	}
	return s
}

// stampBurst sets the burst in one sign and clears it in the other: like an
// indexed function's, a vertex's feature has one sign.
func stampBurst(s *feature.Set, g *stgraph.Graph, r, step int, positive bool) {
	set, clear := s.Negative, s.Positive
	if positive {
		set, clear = clear, set
	}
	for d := 0; d < 3; d++ {
		set.Set(g.Vertex(r, step+d))
		clear.Clear(g.Vertex(r, step+d))
	}
}

// TestSharedPoolCalibration checks the statistics of a family of tests that
// draws its toroidal shifts from one pool, on an 8x8 grid, repeated over
// three pool seeds. The reported p-value is one-sided in the direction of
// the observed score (see the package comment), so "p <= alpha" is a
// level-alpha test per direction and a level-2*alpha test overall, and
// 2p is the two-sided p-value. Stated intervals, with m = 199 so that
// alpha*(m+1) is an integer and the size is exact:
//
//   - size: independent (null) pairs are rejected at alpha = 0.05 at a rate
//     of alpha per direction and 2*alpha overall, each within ± (3 binomial
//     standard errors + the 1/(m+1) p-value granule), the overall rate also
//     per pool seed — a shared sequence must neither inflate nor deflate it;
//   - FDR and power: with planted pairs (40 bursts common to both functions
//     beside 300 independent ones each) mixed into the family,
//     Benjamini-Hochberg at q = 0.1 over each family's two-sided p-values
//     keeps the realised false discovery proportion over all seeds at or
//     below q and finds at least 90% of the planted pairs; over the
//     one-sided p-values as reported it stays at or below 2q.
func TestSharedPoolCalibration(t *testing.T) {
	const (
		alpha, q  = 0.05, 0.1
		perms     = 199
		powerWant = 0.9
	)
	nulls, planted := 300, 60
	if testing.Short() {
		nulls, planted = 200, 40
	}
	g, err := stgraph.New(64, 96, grid(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	size := func(what string, rejected, n int, level float64) {
		t.Helper()
		rate := float64(rejected) / float64(n)
		slack := 3*math.Sqrt(level*(1-level)/float64(n)) + 1/float64(perms+1)
		if rate < level-slack || rate > level+slack {
			t.Errorf("%s: null rejection rate %.4f (%d of %d) outside %.2f ± %.4f", what, rate, rejected, n, level, slack)
		}
	}
	// discoveries counts BH discoveries at q and how many are null pairs.
	discoveries := func(pvals []float64) (all, null int) {
		for i, qv := range stats.Adjust(stats.BH, pvals) {
			if qv <= q {
				all++
				if i < nulls {
					null++
				}
			}
		}
		return all, null
	}
	var upper, lower, found1, false1, found2, false2 int
	for _, poolSeed := range []int64{1, 2, 3} {
		pool := NewShiftPool(g.SpatialAdjacency(), poolSeed)
		rng := rand.New(rand.NewSource(100 + poolSeed))
		oneSided := make([]float64, nulls+planted)
		twoSided := make([]float64, nulls+planted)
		up, lo := 0, 0
		for i := range oneSided {
			a, b := burstSet(rng, g, 150), burstSet(rng, g, 150)
			if i >= nulls {
				// Planted: 40 more bursts, common to both functions.
				for k := 0; k < 40; k++ {
					r, step, positive := rng.Intn(g.NumRegions()), rng.Intn(g.NumSteps()-2), k%2 == 0
					stampBurst(a, g, r, step, positive)
					stampBurst(b, g, r, step, positive)
				}
			}
			m := relationship.Evaluate(a, b)
			res := Test(a, b, g, m.Tau, Config{
				Permutations: perms, Alpha: alpha, Seed: 1000*poolSeed + int64(i),
				Shifts: pool, Exhaustive: true, // exact p-values for BH
			})
			oneSided[i], twoSided[i] = res.PValue, min(1, 2*res.PValue)
			if i < nulls && res.Significant {
				if m.Tau > 0 {
					up++
				} else {
					lo++
				}
			}
		}
		size(fmt.Sprintf("pool seed %d, both directions", poolSeed), up+lo, nulls, 2*alpha)
		upper, lower = upper+up, lower+lo
		all, null := discoveries(oneSided)
		found1, false1 = found1+all-null, false1+null
		all, null = discoveries(twoSided)
		found2, false2 = found2+all-null, false2+null
	}
	size("positive scores", upper, 3*nulls, alpha)
	size("negative scores", lower, 3*nulls, alpha)
	size("both directions", upper+lower, 3*nulls, 2*alpha)
	if fdp := float64(false2) / float64(max(false2+found2, 1)); fdp > q {
		t.Errorf("BH at q = %.2f, two-sided p: realised FDP %.3f (%d false, %d true)", q, fdp, false2, found2)
	}
	if fdp := float64(false1) / float64(max(false1+found1, 1)); fdp > 2*q {
		t.Errorf("BH at q = %.2f, one-sided p: realised FDP %.3f (%d false, %d true), want <= 2q", q, fdp, false1, found1)
	}
	if power := float64(found2) / float64(3*planted); power < powerWant {
		t.Errorf("BH at q = %.2f, two-sided p: power %.3f (%d of %d planted pairs), want >= %.2f", q, power, found2, 3*planted, powerWant)
	}
	t.Logf("null rejections %d up + %d down of %d; BH discoveries two-sided %d true + %d false, one-sided %d true + %d false",
		upper, lower, 3*nulls, found2, false2, found1, false1)
}

// TestStandardInflatesNullRejections is Section 6.3's claim that ignoring
// spatio-temporal dependence misleads, asserted on null pairs. Each of 300
// independent pairs of burstSet functions (150 bursts a sign, fixed seeds)
// is tested by the restricted test and by the standard test's oracle
// (standardTest: a uniform vertex permutation, 199 draws), on an 8x8 grid
// of 96 steps and on one region of 2,160. Bursts are dependent in time, and
// only the restricted randomization keeps that dependence, so:
//
//   - the standard test rejects more than 2*alpha plus 3 binomial standard
//     errors of the pairs, and more than the restricted test does;
//   - the restricted test stays inside TestSharedPoolCalibration's stated
//     interval, 2*alpha ± (3 standard errors + the p-value granule): its
//     one-sided p makes it a level-2*alpha test overall, not a level-alpha
//     one.
func TestStandardInflatesNullRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("a null study of 600 pairs")
	}
	const (
		alpha, pairs, perms = 0.05, 300, 199
		level               = 2 * alpha
	)
	se := math.Sqrt(level * (1 - level) / pairs)
	for _, sh := range []struct {
		w, h, steps int
		seed        int64
	}{{8, 8, 96, 61}, {1, 1, 2160, 63}} {
		t.Run(fmt.Sprintf("%dx%dx%d", sh.w, sh.h, sh.steps), func(t *testing.T) {
			g := gridGraph(t, sh.w, sh.h, sh.steps)
			pool := NewShiftPool(g.SpatialAdjacency(), sh.seed)
			rng := rand.New(rand.NewSource(sh.seed))
			restricted, standard := 0, 0
			for i := 0; i < pairs; i++ {
				a, b := burstSet(rng, g, 150), burstSet(rng, g, 150)
				tau := relationship.Evaluate(a, b).Tau
				if Test(a, b, g, tau, Config{Permutations: perms, Alpha: alpha, Seed: int64(i), Shifts: pool}).Significant {
					restricted++
				}
				if standardTest(a, b, tau, perms, alpha, int64(i)).Significant {
					standard++
				}
			}
			rRate, sRate := float64(restricted)/pairs, float64(standard)/pairs
			granule := 1 / float64(perms+1)
			if g.NumRegions() == 1 {
				granule = 1 / float64(g.NumSteps()) // every rotation, enumerated
			}
			if slack := 3*se + granule; math.Abs(rRate-level) > slack {
				t.Errorf("restricted test rejects %.3f of null pairs, outside %.2f ± %.4f", rRate, level, slack)
			}
			if sRate <= level+3*se || sRate <= rRate {
				t.Errorf("standard test rejects %.3f of null pairs, want above %.3f and above the restricted test's %.3f",
					sRate, level+3*se, rRate)
			}
			t.Logf("null rejections: restricted %d, standard %d of %d", restricted, standard, pairs)
		})
	}
}
