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
// three pool seeds. The reported p-value is two-sided (see the package
// comment), so "p <= alpha" is a level-alpha test over both directions
// together. Stated intervals, with m = 199 so that alpha*(m+1) is an
// integer and the size is exact:
//
//   - size: independent (null) pairs are rejected at alpha = 0.05 at a rate
//     of alpha overall and alpha/2 per direction of the observed score, each
//     within ± (3 binomial standard errors + the 1/(m+1) p-value granule),
//     the overall rate also per pool seed — a shared sequence must neither
//     inflate nor deflate it;
//   - FDR and power: with planted pairs (40 bursts common to both functions
//     beside 300 independent ones each) mixed into the family,
//     Benjamini-Hochberg at q = 0.1 over each family's p-values as reported
//     keeps the realised false discovery proportion over all seeds at or
//     below q and finds at least 90% of the planted pairs.
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
			t.Errorf("%s: null rejection rate %.4f (%d of %d) outside %.3f ± %.4f", what, rate, rejected, n, level, slack)
		}
	}
	var upper, lower, found, falseFound int
	for _, poolSeed := range []int64{1, 2, 3} {
		pool := NewShiftPool(g.SpatialAdjacency(), poolSeed)
		rng := rand.New(rand.NewSource(100 + poolSeed))
		pvals := make([]float64, nulls+planted)
		up, lo := 0, 0
		for i := range pvals {
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
			pvals[i] = res.PValue
			if i < nulls && res.Significant {
				if m.Tau > 0 {
					up++
				} else {
					lo++
				}
			}
		}
		size(fmt.Sprintf("pool seed %d, both directions", poolSeed), up+lo, nulls, alpha)
		upper, lower = upper+up, lower+lo
		for i, qv := range stats.Adjust(stats.BH, pvals) {
			if qv > q {
				continue
			}
			if i < nulls {
				falseFound++
			} else {
				found++
			}
		}
	}
	size("positive scores", upper, 3*nulls, alpha/2)
	size("negative scores", lower, 3*nulls, alpha/2)
	size("both directions", upper+lower, 3*nulls, alpha)
	if fdp := float64(falseFound) / float64(max(falseFound+found, 1)); fdp > q {
		t.Errorf("BH at q = %.2f: realised FDP %.3f (%d false, %d true)", q, fdp, falseFound, found)
	}
	if power := float64(found) / float64(3*planted); power < powerWant {
		t.Errorf("BH at q = %.2f: power %.3f (%d of %d planted pairs), want >= %.2f", q, power, found, 3*planted, powerWant)
	}
	t.Logf("null rejections %d up + %d down of %d; BH discoveries %d true + %d false",
		upper, lower, 3*nulls, found, falseFound)
}

// TestStandardInflatesNullRejections is Section 6.3's claim that ignoring
// spatio-temporal dependence misleads, asserted on null pairs. Each of 300
// independent pairs of burstSet functions (150 bursts a sign, fixed seeds)
// is tested by the restricted test and by the standard test's oracle
// (standardTest: a uniform vertex permutation, 199 draws), on an 8x8 grid
// of 96 steps and on one region of 2,160. Bursts are dependent in time, and
// only the restricted randomization keeps that dependence, so:
//
//   - the standard test rejects more than alpha plus 3 binomial standard
//     errors of the pairs, and more than the restricted test does;
//   - the restricted test stays inside TestSharedPoolCalibration's stated
//     interval, alpha ± (3 standard errors + the p-value granule): its
//     two-sided p makes it a level-alpha test over both directions.
func TestStandardInflatesNullRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("a null study of 600 pairs")
	}
	const alpha, pairs, perms = 0.05, 300, 199
	se := math.Sqrt(alpha * (1 - alpha) / pairs)
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
			if slack := 3*se + granule; math.Abs(rRate-alpha) > slack {
				t.Errorf("restricted test rejects %.3f of null pairs, outside %.2f ± %.4f", rRate, alpha, slack)
			}
			if sRate <= alpha+3*se || sRate <= rRate {
				t.Errorf("standard test rejects %.3f of null pairs, want above %.3f and above the restricted test's %.3f",
					sRate, alpha+3*se, rRate)
			}
			t.Logf("null rejections: restricted %d, standard %d of %d", restricted, standard, pairs)
		})
	}
}
