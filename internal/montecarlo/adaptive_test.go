package montecarlo

import (
	"math/rand"
	"testing"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

func TestStopThreshold(t *testing.T) {
	cases := []struct {
		alpha float64
		m     int
		want  int
	}{
		{0.05, 1000, 51}, // ceil(0.05 * 1001) = ceil(50.05)
		{0.05, 999, 50},  // ceil(0.05 * 1000) = 50 exactly
		{0.01, 1000, 11}, // ceil(10.01)
		{0.1, 200, 21},   // ceil(20.1)
		{0.0001, 100, 1}, // any exceedance decides
		{0.05, 19, 1},    // ceil(1.0) = 1
		{0.5, 100, 51},   // ceil(50.5)
	}
	for _, c := range cases {
		if got := stopThreshold(c.alpha, c.m); got != c.want {
			t.Errorf("stopThreshold(%g, %d) = %d, want %d", c.alpha, c.m, got, c.want)
		}
	}
	// Soundness of the bound itself: at the threshold, the p-value over the
	// full |m| would exceed alpha even if no further exceedance occurred.
	for _, c := range cases {
		p := float64(1+c.want) / float64(1+c.m)
		if p <= c.alpha {
			t.Errorf("threshold %d at alpha=%g m=%d does not prove p > alpha (p=%g)",
				c.want, c.alpha, c.m, p)
		}
	}
}

// TestAdaptiveExhaustiveParity is the decision-exactness contract: for a
// sweep of seeds, the adaptive (default) and exhaustive runs must agree on
// Significant, adaptive Shifts must never exceed exhaustive Shifts, and the
// sweep must contain at least one genuinely early-stopped case on a
// multi-region domain — otherwise the test proves nothing. An exhaustive
// run evaluates every permutation: 400, or on the one-region domain all
// 1,499 rotations, which a significant test visits adaptively too. A test
// evaluates exactly what it reports, however early it stops: the sink sees
// permutations 0..Shifts-1 once each, in order, and the tau-evaluation
// counter moves by as much as the permutation counter.
func TestAdaptiveExhaustiveParity(t *testing.T) {
	n := 1500
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := stgraph.New(25, 60, grid(5, 5))
	if err != nil {
		t.Fatal(err)
	}

	type fixture struct {
		name string
		a, b *feature.Set
		g    *stgraph.Graph
	}
	rng := rand.New(rand.NewSource(55))
	// A dependent pair (co-occurring features: significant, never stops
	// early) and an independent pair (insignificant: stops after a few
	// chunks), on both a pure time series and a spatial domain.
	var pos, neg []int
	for i := 0; i < 70; i++ {
		pos = append(pos, rng.Intn(n))
		neg = append(neg, rng.Intn(n))
	}
	depA, depB, _ := mkSets(t, n, pos, neg, pos, neg)
	indA, indB, _ := mkSets(t, n,
		randIndices(rng, n, 40), randIndices(rng, n, 40),
		randIndices(rng, n, 40), randIndices(rng, n, 40))
	spA, spB := spatialSets(rng, gs.NumVertices())
	ns := gs.NumVertices()
	spIndA, spIndB, _ := mkSets(t, ns,
		randIndices(rng, ns, 40), randIndices(rng, ns, 40),
		randIndices(rng, ns, 40), randIndices(rng, ns, 40))
	fixtures := []fixture{
		{"dependent-1d", depA, depB, g},
		{"independent-1d", indA, indB, g},
		{"dependent-spatial", spA, spB, gs},
		{"independent-spatial", spIndA, spIndB, gs},
	}

	spatialStops := 0
	for _, fx := range fixtures {
		m := relationship.Evaluate(fx.a, fx.b)
		full := 400
		if fx.g.NumRegions() == 1 {
			full = fx.g.NumSteps() - 1
		}
		for seed := int64(0); seed < 8; seed++ {
			cfg := Config{Permutations: 400, Seed: seed}
			var seen []int
			evals, perms := mTauEvals.Value(), mPermutations.Value()
			adaptive, _ := test(fx.a, fx.b, fx.g, m.Tau, cfg, func(k int, _ float64) { seen = append(seen, k) }, chooseWalk)
			evals, perms = mTauEvals.Value()-evals, mPermutations.Value()-perms
			cfg.Exhaustive = true
			exhaustive := Test(fx.a, fx.b, fx.g, m.Tau, cfg)

			if adaptive.Significant != exhaustive.Significant {
				t.Errorf("%s seed=%d: adaptive significant=%t (p=%g, shifts=%d), exhaustive=%t (p=%g)",
					fx.name, seed,
					adaptive.Significant, adaptive.PValue, adaptive.Shifts,
					exhaustive.Significant, exhaustive.PValue)
			}
			if adaptive.Shifts > exhaustive.Shifts {
				t.Errorf("%s seed=%d: adaptive shifts %d > exhaustive %d",
					fx.name, seed, adaptive.Shifts, exhaustive.Shifts)
			}
			if exhaustive.Shifts != full {
				t.Errorf("%s seed=%d: exhaustive shifts = %d, want %d",
					fx.name, seed, exhaustive.Shifts, full)
			}
			if len(seen) != adaptive.Shifts || evals != perms || perms != uint64(adaptive.Shifts) {
				t.Errorf("%s seed=%d: reported %d permutations, the sink saw %d, %d tau evaluations and %d permutations counted",
					fx.name, seed, adaptive.Shifts, len(seen), evals, perms)
			}
			for i, k := range seen {
				if k != i {
					t.Fatalf("%s seed=%d: the sink saw permutation %d at position %d, want each once in order",
						fx.name, seed, k, i)
				}
			}
			if adaptive.Shifts < exhaustive.Shifts {
				if fx.g.NumRegions() > 1 {
					spatialStops++
				}
				// An early stop must still report an insignificant,
				// internally consistent p-value.
				if adaptive.Significant {
					t.Errorf("%s seed=%d: early-stopped run claims significance", fx.name, seed)
				}
				if adaptive.PValue <= DefaultAlpha {
					t.Errorf("%s seed=%d: truncated p = %g <= alpha", fx.name, seed, adaptive.PValue)
				}
			}
			// A significant verdict must come from the full stream.
			if adaptive.Significant && adaptive.Shifts != full {
				t.Errorf("%s seed=%d: significant verdict from a truncated run (shifts=%d)",
					fx.name, seed, adaptive.Shifts)
			}
		}
	}
	if spatialStops == 0 {
		t.Error("no multi-region case stopped early; the parity sweep exercised nothing")
	}
}

func randIndices(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// BenchmarkAdaptiveMonteCarlo measures the point of adaptive termination:
// on an insignificant pair — the overwhelming majority of candidates in a
// corpus-wide BuildGraph — over a year of hours on one region, the
// adaptive test stops once its extreme rotations prove p > alpha while the
// exhaustive test enumerates all 8,759.
func BenchmarkAdaptiveMonteCarlo(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := 24 * 365
	g, err := stgraph.New(1, n, [][]int{nil})
	if err != nil {
		b.Fatal(err)
	}
	s1, s2, _ := mkSets(b, n,
		randIndices(rng, n, 50), randIndices(rng, n, 50),
		randIndices(rng, n, 50), randIndices(rng, n, 50))
	m := relationship.Evaluate(s1, s2)
	if m.Tau == 0 {
		b.Fatal("fixture tau is 0; the test would shortcut")
	}
	run := func(b *testing.B, exhaustive bool) {
		shifts := 0
		for i := 0; i < b.N; i++ {
			res := Test(s1, s2, g, m.Tau, Config{
				Permutations: 1000, Seed: int64(i), Exhaustive: exhaustive,
			})
			if res.Significant {
				b.Fatal("fixture must be insignificant for the comparison to be fair")
			}
			shifts += res.Shifts
		}
		b.ReportMetric(float64(shifts)/float64(b.N), "shifts/op")
	}
	b.Run("adaptive", func(b *testing.B) { run(b, false) })
	b.Run("exhaustive", func(b *testing.B) { run(b, true) })
}
