package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// TestNullCorpusCalibration is the end-to-end statistical calibration test
// of the significance layer: a null corpus of mutually independent
// synthetic data sets (random feature sets over a shared one-region domain
// — no true relationships exist) is pushed through the real Monte Carlo
// machinery, and the resulting p-values are checked against both decision
// rules:
//
//   - Correction: none — the per-pair false-positive rate must track alpha
//     (permutation p-values are valid, so the rate is at most alpha up to
//     sampling error and p-value discreteness);
//   - Correction: bh — the empirical false discovery proportion across
//     families must track the FDR target (with an all-null family, any
//     rejection is a false discovery, so the per-family FDP is the
//     indicator of any rejection).
//
// Two corpora, 50 families of 12 pairs each:
//
//   - sparse: 40 + 40 features over 1,500 steps. About 13% of rotations tie
//     the observed score, so the two-sided count is conservative there and
//     its rate must stay at or below alpha;
//   - rich: 200 + 200 features over 2,160 steps, where tau has a rich
//     support (under 1% ties). A time rotation is an exact symmetry of
//     independent uniform features, so the rate must also be near alpha:
//     within ± (3 binomial standard errors + the 1/2,160 granule). That is
//     the non-degeneracy check — calibration, not catatonia.
//
// Table-driven across alpha in {0.01, 0.05, 0.1}. The p-values are computed
// once (exhaustively, so they do not depend on any alpha) and shared by all
// table entries.
func TestNullCorpusCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	const (
		families  = 50
		perFamily = 12
		total     = families * perFamily
	)
	rng := rand.New(rand.NewSource(1234))
	// corpus returns one p-value per independent pair of features+features
	// random features over one region of n steps; exhaustive so the value
	// is exact and alpha-independent.
	corpus := func(features, n int) [][]float64 {
		g, err := stgraph.New(1, n, [][]int{nil})
		if err != nil {
			t.Fatal(err)
		}
		nullSet := func() *feature.Set {
			s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
			for i := 0; i < features; i++ {
				s.Positive.Set(rng.Intn(n))
				s.Negative.Set(rng.Intn(n))
			}
			return s
		}
		pvals := make([][]float64, families)
		for fi := range pvals {
			pvals[fi] = make([]float64, perFamily)
			for hi := range pvals[fi] {
				a, b := nullSet(), nullSet()
				m := relationship.Evaluate(a, b)
				res := montecarlo.Test(a, b, g, m.Tau, montecarlo.Config{
					Seed:       int64(1000*fi + hi),
					Exhaustive: true,
				})
				pvals[fi][hi] = res.PValue
			}
		}
		return pvals
	}
	rejected := func(pvals [][]float64, alpha float64) int {
		raw := 0
		for _, fam := range pvals {
			for _, p := range fam {
				if p <= alpha {
					raw++
				}
			}
		}
		return raw
	}
	sparse, rich := corpus(40, 1500), corpus(200, 2160)

	for _, alpha := range []float64{0.01, 0.05, 0.1} {
		t.Run(fmt.Sprintf("alpha=%g", alpha), func(t *testing.T) {
			se := math.Sqrt(alpha * (1 - alpha) / total)
			// Correction: none — raw per-pair rejections across each corpus.
			// Valid p-values keep the rate at or below alpha, up to binomial
			// sampling error plus the 1/S discreteness granule.
			raw := rejected(sparse, alpha)
			if rate := float64(raw) / total; rate > alpha+4*se+1.0/1500 {
				t.Errorf("sparse corpus, correction=none: false-positive rate %.4f exceeds alpha %.2f + slack %.4f",
					rate, alpha, 4*se+1.0/1500)
			}
			richRaw := rejected(rich, alpha)
			if rate, slack := float64(richRaw)/total, 3*se+1.0/2160; math.Abs(rate-alpha) > slack {
				t.Errorf("rich corpus, correction=none: false-positive rate %.4f (%d of %d) outside %.2f ± %.4f",
					rate, richRaw, total, alpha, slack)
			}
			t.Logf("rejected at alpha %g: sparse %d, rich %d of %d", alpha, raw, richRaw, total)

			for _, c := range []struct {
				name  string
				pvals [][]float64
				raw   int
			}{{"sparse", sparse, raw}, {"rich", rich, richRaw}} {
				// Correction: bh — per-family FDP; all hypotheses are null,
				// so the FDP is 1 when the family rejects anything, 0
				// otherwise, and its mean must track the FDR target.
				fdpSum, bhRej := 0.0, 0
				for _, fam := range c.pvals {
					famRej := 0
					for _, q := range Adjust(BH, fam) {
						if q <= alpha {
							famRej++
						}
					}
					if famRej > 0 {
						fdpSum++
					}
					bhRej += famRej
				}
				fdr := fdpSum / families
				fdrSlack := 4*math.Sqrt(alpha*(1-alpha)/families) + 0.01
				if fdr > alpha+fdrSlack {
					t.Errorf("%s corpus, correction=bh: empirical FDR %.4f exceeds target %.2f + slack %.4f",
						c.name, fdr, alpha, fdrSlack)
				}
				// BH never rejects more than the raw rule at the same level.
				if bhRej > c.raw {
					t.Errorf("%s corpus: BH rejected %d pairs, raw alpha rejected %d; BH must be a subset",
						c.name, bhRej, c.raw)
				}
			}
		})
	}
}
