package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/urbandata/datapolygamy/internal/montecarlo"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestCorrectionStringParse(t *testing.T) {
	for _, c := range []Correction{None, BH, BY} {
		got, err := ParseCorrection(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCorrection(%q) = %v, %v", c.String(), got, err)
		}
	}
	if c, err := ParseCorrection(""); err != nil || c != None {
		t.Errorf("empty correction = %v, %v (want None)", c, err)
	}
	if c, err := ParseCorrection(" BH "); err != nil || c != BH {
		t.Errorf("case/space-insensitive parse = %v, %v", c, err)
	}
	if _, err := ParseCorrection("bonferroni"); err == nil {
		t.Error("expected error for unknown correction")
	}
	if Correction(42).String() == "" {
		t.Error("unknown correction should still stringify")
	}
}

func TestAdjustNoneIsIdentity(t *testing.T) {
	ps := []float64{0.5, 0.01, 1, 0.2}
	qs := Adjust(None, ps)
	for i := range ps {
		if qs[i] != ps[i] {
			t.Fatalf("None q[%d] = %g, want p = %g", i, qs[i], ps[i])
		}
	}
	qs[0] = -1
	if ps[0] == -1 {
		t.Error("Adjust must not alias its input")
	}
}

// TestAdjustBHReference pins BH adjusted p-values against hand-computed
// values for a classic example: p = {0.01, 0.04, 0.03, 0.005} with m = 4
// gives sorted (0.005, 0.01, 0.03, 0.04) -> raw m*p/rank =
// (0.02, 0.02, 0.04, 0.04); the cumulative min from the top changes
// nothing here.
func TestAdjustBHReference(t *testing.T) {
	ps := []float64{0.01, 0.04, 0.03, 0.005}
	want := []float64{0.02, 0.04, 0.04, 0.02}
	qs := Adjust(BH, ps)
	for i := range want {
		if !almost(qs[i], want[i]) {
			t.Errorf("q[%d] = %g, want %g", i, qs[i], want[i])
		}
	}
}

// TestAdjustBHStepUpMonotone: the cumulative-min step matters when a small
// p-value has a large rank penalty: p = {0.001, 0.009, 0.04} gives raw
// m*p/rank = (0.003, 0.0135, 0.04), all already monotone; but
// p = {0.01, 0.011, 0.012} gives raw (0.03, 0.0165, 0.012) whose cumulative
// min flattens everything to 0.012.
func TestAdjustBHStepUpMonotone(t *testing.T) {
	qs := Adjust(BH, []float64{0.01, 0.011, 0.012})
	for i, want := range []float64{0.012, 0.012, 0.012} {
		if !almost(qs[i], want) {
			t.Errorf("q[%d] = %g, want %g", i, qs[i], want)
		}
	}
}

func TestAdjustBYFactor(t *testing.T) {
	// BY = BH * H_m. For m = 3, H_3 = 1 + 1/2 + 1/3 = 11/6.
	ps := []float64{0.01, 0.2, 0.03}
	bh := Adjust(BH, ps)
	by := Adjust(BY, ps)
	h3 := 11.0 / 6
	for i := range ps {
		want := math.Min(1, bh[i]*h3)
		// The clamp happens after the cumulative min, so compare against the
		// clamped product only when no clamp interacted; here values are
		// small enough that the simple relation holds.
		if !almost(by[i], want) {
			t.Errorf("BY q[%d] = %g, want BH*H3 = %g", i, by[i], want)
		}
	}
}

// TestAdjustMatchesStepUpRule: rejecting {q <= alpha} must coincide with
// the classic step-up rule "find the largest k with p_(k) <= (k/m)*alpha,
// reject the k smallest".
func TestAdjustMatchesStepUpRule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(40)
		ps := make([]float64, m)
		for i := range ps {
			ps[i] = rng.Float64()
			if rng.Intn(4) == 0 {
				ps[i] /= 50 // sprinkle small p-values
			}
		}
		alpha := []float64{0.01, 0.05, 0.1, 0.25}[rng.Intn(4)]

		qs := Adjust(BH, ps)

		// Classic step-up on the sorted copy.
		sorted := append([]float64{}, ps...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		k := 0
		for i := m; i >= 1; i-- {
			if sorted[i-1] <= float64(i)/float64(m)*alpha {
				k = i
				break
			}
		}
		threshold := -1.0 // reject nothing
		if k > 0 {
			threshold = sorted[k-1]
		}
		for i := range ps {
			wantReject := k > 0 && ps[i] <= threshold
			gotReject := qs[i] <= alpha
			if wantReject != gotReject {
				t.Fatalf("trial %d: p[%d]=%g alpha=%g: q=%g rejects=%t, step-up rejects=%t (k=%d)",
					trial, i, ps[i], alpha, qs[i], gotReject, wantReject, k)
			}
		}
	}
}

// TestAdjustProperties: q >= p, q <= 1, order-independence, and identical
// q-values for tied p-values — the determinism contract the incremental
// graph rebuild relies on.
func TestAdjustProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []Correction{BH, BY} {
		for trial := 0; trial < 100; trial++ {
			m := 1 + rng.Intn(60)
			ps := make([]float64, m)
			for i := range ps {
				ps[i] = rng.Float64()
				if rng.Intn(3) == 0 && i > 0 {
					ps[i] = ps[rng.Intn(i)] // force ties
				}
			}
			qs := Adjust(c, ps)
			for i := range ps {
				if qs[i] < ps[i]-1e-15 {
					t.Fatalf("%v: q[%d] = %g < p = %g", c, i, qs[i], ps[i])
				}
				if qs[i] > 1 {
					t.Fatalf("%v: q[%d] = %g > 1", c, i, qs[i])
				}
				for j := range ps {
					if ps[i] == ps[j] && qs[i] != qs[j] {
						t.Fatalf("%v: tied p-values %g got distinct q-values %g, %g", c, ps[i], qs[i], qs[j])
					}
				}
			}
			// Order-independence: a shuffled input yields the shuffled output.
			perm := rng.Perm(m)
			shuffled := make([]float64, m)
			for i, pi := range perm {
				shuffled[i] = ps[pi]
			}
			qs2 := Adjust(c, shuffled)
			for i, pi := range perm {
				if qs2[i] != qs[pi] {
					t.Fatalf("%v: q-values depend on input order: %g != %g", c, qs2[i], qs[pi])
				}
			}
		}
	}
}

func TestAdjustEmptyAndSingle(t *testing.T) {
	if qs := Adjust(BH, nil); len(qs) != 0 {
		t.Errorf("empty input gave %v", qs)
	}
	if qs := Adjust(BH, []float64{0.03}); len(qs) != 1 || qs[0] != 0.03 {
		t.Errorf("single hypothesis: q = %v, want p unchanged", qs)
	}
	if qs := Adjust(BY, []float64{0.03}); len(qs) != 1 || qs[0] != 0.03 {
		t.Errorf("single hypothesis BY (H_1 = 1): q = %v, want p unchanged", qs)
	}
}

// stableAdjust is Adjust with the stable sort it once ran, the reference
// TestAdjustUnstableSortIsIdentical holds the unstable one to.
func stableAdjust(c Correction, ps []float64) []float64 {
	m := len(ps)
	out := make([]float64, m)
	if m == 0 {
		return out
	}
	factor := 1.0
	if c == BY {
		factor = 0
		for k := 1; k <= m; k++ {
			factor += 1 / float64(k)
		}
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ps[idx[a]] < ps[idx[b]] })
	runMin := 1.0
	for r := m - 1; r >= 0; r-- {
		q := float64(m) * factor * ps[idx[r]] / float64(r+1)
		if q < runMin {
			runMin = q
		}
		out[idx[r]] = runMin
	}
	return out
}

// TestAdjustUnstableSortIsIdentical: the order Adjust's sort leaves inside
// a tie group changes no q-value. Over families drawn as the engine's
// p-values are, montecarlo.PValue of small counts — so nearly every value
// is tied many times over — BH and BY must match the stable reference bit
// for bit.
func TestAdjustUnstableSortIsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(400)
		ps := make([]float64, m)
		for i := range ps {
			v := 1 + rng.Intn(12)
			ps[i] = montecarlo.PValue(rng.Intn(v+1), v)
		}
		for _, c := range []Correction{BH, BY} {
			got, want := Adjust(c, ps), stableAdjust(c, ps)
			for i := range ps {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %v: q[%d] = %v, stable sort gives %v (p = %v)", trial, c, i, got[i], want[i], ps[i])
				}
			}
		}
	}
}
