package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of empty should be NaN")
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Variance(xs), 4) {
		t.Errorf("Variance = %g, want 4", Variance(xs))
	}
	if !almost(Std(xs), 2) {
		t.Errorf("Std = %g, want 2", Std(xs))
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance of empty should be NaN")
	}
}

// TestQuartilesUnsortedEvenEmpty: Quartiles sorts a copy (the input keeps
// its order), interpolates between order statistics at an even length, and
// gives NaNs for empty input.
func TestQuartilesUnsortedEvenEmpty(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if q1, q2, q3 := Quartiles(xs); !almost(q1, 2) || !almost(q2, 3) || !almost(q3, 4) {
		t.Errorf("Quartiles(3 1 2 4 5) = %g %g %g, want 2 3 4", q1, q2, q3)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quartiles mutated its input")
	}
	if q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4}); !almost(q1, 1.75) || !almost(q2, 2.5) || !almost(q3, 3.25) {
		t.Errorf("Quartiles(1 2 3 4) = %g %g %g, want 1.75 2.5 3.25", q1, q2, q3)
	}
	if q1, q2, q3 := Quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(q2) || !math.IsNaN(q3) {
		t.Errorf("Quartiles of empty = %g %g %g, want NaNs", q1, q2, q3)
	}
}

func TestQuartilesIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	q1, q2, q3 := Quartiles(xs)
	if !almost(q1, 3) || !almost(q2, 5) || !almost(q3, 7) {
		t.Errorf("Quartiles = %g %g %g", q1, q2, q3)
	}
	if !almost(IQR(xs), 4) {
		t.Errorf("IQR = %g, want 4", IQR(xs))
	}
}

func TestTwoMeansSeparated(t *testing.T) {
	// Two well-separated groups: the paper's persistence split.
	xs := []float64{0.1, 0.2, 0.15, 0.12, 10, 11, 10.5}
	high, lowMax, highMin := TwoMeans(xs)
	wantHigh := []bool{false, false, false, false, true, true, true}
	for i := range xs {
		if high[i] != wantHigh[i] {
			t.Fatalf("assignment[%d] = %v, want %v", i, high[i], wantHigh[i])
		}
	}
	if !almost(lowMax, 0.2) {
		t.Errorf("lowMax = %g, want 0.2", lowMax)
	}
	if !almost(highMin, 10) {
		t.Errorf("highMin = %g, want 10", highMin)
	}
}

func TestTwoMeansConstant(t *testing.T) {
	xs := []float64{5, 5, 5}
	high, lowMax, highMin := TwoMeans(xs)
	for i := range high {
		if high[i] {
			t.Error("constant input should be all-low")
		}
	}
	if lowMax != 5 {
		t.Errorf("lowMax = %g, want 5", lowMax)
	}
	if !math.IsNaN(highMin) {
		t.Error("highMin should be NaN for constant input")
	}
}

func TestTwoMeansEmpty(t *testing.T) {
	high, lowMax, _ := TwoMeans(nil)
	if len(high) != 0 || !math.IsNaN(lowMax) {
		t.Error("empty input should be empty/NaN")
	}
}

func TestTwoMeansTwoValues(t *testing.T) {
	high, lowMax, highMin := TwoMeans([]float64{1, 9})
	if high[0] || !high[1] {
		t.Error("two values should split low/high")
	}
	if lowMax != 1 || highMin != 9 {
		t.Errorf("boundaries = %g %g", lowMax, highMin)
	}
}

// Property: TwoMeans produces a threshold split — every low value is below
// every high value.
func TestTwoMeansIsThresholdSplit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		high, lowMax, highMin := TwoMeans(xs)
		anyHigh := false
		for i, x := range xs {
			if high[i] {
				anyHigh = true
				if x < lowMax {
					return false
				}
			} else if !math.IsNaN(highMin) && x > highMin {
				return false
			}
		}
		_ = anyHigh
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}
