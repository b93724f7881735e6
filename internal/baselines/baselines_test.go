package baselines

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) < eps }

func TestPCCPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := PCC(x, y); !almost(got, 1, 1e-12) {
		t.Errorf("PCC linear = %g, want 1", got)
	}
	ny := []float64{10, 8, 6, 4, 2}
	if got := PCC(x, ny); !almost(got, -1, 1e-12) {
		t.Errorf("PCC anti-linear = %g, want -1", got)
	}
}

func TestPCCIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	if got := PCC(x, y); math.Abs(got) > 0.05 {
		t.Errorf("PCC independent = %g, want ~0", got)
	}
}

func TestPCCDegenerate(t *testing.T) {
	if !math.IsNaN(PCC([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant series should give NaN")
	}
	if !math.IsNaN(PCC([]float64{1}, []float64{1, 2})) {
		t.Error("length mismatch should give NaN")
	}
	if !math.IsNaN(PCC(nil, nil)) {
		t.Error("empty should give NaN")
	}
}

func TestMIIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.Float64() * 10
	}
	if got := MI(x, x, 16); !almost(got, 1, 1e-9) {
		t.Errorf("MI(x,x) = %g, want 1", got)
	}
}

func TestMIIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	if got := MI(x, y, 8); got > 0.05 {
		t.Errorf("MI independent = %g, want ~0", got)
	}
}

func TestMINonlinearDependence(t *testing.T) {
	// y = x^2 has PCC ~ 0 on symmetric x but high MI.
	rng := rand.New(rand.NewSource(4))
	n := 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
		y[i] = x[i] * x[i]
	}
	pcc := math.Abs(PCC(x, y))
	mi := MI(x, y, 16)
	if pcc > 0.1 {
		t.Errorf("PCC(x, x^2) = %g, expected near 0", pcc)
	}
	if mi < 0.3 {
		t.Errorf("MI(x, x^2) = %g, expected substantial", mi)
	}
}

func TestMIDegenerate(t *testing.T) {
	if !math.IsNaN(MI([]float64{1, 1}, []float64{1, 2}, 4)) {
		t.Error("constant x should give NaN")
	}
	if !math.IsNaN(MI([]float64{1, 2}, []float64{1, 2}, 1)) {
		t.Error("bins < 2 should give NaN")
	}
}

func TestDTWIdentical(t *testing.T) {
	x := []float64{1, 3, 2, 5, 4}
	if got := DTW(x, x); got != 0 {
		t.Errorf("DTW(x,x) = %g, want 0", got)
	}
}

func TestDTWKnownSmall(t *testing.T) {
	// x = [0, 1], y = [0, 0, 1]: warping aligns perfectly, distance 0.
	if got := DTW([]float64{0, 1}, []float64{0, 0, 1}); got != 0 {
		t.Errorf("DTW warp = %g, want 0", got)
	}
	// x = [0], y = [3]: distance 3.
	if got := DTW([]float64{0}, []float64{3}); got != 3 {
		t.Errorf("DTW singleton = %g, want 3", got)
	}
}

func TestDTWShiftInvariance(t *testing.T) {
	// DTW of a shifted sawtooth is far below the L1 distance.
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 10)
		y[i] = float64((i + 2) % 10)
	}
	l1 := 0.0
	for i := range x {
		l1 += math.Abs(x[i] - y[i])
	}
	if d := DTW(x, y); d >= l1/2 {
		t.Errorf("DTW = %g, want far below L1 = %g", d, l1)
	}
}

func TestDTWEmpty(t *testing.T) {
	if !math.IsNaN(DTW(nil, []float64{1})) {
		t.Error("empty input should give NaN")
	}
}

func TestZNormalize(t *testing.T) {
	z := ZNormalize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	var mean, va float64
	for _, v := range z {
		mean += v
	}
	mean /= float64(len(z))
	for _, v := range z {
		va += (v - mean) * (v - mean)
	}
	va /= float64(len(z))
	if !almost(mean, 0, 1e-12) || !almost(va, 1, 1e-12) {
		t.Errorf("z-normalized mean=%g var=%g", mean, va)
	}
	zc := ZNormalize([]float64{3, 3, 3})
	for _, v := range zc {
		if v != 0 {
			t.Error("constant series should normalize to zeros")
		}
	}
}

func TestNormalizedDTWBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 300)
	for i := range x {
		x[i] = math.Sin(float64(i)/10) + rng.NormFloat64()*0.05
	}
	if got := NormalizedDTW(x, x); !almost(got, 1, 1e-9) {
		t.Errorf("betaDTW(x,x) = %g, want 1", got)
	}
	y := make([]float64, 300)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	got := NormalizedDTW(x, y)
	if got < 0 || got > 1 {
		t.Errorf("betaDTW out of range: %g", got)
	}
	if got > 0.9 {
		t.Errorf("betaDTW of unrelated series = %g, want below identical", got)
	}
}

func TestNormalizedDTWSimilarSeries(t *testing.T) {
	// A small phase shift should keep betaDTW high.
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 10)
		y[i] = math.Sin(float64(i+3) / 10)
	}
	if got := NormalizedDTW(x, y); got < 0.9 {
		t.Errorf("betaDTW shifted sine = %g, want >= 0.9", got)
	}
}

func TestOLSBinary(t *testing.T) {
	// y is 10 on rain days, 4 otherwise -> slope 6, intercept 4, R2 = 1.
	y := []float64{4, 10, 4, 10, 4, 4, 10}
	rain := []bool{false, true, false, true, false, false, true}
	slope, intercept, r2, err := OLSBinary(y, rain)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 6, 1e-12) || !almost(intercept, 4, 1e-12) || !almost(r2, 1, 1e-12) {
		t.Errorf("OLS = slope %g intercept %g r2 %g", slope, intercept, r2)
	}
}

func TestOLSBinaryNoSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 5000
	y := make([]float64, n)
	ind := make([]bool, n)
	for i := range y {
		y[i] = rng.NormFloat64()
		ind[i] = rng.Intn(2) == 0
	}
	_, _, r2, err := OLSBinary(y, ind)
	if err != nil {
		t.Fatal(err)
	}
	if r2 > 0.01 {
		t.Errorf("R2 = %g for pure noise, want ~0", r2)
	}
}

func TestOLSBinaryErrors(t *testing.T) {
	if _, _, _, err := OLSBinary([]float64{1}, []bool{true, false}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, _, err := OLSBinary([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("constant indicator should error")
	}
}

// The headline comparison property: a relationship that exists only during
// rare events (high wind -> taxi drop) is invisible to PCC computed
// globally, because the event steps are a vanishing fraction of the series.
func TestGlobalPCCMissesEventRelationship(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 24 * 365
	wind := make([]float64, n)
	taxi := make([]float64, n)
	for i := range wind {
		wind[i] = 10 + rng.NormFloat64()*3 // normal wind
		taxi[i] = 400 + 100*math.Sin(float64(i)/24*2*math.Pi) + rng.NormFloat64()*20
	}
	// Two hurricanes: extreme wind, taxi collapse.
	for _, h := range []int{2000, 7000} {
		for i := h; i < h+24; i++ {
			wind[i] = 60 + rng.NormFloat64()*5
			taxi[i] = 20 + rng.NormFloat64()*5
		}
	}
	if got := math.Abs(PCC(wind, taxi)); got > 0.35 {
		t.Errorf("|PCC| = %g; the event-only relationship should stay weak globally", got)
	}
}

// BenchmarkComparisonBaselines measures the Section 6.4 baselines (PCC,
// MI, normalized DTW) on city-level hourly series.
func BenchmarkComparisonBaselines(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 24 * 180
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i]*0.5 + rng.NormFloat64()
	}
	xs, ys := x[:1000], y[:1000]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PCC(x, y)
		MI(x, y, 16)
		NormalizedDTW(xs, ys)
	}
}
