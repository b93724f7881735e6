package relationship

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
)

func set(n int, pos, neg []int) *feature.Set {
	s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	for _, i := range pos {
		s.Positive.Set(i)
	}
	for _, i := range neg {
		s.Negative.Set(i)
	}
	return s
}

func TestPerfectPositiveRelationship(t *testing.T) {
	a := set(100, []int{1, 2, 3}, []int{50, 51})
	b := set(100, []int{1, 2, 3}, []int{50, 51})
	m := Evaluate(a, b)
	if m.Tau != 1 {
		t.Errorf("Tau = %g, want 1", m.Tau)
	}
	if m.Rho != 1 {
		t.Errorf("Rho = %g, want 1", m.Rho)
	}
	if m.NumPositive != 5 || m.NumNegative != 0 {
		t.Errorf("#p=%d #n=%d, want 5/0", m.NumPositive, m.NumNegative)
	}
}

func TestPerfectNegativeRelationship(t *testing.T) {
	// Features coincide spatially but with opposite signs — e.g. high wind
	// speed (positive feature) vs taxi-trip drop (negative feature).
	a := set(100, []int{10, 20}, nil)
	b := set(100, nil, []int{10, 20})
	m := Evaluate(a, b)
	if m.Tau != -1 {
		t.Errorf("Tau = %g, want -1", m.Tau)
	}
	if m.Rho != 1 {
		t.Errorf("Rho = %g, want 1 (features always co-occur)", m.Rho)
	}
}

func TestUnrelated(t *testing.T) {
	a := set(100, []int{1, 2}, nil)
	b := set(100, []int{60, 61}, nil)
	m := Evaluate(a, b)
	if m.Related() {
		t.Error("disjoint feature sets should not be related")
	}
	if m.Tau != 0 || m.Rho != 0 {
		t.Errorf("Tau=%g Rho=%g, want 0/0", m.Tau, m.Rho)
	}
}

func TestPartialOverlapStrength(t *testing.T) {
	// Sigma1 = 4 features, Sigma2 = 2, overlap = 2.
	a := set(100, []int{1, 2, 3, 4}, nil)
	b := set(100, []int{3, 4}, nil)
	m := Evaluate(a, b)
	if m.Tau != 1 {
		t.Errorf("Tau = %g, want 1", m.Tau)
	}
	// precision = 2/4, recall = 2/2 -> F1 = 2*(0.5*1)/(1.5) = 2/3.
	if math.Abs(m.Rho-2.0/3.0) > 1e-12 {
		t.Errorf("Rho = %g, want 2/3", m.Rho)
	}
	if m.Precision != 0.5 || m.Recall != 1 {
		t.Errorf("precision=%g recall=%g", m.Precision, m.Recall)
	}
}

func TestMixedSigns(t *testing.T) {
	// 3 positive relations, 1 negative relation -> tau = (3-1)/4 = 0.5.
	a := set(100, []int{1, 2, 3, 4}, nil)
	b := set(100, []int{1, 2, 3}, []int{4})
	m := Evaluate(a, b)
	if m.Tau != 0.5 {
		t.Errorf("Tau = %g, want 0.5", m.Tau)
	}
	if m.NumPositive != 3 || m.NumNegative != 1 {
		t.Errorf("#p=%d #n=%d, want 3/1", m.NumPositive, m.NumNegative)
	}
}

func TestHighScoreLowStrength(t *testing.T) {
	// The wind-speed/taxi case: f2 (taxi drops) has many features; f1
	// (hurricane wind) has few, but every one coincides with a taxi drop.
	// tau = -1 with low rho.
	taxiDrops := []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	wind := []int{10, 30}
	a := set(100, wind, nil)
	b := set(100, nil, taxiDrops)
	m := Evaluate(a, b)
	if m.Tau != -1 {
		t.Errorf("Tau = %g, want -1", m.Tau)
	}
	if m.Rho >= 0.5 {
		t.Errorf("Rho = %g, want low (<0.5)", m.Rho)
	}
	// precision = 2/2 = 1, recall = 2/10 -> F1 = 2*0.2/1.2 = 1/3.
	if math.Abs(m.Rho-1.0/3.0) > 1e-12 {
		t.Errorf("Rho = %g, want 1/3", m.Rho)
	}
}

func TestEmptyFeatureSets(t *testing.T) {
	a := set(50, nil, nil)
	b := set(50, []int{1}, nil)
	m := Evaluate(a, b)
	if m.Related() || m.Tau != 0 || m.Rho != 0 {
		t.Error("empty feature set should yield zero measures")
	}
	m = Evaluate(a, set(50, nil, nil))
	if !m.Valid() {
		t.Error("both-empty should still be valid (no NaNs)")
	}
}

func TestMismatchedSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched vertex counts")
		}
	}()
	Evaluate(set(10, nil, nil), set(11, nil, nil))
}

// Property: tau in [-1,1], rho in [0,1], and rho is the harmonic mean of
// precision and recall, for random feature sets.
func TestMeasureRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		randSet := func() *feature.Set {
			s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
			for i := 0; i < n; i++ {
				switch rng.Intn(5) {
				case 0:
					s.Positive.Set(i)
				case 1:
					s.Negative.Set(i)
				}
			}
			return s
		}
		m := Evaluate(randSet(), randSet())
		if !m.Valid() {
			return false
		}
		if m.Precision+m.Recall > 0 {
			want := 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
			if math.Abs(m.Rho-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Evaluate is symmetric in tau (and swaps precision/recall).
func TestTauSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		mk := func() *feature.Set {
			s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
			for i := 0; i < n; i++ {
				switch rng.Intn(4) {
				case 0:
					s.Positive.Set(i)
				case 1:
					s.Negative.Set(i)
				}
			}
			return s
		}
		a, b := mk(), mk()
		m1, m2 := Evaluate(a, b), Evaluate(b, a)
		return m1.Tau == m2.Tau && m1.Rho == m2.Rho &&
			m1.Precision == m2.Recall && m1.Recall == m2.Precision
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStringFormat(t *testing.T) {
	m := Evaluate(set(10, []int{1}, nil), set(10, []int{1}, nil))
	if m.String() == "" {
		t.Error("String should render")
	}
}

// oracleMeasures is a per-vertex transcription of Sections 2.2–2.3: a
// vertex is in Σ when both functions have a feature there, and each pair of
// signs the two functions carry at it is a positive relation when the
// signs agree and a negative one when they differ. |Σ1| and |Σ2| are
// counted here too; tau and rho are the paper's ratios of these counts.
func oracleMeasures(a, b *feature.Set) Measures {
	var m Measures
	for v := 0; v < a.NumVertices(); v++ {
		signsA := []bool{a.Positive.Get(v), a.Negative.Get(v)}
		signsB := []bool{b.Positive.Get(v), b.Negative.Get(v)}
		inA, inB := signsA[0] || signsA[1], signsB[0] || signsB[1]
		if inA {
			m.Sigma1++
		}
		if inB {
			m.Sigma2++
		}
		if !inA || !inB {
			continue
		}
		m.SigmaBoth++
		for sa, hasA := range signsA {
			for sb, hasB := range signsB {
				switch {
				case !hasA || !hasB:
				case sa == sb:
					m.NumPositive++
				default:
					m.NumNegative++
				}
			}
		}
	}
	if m.SigmaBoth > 0 {
		m.Tau = float64(m.NumPositive-m.NumNegative) / float64(m.SigmaBoth)
	}
	if m.Sigma1 > 0 {
		m.Precision = float64(m.SigmaBoth) / float64(m.Sigma1)
	}
	if m.Sigma2 > 0 {
		m.Recall = float64(m.SigmaBoth) / float64(m.Sigma2)
	}
	if m.Precision+m.Recall > 0 {
		m.Rho = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// randomSet draws a feature set over n vertices: each vertex is a positive
// feature with probability pos and, independently, a negative one with
// probability neg, so some vertices carry both signs.
func randomSet(rng *rand.Rand, n int, pos, neg float64) *feature.Set {
	s := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	for i := 0; i < n; i++ {
		if rng.Float64() < pos {
			s.Positive.Set(i)
		}
		if rng.Float64() < neg {
			s.Negative.Set(i)
		}
	}
	return s
}

// burstySet draws a feature set over steps × regions vertices (vertex
// step·regions + region) whose features come in runs of consecutive steps
// of one region, as extracted features do: at each step a region starts a
// positive run with probability pos/maxRun and, independently, a negative
// one with probability neg/maxRun, each 1 to maxRun steps long, so the
// signs sometimes overlap and a run may cross a word boundary.
func burstySet(rng *rand.Rand, steps, regions int, pos, neg float64, maxRun int) *feature.Set {
	s := &feature.Set{Positive: bitvec.New(steps * regions), Negative: bitvec.New(steps * regions)}
	for _, sign := range []struct {
		v *bitvec.Vector
		p float64
	}{{s.Positive, pos}, {s.Negative, neg}} {
		for r := 0; r < regions; r++ {
			for st := 0; st < steps; st++ {
				if rng.Float64() >= sign.p/float64(maxRun) {
					continue
				}
				for end := min(st+1+rng.Intn(maxRun), steps); st < end; st++ {
					sign.v.Set(st*regions + r)
				}
			}
		}
	}
	return s
}

// allOnes is a word-occupancy bitmap for n-bit vectors that marks every
// word, the coarsest over-approximation Measure accepts.
func allOnes(n int) *bitvec.Vector {
	v := bitvec.New(bitvec.NumWords(n))
	for i := range v.Len() {
		v.Set(i)
	}
	return v
}

// FuzzMeasureOracle holds Measure bit-identical to the per-vertex oracle on
// random lengths (word multiples and not), densities and overlapping signs,
// on uniform sets and on bursty ones (run > 0: runs of up to run steps over
// regions regions), with the word-occupancy bitmaps derived from the unions
// and with all-ones bitmaps. It checks that Measure takes the supplied
// union sizes as given, and that vectors or bitmaps of the wrong length
// panic with a message rather than an index error.
func FuzzMeasureOracle(f *testing.F) {
	f.Add(int64(1), uint16(99), uint8(40), uint8(40), uint8(40), uint8(40), int8(0), int8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(63), uint8(255), uint8(0), uint8(0), uint8(255), int8(0), int8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint16(0), uint8(128), uint8(128), uint8(128), uint8(128), int8(3), int8(-1), uint8(0), uint8(0))
	f.Add(int64(4), uint16(128), uint8(5), uint8(2), uint8(200), uint8(10), int8(0), int8(1), uint8(0), uint8(0))
	f.Add(int64(5), uint16(299), uint8(0), uint8(0), uint8(30), uint8(30), int8(-2), int8(0), uint8(0), uint8(0))
	f.Add(int64(6), uint16(299), uint8(20), uint8(20), uint8(40), uint8(10), int8(0), int8(0), uint8(3), uint8(12))
	f.Add(int64(7), uint16(255), uint8(60), uint8(5), uint8(60), uint8(5), int8(0), int8(0), uint8(0), uint8(40))
	f.Add(int64(8), uint16(200), uint8(10), uint8(10), uint8(90), uint8(90), int8(1), int8(0), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nB uint16, aPos, aNeg, bPos, bNeg uint8, dA, dB int8, regionsB, run uint8) {
		n := int(nB)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		var a, b *feature.Set
		if run == 0 {
			a = randomSet(rng, n, float64(aPos)/255, float64(aNeg)/255)
			b = randomSet(rng, n, float64(bPos)/255, float64(bNeg)/255)
		} else {
			regions := int(regionsB)%8 + 1
			steps := (n-1)/regions + 1
			n = steps * regions
			maxRun := int(run)%64 + 1
			a = burstySet(rng, steps, regions, float64(aPos)/255, float64(aNeg)/255, maxRun)
			b = burstySet(rng, steps, regions, float64(bPos)/255, float64(bNeg)/255, maxRun)
		}
		want := oracleMeasures(a, b)
		allA, allB := a.All(), b.All()
		occA, occB := allA.Occupied(), allB.Occupied()
		if got := Measure(a, b, allA, allB, occA, occB, want.Sigma1, want.Sigma2); got != want {
			t.Fatalf("n=%d: Measure %+v, oracle %+v", n, got, want)
		}
		if got := Measure(a, b, allA, allB, allOnes(n), allOnes(n), want.Sigma1, want.Sigma2); got != want {
			t.Fatalf("n=%d: Measure with all-ones bitmaps %+v, oracle %+v", n, got, want)
		}
		if got := Evaluate(a, b); got != want {
			t.Fatalf("n=%d: Evaluate %+v, oracle %+v", n, got, want)
		}

		// Supplied sizes are used as given, never recounted.
		sizeA, sizeB := want.Sigma1+int(dA), want.Sigma2+int(dB)
		got := Measure(a, b, allA, allB, occA, occB, sizeA, sizeB)
		if got.Sigma1 != sizeA || got.Sigma2 != sizeB {
			t.Fatalf("sizes %d/%d supplied, Measure reports %d/%d", sizeA, sizeB, got.Sigma1, got.Sigma2)
		}
		if sizeA > 0 && got.Precision != float64(want.SigmaBoth)/float64(sizeA) ||
			sizeB > 0 && got.Recall != float64(want.SigmaBoth)/float64(sizeB) {
			t.Fatalf("sizes %d/%d supplied: precision %g recall %g", sizeA, sizeB, got.Precision, got.Recall)
		}

		// Any one of the six vectors one bit longer than the others, or
		// either bitmap one bit longer than their word count, panics with a
		// message.
		for i := range 8 {
			vs := []*bitvec.Vector{allA, allB, a.Positive, a.Negative, b.Positive, b.Negative, occA, occB}
			if i < 6 {
				vs[i] = bitvec.New(n + 1)
			} else {
				vs[i] = bitvec.New(bitvec.NumWords(n) + 1)
			}
			checkLengthPanic(t, i, func() {
				Measure(&feature.Set{Positive: vs[2], Negative: vs[3]}, &feature.Set{Positive: vs[4], Negative: vs[5]}, vs[0], vs[1], vs[6], vs[7], 0, 0)
			})
		}
	})
}

// checkLengthPanic runs call and fails unless it panics with a string
// naming this package, not a runtime error.
func checkLengthPanic(t *testing.T, i int, call func()) {
	t.Helper()
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "relationship: ") {
			t.Errorf("argument %d one bit longer: panic %v (%T), want a relationship message", i, r, r)
		}
	}()
	call()
}

// BenchmarkMeasure times the one-pass kernel on three shapes. Two are
// 48 regions × 8,760 hours with unions over ≈0.7 % and ≈1.8 % of the
// vertices, the densities of the ingest-deep probe's taxi and collisions
// functions at that resolution: "uniform" scatters the features, so about
// 36 % and 69 % of the union words are non-zero; "bursty" lays them in runs
// of consecutive hours per region, as extracted features come, so far fewer
// words are. The third is a dense city × hour pair over 90 days (1 × 2,160,
// ≈60 % features), as in graph-wide.
func BenchmarkMeasure(b *testing.B) {
	const regions, hours = 48, 8760
	for _, bc := range []struct {
		name   string
		s1, s2 func(*rand.Rand) *feature.Set
	}{
		{"48x8760-uniform",
			func(rng *rand.Rand) *feature.Set { return randomSet(rng, regions*hours, 0.0035, 0.0035) },
			func(rng *rand.Rand) *feature.Set { return randomSet(rng, regions*hours, 0.009, 0.009) }},
		{"48x8760-bursty",
			func(rng *rand.Rand) *feature.Set { return burstySet(rng, hours, regions, 0.0035, 0.0035, 12) },
			func(rng *rand.Rand) *feature.Set { return burstySet(rng, hours, regions, 0.009, 0.009, 12) }},
		{"1x2160",
			func(rng *rand.Rand) *feature.Set { return randomSet(rng, 2160, 0.37, 0.37) },
			func(rng *rand.Rand) *feature.Set { return randomSet(rng, 2160, 0.37, 0.37) }},
	} {
		rng := rand.New(rand.NewSource(1))
		s1, s2 := bc.s1(rng), bc.s2(rng)
		u1, u2 := s1.All(), s2.All()
		o1, o2 := u1.Occupied(), u2.Occupied()
		n1, n2 := u1.Count(), u2.Count()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := Measure(s1, s2, u1, u2, o1, o2, n1, n2); !m.Related() {
					b.Fatal("benchmark pair is not related")
				}
			}
		})
	}
}
