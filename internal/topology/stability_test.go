package topology

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// TestPersistenceStability checks the stability theorem of persistence
// diagrams (Cohen-Steiner, Edelsbrunner, Harer — reference [8] of the
// paper, the basis of the robustness claim in Section 6.2): perturbing the
// function by at most eps moves every finite persistence value by at most
// 2*eps (bottleneck stability implies the multiset of persistences matched
// in sorted order moves by <= 2*eps once diagonal pairings are allowed;
// here we verify the slightly weaker sorted-top-k property that drives the
// framework's noise robustness).
func TestPersistenceStability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		g, err := stgraph.New(1, n, [][]int{nil})
		if err != nil {
			return false
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		eps := 0.5
		noisy := make([]float64, n)
		for i := range vals {
			noisy[i] = vals[i] + (rng.Float64()*2-1)*eps
		}

		// Compare the high-persistence parts of the diagrams: every
		// persistence above 4*eps in the clean diagram must have a match
		// within 2*eps in the noisy one.
		clean := persistences(ComputeJoin(g, vals), 4*eps)
		dirty := persistences(ComputeJoin(g, noisy), 0)
		for _, p := range clean {
			matched := false
			for _, q := range dirty {
				if math.Abs(p-q) <= 2*eps+1e-9 {
					matched = true
					break
				}
			}
			if !matched {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// persistences returns the sorted persistence values above the threshold.
func persistences(tr *Tree, above float64) []float64 {
	var out []float64
	for _, p := range tr.Pairs {
		if p.Persistence > above {
			out = append(out, p.Persistence)
		}
	}
	sort.Float64s(out)
	return out
}

// TestLevelSetMonotone: raising the threshold can only shrink a
// super-level set (and symmetrically for sub-level sets). This is the
// invariant behind the ROC-style multi-threshold extension of Section 8.
func TestLevelSetMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, vals := randomGraphAndValues(rng)
		jt := ComputeJoin(g, vals)
		st := ComputeSplit(g, vals)
		t1 := rng.Float64() * 10
		t2 := t1 + rng.Float64()*3
		hi := map[int]bool{}
		for _, v := range levelSetVertices(g, vals, jt, t2) {
			hi[v] = true
		}
		for _, v := range levelSetVertices(g, vals, jt, t1) {
			delete(hi, v)
		}
		if len(hi) != 0 {
			return false // super-level at t2 must be subset of t1
		}
		lo := map[int]bool{}
		for _, v := range levelSetVertices(g, vals, st, t1) {
			lo[v] = true
		}
		for _, v := range levelSetVertices(g, vals, st, t2) {
			delete(lo, v)
		}
		return len(lo) == 0 // sub-level at t1 must be subset of t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCriticalPointCountsEulerLike: on a tree-structured (cycle-free)
// domain, #maxima - #merge-saddle-pairs = 1 for each merge tree: every
// non-essential maximum is destroyed exactly once.
func TestSaddleAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		g, err := stgraph.New(1, n, [][]int{nil})
		if err != nil {
			return false
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		jt := ComputeJoin(g, vals)
		essential := 0
		for _, p := range jt.Pairs {
			if p.Essential {
				essential++
			}
		}
		// On a connected domain exactly one essential pair exists, and
		// every other leaf has a real destroyer.
		if essential != 1 {
			return false
		}
		for _, p := range jt.Pairs {
			if !p.Essential && p.Destroyer < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
