package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// dailyPair builds two city-level daily data sets over the given days from
// 2012-01-01 that deviate together on about one day in twelve, so both
// have features in every year at day, week and month resolution. A year is
// one month tile (12 steps) and one week tile (53), so over two years a
// window on the first year shrinks a test's domain.
func dailyPair(days int) []*dataset.Dataset {
	rng := rand.New(rand.NewSource(17))
	mk := func(name string) *dataset.Dataset {
		return &dataset.Dataset{Name: name, SpatialRes: spatial.City, TemporalRes: temporal.Day, Attrs: []string{"v"}}
	}
	a, b := mk("gusts"), mk("rides")
	for d := 0; d < days; d++ {
		va, vb := 10+rng.NormFloat64(), 50+rng.NormFloat64()
		if rng.Intn(12) == 0 {
			va, vb = 40+rng.Float64()*5, 5+rng.Float64()
		}
		a.Tuples = append(a.Tuples, dataset.Tuple{Region: 0, TS: ts(d, 0), Values: []float64{va}})
		b.Tuples = append(b.Tuples, dataset.Tuple{Region: 0, TS: ts(d, 0), Values: []float64{vb}})
	}
	return []*dataset.Dataset{a, b}
}

// checkResolvable evaluates every candidate of the corpus under clause with
// SkipSignificance, and requires that the families stored under clause
// itself are those minus exactly the one-region candidates whose test
// domain of S steps has 1/S > alpha (oracleNotResolvable). It also requires that notResolvable,
// what the BuildGraph or Query that stored them reported, counts every
// candidate past prunePair that the oracle finds not resolvable
// (bruteForce), related or not. It returns the dropped candidates' step
// counts and the kept one-region ones'.
func checkResolvable(t *testing.T, f *Framework, clause Clause, notResolvable int) (dropped, kept []int) {
	t.Helper()
	skip := clause
	skip.SkipSignificance = true
	all, sst, err := f.Query(Query{Clause: skip})
	if err != nil {
		t.Fatal(err)
	}
	if sst.NotResolvable != 0 {
		t.Errorf("SkipSignificance left %d tuples out as not resolvable", sst.NotResolvable)
	}
	tested := f.families[graphSignature(clause)]
	untested := f.families[graphSignature(skip)]
	if len(all) == 0 || len(untested) == 0 {
		t.Fatal("the fixture has no candidate")
	}
	for pair, fam := range untested {
		inTested := map[[3]uint32]bool{}
		for _, c := range tested[pair] {
			inTested[[3]uint32{c.posA, c.posB, uint32(c.class)}] = true
		}
		for _, c := range fam {
			e1, e2 := f.index.funcs[pair.A][c.posA], f.index.funcs[pair.B][c.posB]
			S := testDomainSteps(f, e1, e2, c.class, clause)
			resolvable := !oracleNotResolvable(f, e1, e2, c.class, clause)
			if in := inTested[[3]uint32{c.posA, c.posB, uint32(c.class)}]; in != resolvable {
				t.Errorf("%s ~ %s (%v) over %d steps: in the tested family %v, resolvable %v",
					e1.Key, e2.Key, c.class, S, in, resolvable)
			}
			switch {
			case !resolvable:
				dropped = append(dropped, S)
			case f.graphs[e1.Res].NumRegions() == 1:
				kept = append(kept, S)
			}
		}
	}
	if _, _, _, want := bruteForce(t, f, clause); notResolvable != want || want < len(dropped) {
		t.Errorf("%d tuples reported not resolvable, the oracle finds %d (%d of them related)", notResolvable, want, len(dropped))
	}
	return dropped, kept
}

// TestNotResolvableLeftOutOfFamilies: a one-region candidate whose test
// domain has S steps with 1/S > alpha can never be significant, so the
// planner leaves it out of its family — never corrected over — and counts
// it as not resolvable, for BuildGraph and for Query alike; the domain is
// the supporting tiles', whole tiles even where a window ends inside one,
// so a window that drops a tile can cross the cut; alpha moves the cut;
// SkipSignificance drops nothing.
func TestNotResolvableLeftOutOfFamilies(t *testing.T) {
	// One year: 12 month steps fall below the cut of 20, 53 week steps not.
	f := buildFW(t, dailyPair(366))
	st, err := f.BuildGraph(Clause{})
	if err != nil {
		t.Fatal(err)
	}
	dropped, kept := checkResolvable(t, f, Clause{}, st.NotResolvable)
	if !slices.Contains(dropped, 12) || !slices.Contains(kept, 53) {
		t.Errorf("dropped step counts %v, kept %v: want 12 dropped, 53 kept", dropped, kept)
	}
	for pair, fam := range f.published.Load().fams {
		for _, c := range fam {
			e1, e2 := f.index.funcs[pair.A][c.posA], f.index.funcs[pair.B][c.posB]
			if S := testDomainSteps(f, e1, e2, c.class, Clause{}); f.graphs[e1.Res].NumRegions() == 1 && S < 20 {
				t.Errorf("graph family holds %s ~ %s over %d steps", e1.Key, e2.Key, S)
			}
		}
	}
	if sst, err := f.BuildGraph(Clause{SkipSignificance: true}); err != nil || sst.NotResolvable != 0 {
		t.Errorf("BuildGraph under SkipSignificance: %d not resolvable, err %v", sst.NotResolvable, err)
	}
	// Two years are 24 month steps: month candidates are kept at 0.05.
	f = buildFW(t, dailyPair(731))
	if _, kept = checkResolvable(t, f, Clause{}, queryNotResolvable(t, f, Clause{})); !slices.Contains(kept, 24) {
		t.Fatalf("no month candidate over 24 steps kept at alpha 0.05 (kept step counts %v)", kept)
	}

	// A window over the first year leaves one month tile, 12 steps: its
	// month candidates are dropped, its week (53) and day ones kept.
	win := Clause{Windowed: true, WindowFrom: ts(0, 0), WindowTo: ts(365, 23)}
	wDropped, wKept := checkResolvable(t, f, win, queryNotResolvable(t, f, win))
	if !slices.Contains(wDropped, 12) {
		t.Errorf("the first-year window dropped no 12-step month candidate (dropped %v)", wDropped)
	}
	if !slices.Contains(wKept, 53) {
		t.Errorf("the first-year window kept no 53-step week candidate (kept %v)", wKept)
	}

	// A window that ends inside a tile, in May of the second year, holds 17
	// month steps, but the test runs over whole tiles: the boundary tile's
	// 12 steps count, so month candidates are tested over 24 steps.
	mid := Clause{Windowed: true, WindowFrom: ts(0, 0), WindowTo: ts(366+150, 23)}
	if _, mKept := checkResolvable(t, f, mid, queryNotResolvable(t, f, mid)); !slices.Contains(mKept, 24) {
		t.Errorf("a window ending mid second year kept no 24-step month candidate (kept %v)", mKept)
	}

	// At alpha 0.01 the cut is S < 100: 24 month steps now fall below it.
	lDropped, _ := checkResolvable(t, f, Clause{Alpha: 0.01}, queryNotResolvable(t, f, Clause{Alpha: 0.01}))
	if !slices.Contains(lDropped, 24) {
		t.Errorf("alpha 0.01 dropped no 24-step month candidate (dropped %v)", lDropped)
	}

	// A year and ten days are 13 month steps over two tiles. At alpha 0.08
	// the cut is S < 12.5: a month candidate with no feature in the second
	// tile is dropped over its 12 supporting steps.
	c := Clause{Alpha: 0.08}
	f = buildFW(t, dailyPair(366+10))
	if dropped, _ := checkResolvable(t, f, c, queryNotResolvable(t, f, c)); !slices.Contains(dropped, 12) {
		t.Errorf("alpha 0.08 dropped no 12-step month candidate (dropped %v)", dropped)
	}
}

// queryNotResolvable runs the all-pairs query under clause and returns its NotResolvable.
func queryNotResolvable(t *testing.T, f *Framework, clause Clause) int {
	t.Helper()
	_, st, err := f.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	return st.NotResolvable
}
