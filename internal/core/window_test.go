package core

import (
	"reflect"
	"testing"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relationship"
)

// TestWindowedQueryFullRangeEquivalence: a window spanning the whole corpus
// is the identity — same relationships, same p-values, as the unwindowed
// query (the masked vectors are the vectors, and the supporting tile set is
// the occupancy the unwindowed test already uses).
func TestWindowedQueryFullRangeEquivalence(t *testing.T) {
	f := buildFW(t, appendCorpus(t, 0))
	base := Clause{Permutations: 100}
	want, _, err := f.Query(Query{Clause: base})
	if err != nil {
		t.Fatal(err)
	}
	win := base
	win.Windowed, win.WindowFrom, win.WindowTo = true, f.minTS, f.maxTS
	got, st, err := f.Query(Query{Clause: win})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Error("windowed query hit the unwindowed cache entry: the signature must separate them")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("full-range window differs from unwindowed:\n full %v\n win  %v", want, got)
	}
}

// TestWindowedQueryRestricts: a window outside the corpus evaluates to
// nothing (not an error), and a sub-range window answers and caches
// independently of the unwindowed form.
func TestWindowedQueryRestricts(t *testing.T) {
	f := buildFW(t, appendCorpus(t, 0))
	// A year past the corpus misses every resolution's bins (an hour just
	// past the end would still land in the final Month bin — window ends
	// are inclusive of their bins).
	c := Clause{Permutations: 60}
	c.Windowed, c.WindowFrom, c.WindowTo = true, f.maxTS+366*24*3600, f.maxTS+367*24*3600
	rels, st, err := f.Query(Query{Clause: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 || st.Evaluated != 0 {
		t.Errorf("out-of-corpus window evaluated %d pairs, returned %d relationships", st.Evaluated, len(rels))
	}

	// A quarter-year window: answers, and repeats hit its own cache entry.
	mid := Clause{Permutations: 60}
	mid.Windowed, mid.WindowFrom, mid.WindowTo = true, f.minTS, f.minTS+90*24*3600
	if _, st, err = f.Query(Query{Clause: mid}); err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Error("first windowed query cannot be a cache hit")
	}
	if _, st, err = f.Query(Query{Clause: mid}); err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Error("repeated windowed query should hit the cache")
	}
}

// TestWindowedMeasuresMasked: under a window, tau and rho are the measures
// of the masked feature sets — |Σ1| and |Σ2| are counted inside the window,
// not read off the entries' whole-domain occupancy.
func TestWindowedMeasuresMasked(t *testing.T) {
	f := buildFW(t, appendCorpus(t, 0))
	c := Clause{SkipSignificance: true, Windowed: true, WindowFrom: f.minTS, WindowTo: f.minTS + 90*24*3600}
	rels, _, err := f.Query(Query{Clause: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("quarter-year window relates nothing")
	}
	entry := func(ds, key string, res Resolution) *FunctionEntry {
		for _, e := range f.index.at(ds, res) {
			if e.Key == key {
				return e
			}
		}
		t.Fatalf("no entry %s", key)
		return nil
	}
	for _, r := range rels {
		lo, hi := windowSteps(f.timelines[r.Res.Temporal], c.WindowFrom, c.WindowTo)
		regions := f.graphs[r.Res].NumRegions()
		mask := func(e *FunctionEntry) *feature.Set {
			s := e.set(r.Class)
			return &feature.Set{
				Positive: s.Positive.MaskRange(lo*regions, hi*regions),
				Negative: s.Negative.MaskRange(lo*regions, hi*regions),
			}
		}
		m := relationship.Evaluate(mask(entry(r.Dataset1, r.Function1, r.Res)), mask(entry(r.Dataset2, r.Function2, r.Res)))
		if r.Score != m.Tau || r.Strength != m.Rho {
			t.Errorf("%s ~ %s (%v): tau=%g rho=%g, masked sets give tau=%g rho=%g",
				r.Function1, r.Function2, r.Class, r.Score, r.Strength, m.Tau, m.Rho)
		}
	}
}
