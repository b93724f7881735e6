package core

import (
	"hash/fnv"
	"math/bits"
	"slices"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// This file is the query planner layer: it turns a Query + Clause into the
// task list the relationship job (paper job 3) executes, pruning candidate
// (function, function, resolution, class) tuples that provably cannot
// produce a result. The pruning is sound — a planned run returns exactly
// the relationships an exhaustive run would — because every rule derives an
// upper bound on a quantity the evaluator filters on:
//
//   - |Σ| = |Σ1 ∩ Σ2| ≤ min(|Σ1|, |Σ2|): a pair where either side has no
//     features, or whose unions do not intersect, can never be Related;
//   - rho = 2|Σ| / (|Σ1| + |Σ2|) exactly (the F1 identity), so occupancy
//     counts bound it by 2·min(|Σ1|,|Σ2|)/(|Σ1|+|Σ2|) before |Σ| is known
//     and pin it once |Σ| is;
//   - |tau| = |#p − #n| / |Σ| ≤ max(#p_hi, #n_hi) / |Σ| where
//     #p_hi = min(|P1|,|P2|) + min(|N1|,|N2|) and
//     #n_hi = min(|P1|,|N2|) + min(|N1|,|P2|).
//
// Bound comparisons use a small margin so floating-point rounding can never
// prune a pair the evaluator's own (differently associated) arithmetic
// would keep. Pruned pairs skip relationship evaluation and, decisively,
// the Monte Carlo significance test — the dominant query cost.
//
// The planner is also the one place a surviving tuple is judged not
// resolvable: on a one-region resolution a test over S steps cannot reach
// alpha when 1/S > alpha (montecarlo.Resolvable), so the tuple is no
// hypothesis and never becomes a task. The verdict is taken once per
// resolution when even its full timeline is too short, else per tuple on
// the test's own domain (testDomain).

// pruneMargin keeps bound-based pruning strictly conservative under
// floating-point rounding differences with the evaluator.
const pruneMargin = 1e-9

// pairTask is one relationship-evaluation work unit: the tuple's identity
// and, when the clause is windowed, the window's step range [winLo, winHi)
// at the task's temporal resolution.
type pairTask struct {
	e1, e2 *FunctionEntry
	class  feature.Class

	winLo, winHi int
}

// queryPlan is the planner's output: the surviving task list plus counts of
// everything enumerated, pruned and left out as not resolvable.
type queryPlan struct {
	tasks         []pairTask
	considered    int
	pruned        int
	notResolvable int
}

// plan enumerates the candidate tuples of one data set pair across its
// common resolutions and the clause's feature classes (the map phase of
// paper job 3), pruning each candidate against the clause. The common
// resolutions are read off the index, finest first (Section 5.3): a data set
// has entries exactly where its native resolution converts, so no raw data
// is needed.
func (f *Framework) plan(k graphPair, clause Clause) queryPlan {
	var pl queryPlan
	classes := clauseClasses(clause)
	alpha := selectionFromClause(clause).alpha
	for sr := spatial.ZipCode; sr <= spatial.City; sr++ {
		for tr := temporal.Hour; tr <= temporal.Month; tr++ {
			res := Resolution{sr, tr}
			if clause.Resolutions != nil && !slices.Contains(clause.Resolutions, res) {
				continue
			}
			es1, es2 := f.index.at(k.A, res), f.index.at(k.B, res)
			if len(es1) == 0 || len(es2) == 0 {
				// Not common; checked before windowSteps, since a resolution
				// no entry uses may have no timeline.
				continue
			}
			winLo, winHi := 0, 0
			if clause.Windowed {
				winLo, winHi = windowSteps(f.timelines[tr], clause.WindowFrom, clause.WindowTo)
			}
			// A one-region test's domain is at most the timeline: when even
			// that is too short no tuple here is resolvable, else each tuple
			// is judged on its supporting tiles.
			oneRegion, anyResolvable := false, true
			if !clause.SkipSignificance {
				g := f.graphs[res]
				oneRegion = g.NumRegions() == 1
				anyResolvable = montecarlo.Resolvable(alpha, g.NumRegions(), g.NumSteps())
			}
			for _, e1 := range es1 {
				for _, e2 := range es2 {
					for _, class := range classes {
						pl.considered++
						if clause.Windowed && winLo == winHi {
							// Window misses this resolution's timeline
							// entirely: nothing to evaluate.
							pl.pruned++
							continue
						}
						if prunePair(e1, e2, class, clause) {
							pl.pruned++
							continue
						}
						t := pairTask{e1: e1, e2: e2, class: class, winLo: winLo, winHi: winHi}
						resolvable := anyResolvable
						if oneRegion && resolvable {
							_, steps := f.testDomain(t, clause.Windowed)
							resolvable = montecarlo.Resolvable(alpha, 1, steps)
						}
						if !resolvable {
							pl.notResolvable++
							continue
						}
						pl.tasks = append(pl.tasks, t)
					}
				}
			}
		}
	}
	return pl
}

// prunePair decides whether a candidate can be skipped, cheapest evidence
// first: occupancy counts alone, then the exact intersection.
func prunePair(e1, e2 *FunctionEntry, class feature.Class, clause Clause) bool {
	o1, o2 := e1.occ(class), e2.occ(class)
	if o1.All == 0 || o2.All == 0 {
		return true // one side has no features: never Related
	}
	if clause.Windowed || clause.MinScore <= 0 && clause.MinStrength <= 0 {
		// Only Related() can reject: one early-exit intersection test. Under
		// a window occupancy counts and intersections are over the full
		// domain, so only this vacuity argument stays sound (a pair disjoint
		// globally is disjoint in every window — the bound rules below are
		// not monotone under masking).
		return sharedFeatures(e1, e2, class, true) == 0
	}
	if 2*float64(min(o1.All, o2.All))/float64(o1.All+o2.All) < clause.MinStrength-pruneMargin {
		return true // even a full overlap cannot reach MinStrength (≤ 0 never prunes)
	}
	sigma := sharedFeatures(e1, e2, class, false)
	if sigma == 0 {
		return true
	}
	if 2*float64(sigma)/float64(o1.All+o2.All) < clause.MinStrength-pruneMargin {
		return true // rho is exactly 2|Σ|/(|Σ1|+|Σ2|)
	}
	pHi := min(o1.Pos, o2.Pos) + min(o1.Neg, o2.Neg)
	nHi := min(o1.Pos, o2.Neg) + min(o1.Neg, o2.Pos)
	return float64(max(pHi, nHi))/float64(sigma) < clause.MinScore-pruneMargin
}

// sharedFeatures returns |Σ1 ∩ Σ2| of the two entries' unions of class,
// reading only the words both unions occupy. With first it stops at the
// first shared word, so it is non-zero exactly when the unions intersect.
func sharedFeatures(e1, e2 *FunctionEntry, class feature.Class, first bool) int {
	u1, u2 := e1.union(class).Words(), e2.union(class).Words()
	n := 0
	for i := range bitvec.SharedWords(e1.wordOcc(class), e2.wordOcc(class)) {
		if n += bits.OnesCount64(u1[i] & u2[i]); first && n > 0 {
			break
		}
	}
	return n
}

// pairSeed derives the Monte Carlo seed of one candidate tuple from the
// framework seed and the pair's identity, so identical pairs get identical
// p-values regardless of query shape or enumeration order. The function
// keys embed the resolution, so the tuple identity is fully covered.
func pairSeed(base int64, key1, key2 string, class feature.Class) int64 {
	if key2 < key1 {
		key1, key2 = key2, key1
	}
	h := fnv.New64a()
	h.Write([]byte(key1))
	h.Write([]byte{0})
	h.Write([]byte(key2))
	h.Write([]byte{0, byte(class)})
	return base ^ int64(h.Sum64())
}

// shiftSeed derives the seed of the toroidal-shift sequence shared by every
// test at one spatial resolution (Framework.shifts).
func shiftSeed(base int64, sr spatial.Resolution) int64 {
	h := fnv.New64a()
	h.Write([]byte{'s', 'h', 'i', 'f', 't', byte(sr)})
	return base ^ int64(h.Sum64())
}
