package core

import (
	"slices"
	"testing"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// plannerFW builds a three-data-set corpus with planted relationships.
func plannerFW(t *testing.T) *Framework {
	t.Helper()
	f := newFW(t)
	wind, trips := plantedPair(41, randomHours(51, 120), randomHours(52, 120))
	gas := thirdDataset("gas", 42, randomHours(53, 120))
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	_ = f.AddDataset(gas)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
}

// bruteForce enumerates every candidate tuple of an all-pairs query itself
// — no planner — and pushes each one through the relationship layer
// (evaluatePair, hence the clause filters and the significance test). It
// returns the tuples that join their family and counts those prunePair
// skips and those whose test the oracle (oracleNotResolvable) finds cannot
// reach alpha, which it does not evaluate. It fails the test if a tuple
// prunePair would have skipped passes the clause filters: that is the
// planner's soundness, checked per tuple rather than inferred from equal
// totals. Under MinScore or MinStrength it also checks, on every tuple
// the planner keeps, that Measure's |Σ| equals the intersection prunePair
// counts. Its resolutions come from the data sets' native resolutions, not
// from the index the planner reads.
func bruteForce(t *testing.T, f *Framework, clause Clause) (cands []bruteCand, considered, skipped, notResolvable int) {
	t.Helper()
	classes := clauseClasses(clause)
	filters := clause
	filters.SkipSignificance = true
	names := f.Datasets()
	slices.Sort(names) // the engine orients every pair by data set name
	for i, a := range names {
		for _, b := range names[i+1:] {
			d1, d2 := f.datasets[a], f.datasets[b]
			var resolutions []Resolution
			for sr := spatial.ZipCode; sr <= spatial.City; sr++ {
				for tr := temporal.Hour; tr <= temporal.Month; tr++ {
					res := Resolution{sr, tr}
					if d1.SpatialRes.ConvertibleTo(sr) && d2.SpatialRes.ConvertibleTo(sr) &&
						d1.TemporalRes.ConvertibleTo(tr) && d2.TemporalRes.ConvertibleTo(tr) &&
						(clause.Resolutions == nil || slices.Contains(clause.Resolutions, res)) {
						resolutions = append(resolutions, res)
					}
				}
			}
			for _, res := range resolutions {
				winLo, winHi := 0, 0
				if clause.Windowed {
					winLo, winHi = windowSteps(f.timelines[res.Temporal], clause.WindowFrom, clause.WindowTo)
				}
				for _, e1 := range f.index.at(a, res) {
					for _, e2 := range f.index.at(b, res) {
						for _, class := range classes {
							considered++
							task := pairTask{e1: e1, e2: e2, class: class, winLo: winLo, winHi: winHi}
							if prunePair(e1, e2, class, clause) || clause.Windowed && winLo == winHi {
								skipped++
								if c, in, err := f.evaluatePair(task, filters); err != nil {
									t.Fatal(err)
								} else if in {
									t.Errorf("unsound prune: %s ~ %s (%v) is skipped by prunePair but passes the clause: tau=%g rho=%g",
										e1.Key, e2.Key, class, c.tau, c.rho)
								}
								continue
							}
							if oracleNotResolvable(f, e1, e2, class, clause) {
								notResolvable++
								continue
							}
							if !clause.Windowed && (clause.MinScore > 0 || clause.MinStrength > 0) {
								// prunePair counted σ to bound this tuple; the
								// evaluator's one pass must find the same |Σ|,
								// and so must a dense count of every word.
								u1, u2 := e1.set(class).All(), e2.set(class).All()
								m := relationship.Measure(e1.set(class), e2.set(class), e1.wordOcc(class), e2.wordOcc(class), e1.occ(class).All, e2.occ(class).All)
								if want := u1.AndCount(u2); m.SigmaBoth != want || sharedFeatures(e1, e2, class, false) != want {
									t.Errorf("%s ~ %s (%v): Measure |Σ| = %d, planner's count %d, dense AndCount %d",
										e1.Key, e2.Key, class, m.SigmaBoth, sharedFeatures(e1, e2, class, false), want)
								}
							}
							c, in, err := f.evaluatePair(task, clause)
							if err != nil {
								t.Fatal(err)
							}
							if in {
								cands = append(cands, bruteCand{e1, e2, c})
							}
						}
					}
				}
			}
		}
	}
	return cands, considered, skipped, notResolvable
}

// bruteCand is one tuple bruteForce found related, with its entries.
type bruteCand struct {
	e1, e2 *FunctionEntry
	c      candidate
}

// TestPlannerParity is the planner's core contract: for every query in the
// matrix, every tuple the planner skips is one the clause filter rejects
// when evaluated anyway, and the planned query returns exactly the
// brute-force set — same pairs, same measures, same p-values.
func TestPlannerParity(t *testing.T) {
	f := plannerFW(t)
	matrix := []struct {
		name   string
		clause Clause
	}{
		{"default", Clause{Permutations: 80}},
		{"min_score", Clause{Permutations: 80, MinScore: 0.6}},
		{"min_strength", Clause{Permutations: 80, MinStrength: 0.5}},
		{"min_strength_high", Clause{Permutations: 80, MinStrength: 0.95}},
		{"score_and_strength", Clause{Permutations: 80, MinScore: 0.3, MinStrength: 0.3}},
		{"salient_only", Clause{Permutations: 80, Classes: []feature.Class{feature.Salient}}},
		{"extreme_only", Clause{Permutations: 80, Classes: []feature.Class{feature.Extreme}}},
		{"skip_significance", Clause{SkipSignificance: true, MinScore: 0.4}},
		{"week_city", Clause{Permutations: 80, MinScore: 0.2,
			Resolutions: []Resolution{{spatial.City, temporal.Week}}}},
	}
	totalPruned, totalNotResolvable := 0, 0
	for _, tc := range matrix {
		t.Run(tc.name, func(t *testing.T) {
			planned, pstats, err := f.Query(Query{Clause: tc.clause})
			if err != nil {
				t.Fatal(err)
			}
			cands, considered, skipped, notResolvable := bruteForce(t, f, tc.clause)
			if pstats.PairsConsidered != considered {
				t.Errorf("PairsConsidered %d, brute force enumerated %d", pstats.PairsConsidered, considered)
			}
			if pstats.Pruned != skipped {
				t.Errorf("Pruned %d, prunePair skipped %d", pstats.Pruned, skipped)
			}
			if pstats.Evaluated != len(cands) {
				t.Errorf("Evaluated %d, brute force has %d related tuples", pstats.Evaluated, len(cands))
			}
			if pstats.NotResolvable != notResolvable {
				t.Errorf("NotResolvable %d, the oracle finds %d tuples not resolvable", pstats.NotResolvable, notResolvable)
			}
			sel := selectionFromClause(tc.clause)
			fam := make([]candidate, len(cands))
			for i, bc := range cands {
				fam[i] = bc.c
			}
			qs := qValues([][]candidate{fam}, sel)
			want := map[string]Relationship{}
			for i, bc := range cands {
				if q := qs[i]; sel.keeps(q) {
					e1, e2, c := bc.e1, bc.e2, bc.c
					want[e1.Key+"|"+e2.Key+"|"+c.class.String()] = Relationship{
						Function1: e1.Key, Function2: e2.Key, Dataset1: e1.Dataset, Dataset2: e2.Dataset,
						Spec1: e1.SpecName, Spec2: e2.SpecName, Res: e1.Res, Class: c.class,
						Score: c.tau, Strength: c.rho, PValue: c.p(), QValue: q, Significant: sel.significant(q),
					}
				}
			}
			if len(planned) != len(want) {
				t.Fatalf("planned query: %d relationships, brute force: %d", len(planned), len(want))
			}
			for _, r := range planned {
				if w := want[r.Function1+"|"+r.Function2+"|"+r.Class.String()]; r != w {
					t.Errorf("relationship differs:\n  planned:     %v\n  brute force: %v", r, w)
				}
			}
			totalPruned += pstats.Pruned
			totalNotResolvable += notResolvable
		})
	}
	if totalPruned == 0 {
		t.Error("planner pruned nothing across the whole query matrix")
	}
	if totalNotResolvable == 0 {
		t.Error("no tuple across the whole query matrix was left out as not resolvable")
	}
}

// TestPlannerPrunesOnFilteredQuery pins the acceptance criterion: a
// clause-filtered query over this corpus must report Pruned > 0.
func TestPlannerPrunesOnFilteredQuery(t *testing.T) {
	f := plannerFW(t)
	_, stats, err := f.Query(Query{Clause: Clause{
		SkipSignificance: true,
		MinStrength:      0.9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned == 0 {
		t.Error("MinStrength=0.9 query pruned nothing")
	}
	if stats.Pruned+stats.Evaluated > stats.PairsConsidered {
		t.Errorf("accounting broken: pruned %d + evaluated %d > considered %d",
			stats.Pruned, stats.Evaluated, stats.PairsConsidered)
	}
}

// TestPrunePairBounds exercises the planner's decision procedure directly
// on the planted corpus's entries.
func TestPrunePairBounds(t *testing.T) {
	f := plannerFW(t)
	res := Resolution{spatial.City, temporal.Hour}
	entries := f.Entries("trips", res)
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	e := entries[0]
	// Identical entries: sigma equals occupancy, rho = 1 — never prunable.
	if prunePair(e, e, feature.Salient, Clause{MinStrength: 0.99}) {
		t.Error("self-pair with rho=1 pruned")
	}
	// A clause no pair can satisfy (> max rho bound) must prune.
	other := f.Entries("wind", res)[0]
	o1, o2 := e.occ(feature.Salient), other.occ(feature.Salient)
	if o1.All == 0 || o2.All == 0 {
		t.Fatal("planted entries have empty salient sets")
	}
	maxRho := 2 * float64(min(o1.All, o2.All)) / float64(o1.All+o2.All)
	if !prunePair(e, other, feature.Salient, Clause{MinStrength: maxRho + 0.01}) {
		t.Errorf("pair with rho bound %.3f not pruned at MinStrength %.3f", maxRho, maxRho+0.01)
	}
}

// TestPairSeedStableAcrossQueryShapes is the deterministic-seed contract:
// the same pair gets the same Monte Carlo p-value whether it is evaluated
// in a corpus-wide query or a targeted two-data-set query.
func TestPairSeedStableAcrossQueryShapes(t *testing.T) {
	f := plannerFW(t)
	clause := Clause{Permutations: 120}
	all, _, err := f.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	targeted, _, err := f.Query(Query{
		Sources: []string{"trips"}, Targets: []string{"wind"}, Clause: clause,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targeted) == 0 {
		t.Skip("no significant trips/wind relationships in this corpus")
	}
	byKey := map[string]Relationship{}
	for _, r := range all {
		byKey[r.Function1+"|"+r.Function2+"|"+r.Class.String()] = r
	}
	checked := 0
	for _, r := range targeted {
		full, ok := byKey[r.Function1+"|"+r.Function2+"|"+r.Class.String()]
		if !ok {
			t.Errorf("targeted relationship %v absent from corpus-wide query", r)
			continue
		}
		if full.PValue != r.PValue {
			t.Errorf("%s ~ %s: p-value %g (corpus-wide) vs %g (targeted); seed depends on query shape",
				r.Function1, r.Function2, full.PValue, r.PValue)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no common relationships compared")
	}
}

func TestPairSeedSymmetry(t *testing.T) {
	s1 := pairSeed(7, "a/x@city,hour", "b/y@city,hour", feature.Salient)
	s2 := pairSeed(7, "b/y@city,hour", "a/x@city,hour", feature.Salient)
	if s1 != s2 {
		t.Error("pairSeed must be symmetric in the key order")
	}
	if pairSeed(7, "a/x@city,hour", "b/y@city,hour", feature.Extreme) == s1 {
		t.Error("pairSeed must differ across classes")
	}
	if pairSeed(8, "a/x@city,hour", "b/y@city,hour", feature.Salient) == s1 {
		t.Error("pairSeed must depend on the base seed")
	}
}
