package core

import (
	"path/filepath"
	"testing"

	"github.com/urbandata/datapolygamy/internal/stats"
)

// TestQueryCorrectionNarrows: BH/BY q-values are always >= the raw
// p-values, so a corrected query returns a subset of the uncorrected
// results, every returned relationship carries q >= p, and under
// Correction: none q equals p exactly.
func TestQueryCorrectionNarrows(t *testing.T) {
	f := stressFW(t)
	base := Query{Clause: Clause{Permutations: 30}}
	raw, rawStats, err := f.Query(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("fixture yields no relationships; the test would be vacuous")
	}
	for _, r := range raw {
		if r.QValue != r.PValue {
			t.Errorf("correction=none: q = %g != p = %g", r.QValue, r.PValue)
		}
	}
	rawSet := make(map[string]bool)
	for _, r := range raw {
		rawSet[r.Function1+"|"+r.Function2+"|"+r.Class.String()] = true
	}
	for _, corr := range []stats.Correction{stats.BH, stats.BY} {
		q := base
		q.Clause.Correction = corr
		rels, st, err := f.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Errorf("%v: corrected query hit the uncorrected cache entry", corr)
		}
		if st.Evaluated != rawStats.Evaluated {
			t.Errorf("%v: evaluated %d pairs, uncorrected evaluated %d (the tested family must not change)",
				corr, st.Evaluated, rawStats.Evaluated)
		}
		if len(rels) > len(raw) {
			t.Errorf("%v returned %d relationships, more than the uncorrected %d", corr, len(rels), len(raw))
		}
		for _, r := range rels {
			if r.QValue < r.PValue {
				t.Errorf("%v: q = %g < p = %g", corr, r.QValue, r.PValue)
			}
			if !rawSet[r.Function1+"|"+r.Function2+"|"+r.Class.String()] {
				t.Errorf("%v kept %s ~ %s, which the uncorrected query rejected", corr, r.Function1, r.Function2)
			}
			if !r.Significant {
				t.Errorf("%v returned an insignificant relationship", corr)
			}
		}
	}
}

// TestQueryMaxQFilter: MaxQ keeps only relationships at or below the
// cutoff, and an impossible cutoff empties the result without touching the
// stats of the tested family.
func TestQueryMaxQFilter(t *testing.T) {
	f := stressFW(t)
	// 200 permutations give the planted pairs p ~ 1/201, small enough to
	// survive the BH family-size penalty.
	all, _, err := f.Query(Query{Clause: Clause{Permutations: 200, Correction: stats.BH}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("fixture yields no BH-significant relationships at 200 permutations")
	}
	cut := all[0].QValue // at least one edge survives its own q as the cutoff
	rels, _, err := f.Query(Query{Clause: Clause{Permutations: 200, Correction: stats.BH, MaxQ: cut}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("MaxQ at an existing q-value filtered everything")
	}
	for _, r := range rels {
		if r.QValue > cut {
			t.Errorf("q = %g survived MaxQ = %g", r.QValue, cut)
		}
	}
	none, st, err := f.Query(Query{Clause: Clause{Permutations: 200, Correction: stats.BH, MaxQ: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("MaxQ = 1e-12 kept %d relationships", len(none))
	}
	if st.Significant == 0 {
		t.Error("MaxQ must filter output, not the Significant counter of the tested family")
	}
}

// TestQuerySignatureCoversCorrection: the correction and q cutoff are part
// of the canonical cache signature — queries differing only there must
// never share a cache entry.
func TestQuerySignatureCoversCorrection(t *testing.T) {
	base := Clause{Permutations: 30}
	variants := []Clause{
		{Permutations: 30, Correction: stats.BH},
		{Permutations: 30, Correction: stats.BY},
		{Permutations: 30, MaxQ: 0.01},
	}
	baseSig := querySignature(nil, nil, base)
	seen := map[string]bool{baseSig: true}
	for _, v := range variants {
		sig := querySignature(nil, nil, v)
		if seen[sig] {
			t.Errorf("clause %+v collides with an earlier signature", v)
		}
		seen[sig] = true
	}
}

// TestGraphCorrectedIncrementalEquivalence is the acceptance criterion:
// BuildGraph with Correction: bh yields q-values byte-identical between a
// from-scratch build and an incremental AddDataset-then-rebuild — even
// though the incremental build recomputes only the new data set's pairs,
// the q-values of *every* edge are re-adjusted over the grown family.
func TestGraphCorrectedIncrementalEquivalence(t *testing.T) {
	clause := Clause{Permutations: 30, Correction: stats.BH}

	// Incremental: three data sets, graph, then a fourth.
	f := newFW(t)
	wind, trips := plantedPair(10, randomHours(17, 40), nil)
	gusts, rides := plantedPair(11, randomHours(19, 40), randomHours(21, 20))
	gusts.Name, rides.Name = "gusts", "rides"
	for _, err := range []error{f.AddDataset(wind), f.AddDataset(trips), f.AddDataset(gusts)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	three, _ := f.RelGraph()
	if err := f.AddDataset(rides); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gst, err := f.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if gst.PairsReused != 3 || gst.PairsComputed != 3 {
		t.Errorf("incremental build stats = %+v, want 3 reused + 3 computed", gst)
	}
	inc, _ := f.RelGraph()

	// From scratch: all four data sets at once.
	f2 := stressFW(t)
	if _, err := f2.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	full, _ := f2.RelGraph()
	if !inc.Equal(full) {
		t.Fatal("incrementally maintained corrected graph differs from a from-scratch rebuild")
	}
	// Byte-identical includes the q-values (Edge equality covers QValue);
	// make that explicit, and check the family actually matters: growing
	// the corpus must be able to move existing q-values, which is why the
	// re-adjustment over the full cache exists at all.
	for i, e := range inc.Edges() {
		fe := full.Edges()[i]
		if e.QValue != fe.QValue {
			t.Errorf("edge %d q-value: incremental %g != from-scratch %g", i, e.QValue, fe.QValue)
		}
		if e.QValue < e.PValue {
			t.Errorf("edge %d: q = %g < p = %g", i, e.QValue, e.PValue)
		}
	}
	_ = three // the three-dataset graph is valid on its own; nothing to assert beyond building
}

// TestGraphCorrectedSaveLoadRoundTrip: a snapshot of a corrected graph
// restores the same edges and q-values, and keeps the candidate cache warm
// enough that the next build is a pure reuse.
func TestGraphCorrectedSaveLoadRoundTrip(t *testing.T) {
	clause := Clause{Permutations: 30, Correction: stats.BH}
	f := stressFW(t)
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	g, _ := f.RelGraph()
	path := filepath.Join(t.TempDir(), "corrected.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	f2 := stressFW(t)
	if err := f2.Load(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f2.Close() })
	g2, ok := f2.RelGraph()
	if !ok || !g2.Equal(g) {
		t.Fatal("corrected graph changed across a Save/Load round-trip")
	}
	st, err := f2.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 0 || st.PairsReused != 6 {
		t.Errorf("post-load build stats = %+v, want 6 reused", st)
	}
	g3, _ := f2.RelGraph()
	if !g3.Equal(g) {
		t.Error("post-load rebuild changed the corrected graph")
	}
}

// TestGraphCorrectionSubset: the BH graph's edges are a subset of the
// uncorrected graph's, each with q >= p — corpus-wide FDR control can only
// remove edges, never invent them.
func TestGraphCorrectionSubset(t *testing.T) {
	f := stressFW(t)
	if _, err := f.BuildGraph(Clause{Permutations: 200}); err != nil {
		t.Fatal(err)
	}
	rawG, _ := f.RelGraph()
	// Correction and MaxQ are selection-only: rebuilding under BH must
	// reuse every pair's cached Monte Carlo candidates and just re-select.
	bst, err := f.BuildGraph(Clause{Permutations: 200, Correction: stats.BH})
	if err != nil {
		t.Fatal(err)
	}
	if bst.PairsComputed != 0 || bst.PairsReused != 6 {
		t.Errorf("correction-only change build stats = %+v, want 6 reused pairs", bst)
	}
	bhG, _ := f.RelGraph()
	if bhG.NumEdges() == 0 {
		t.Fatal("BH graph is empty at 200 permutations; the subset check would be vacuous")
	}
	if bhG.NumEdges() > rawG.NumEdges() {
		t.Fatalf("BH graph has %d edges, uncorrected has %d", bhG.NumEdges(), rawG.NumEdges())
	}
	rawSet := make(map[string]bool)
	for _, e := range rawG.Edges() {
		rawSet[e.Function1+"|"+e.Function2+"|"+e.Class.String()] = true
	}
	for _, e := range bhG.Edges() {
		if !rawSet[e.Function1+"|"+e.Function2+"|"+e.Class.String()] {
			t.Errorf("BH edge %s ~ %s not present in the uncorrected graph", e.Function1, e.Function2)
		}
		if e.QValue < e.PValue {
			t.Errorf("BH edge q = %g < p = %g", e.QValue, e.PValue)
		}
	}
}
