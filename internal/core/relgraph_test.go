package core

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/store"
)

// graphClause is the cheap test clause shared by the graph tests.
func graphClause() Clause { return Clause{Permutations: 30} }

// TestGraphQueryParity asserts the ISSUE's parity criterion: for every
// data set pair, the edges in the materialized graph are byte-identical
// (tau, rho, p-value) to a direct Query for that pair under the same
// clause and framework seed.
func TestGraphQueryParity(t *testing.T) {
	f := stressFW(t)
	clause := graphClause()
	st, err := f.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 6 || st.PairsComputed != 6 || st.PairsReused != 0 {
		t.Fatalf("build stats = %+v", st)
	}
	g, ok := f.RelGraph()
	if !ok {
		t.Fatal("RelGraph not available after BuildGraph")
	}
	if g.NumEdges() == 0 {
		t.Fatal("graph has no edges; fixtures should relate")
	}
	if st.Edges != g.NumEdges() {
		t.Errorf("stats.Edges = %d, graph has %d", st.Edges, g.NumEdges())
	}

	names := f.Datasets()
	total := 0
	for i, a := range names {
		for _, b := range names[i+1:] {
			rels, _, err := f.Query(Query{Sources: []string{a}, Targets: []string{b}, Clause: clause})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]relgraph.Edge, len(rels))
			for j, r := range rels {
				want[j] = relationshipEdge(r)
			}
			var got []relgraph.Edge
			for _, e := range g.DatasetEdges(a) {
				if e.Dataset1 == b || e.Dataset2 == b {
					got = append(got, e)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("pair %s|%s: graph has %d edges, query returned %d", a, b, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("pair %s|%s edge %d: graph %+v != query %+v", a, b, j, got[j], want[j])
				}
			}
			total += len(want)
		}
	}
	if total != g.NumEdges() {
		t.Errorf("pairwise queries found %d edges, graph has %d", total, g.NumEdges())
	}
}

// TestGraphIncrementalEquivalence asserts that incremental maintenance —
// AddDataset, BuildIndex, BuildGraph — produces exactly the graph a
// from-scratch rebuild over the full corpus would.
func TestGraphIncrementalEquivalence(t *testing.T) {
	clause := graphClause()

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
	if err := f.AddDataset(rides); err != nil {
		t.Fatal(err)
	}
	ist, err := f.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ist.DatasetsIndexed != 1 {
		t.Fatalf("expected incremental index of 1 data set, got %+v (fixture extends the time range?)", ist)
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
		t.Error("incrementally maintained graph differs from a from-scratch rebuild")
	}
}

// handGraphSection lays out a graph section under f's origin holding
// exactly the given (empty) pairs — which, unlike encodeFlatGraphLocked's,
// may be ones no BuildGraph could have cached.
func handGraphSection(f *Framework, sig string, pairs []graphPair) []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.flatGraphSectionLocked(sig, selectionFromClause(Clause{}), Clause{}, pairs, nil)
}

// TestGraphSaveLoadRoundTrip asserts that a Save/Load round-trip preserves
// the graph exactly and keeps the pair cache warm, and that a graph section
// this framework could not have produced is refused.
func TestGraphSaveLoadRoundTrip(t *testing.T) {
	f := stressFW(t)
	clause := graphClause()
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	g, _ := f.RelGraph()
	path := filepath.Join(t.TempDir(), "graph.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	f2 := stressFW(t)
	if err := f2.Load(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f2.Close() })
	g2, ok := f2.RelGraph()
	if !ok {
		t.Fatal("RelGraph not available after Load")
	}
	if !g2.Equal(g) {
		t.Error("Save/Load round-trip changed the graph")
	}
	// The loaded pair cache must make the next build a pure reuse.
	st, err := f2.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 0 || st.PairsReused != 6 {
		t.Errorf("post-load build stats = %+v, want 6 reused", st)
	}
	g3, _ := f2.RelGraph()
	if !g3.Equal(g) {
		t.Error("post-load rebuild changed the graph")
	}

	// A framework missing the snapshot's data sets must reject the load.
	f3 := newFW(t)
	wind, _ := plantedPair(10, randomHours(17, 40), nil)
	if err := f3.AddDataset(wind); err != nil {
		t.Fatal(err)
	}
	if err := f3.Load(path); err == nil {
		t.Error("expected Load error for unregistered data sets")
	}

	// A framework with a different Monte Carlo seed must reject the load:
	// its own BuildGraph could never have produced these edges, so reusing
	// them would break parity with Query.
	f4, err := New(Options{City: testCity(t), Workers: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	w2, t2 := plantedPair(10, randomHours(17, 40), nil)
	g2n, r2 := plantedPair(11, randomHours(19, 40), randomHours(21, 20))
	g2n.Name, r2.Name = "gusts", "rides"
	for _, e := range []error{f4.AddDataset(w2), f4.AddDataset(t2), f4.AddDataset(g2n), f4.AddDataset(r2)} {
		if e != nil {
			t.Fatal(e)
		}
	}
	if err := f4.Load(path); err == nil {
		t.Error("expected Load error for a mismatched framework seed")
	}

	// The graph section is held to the same rules under a manifest that
	// matches: each payload below is spliced into f's own snapshot, must be
	// refused, and must leave the loaded graph as it was.
	sig := graphSignature(clause)
	sections := []struct {
		name, want string
		payload    []byte
	}{
		{"graph built under another seed", "seed", handGraphSection(f4, sig, nil)},
		// Pairs stored in non-canonical order would dodge the duplicate check
		// and miss BuildGraph's canonical cache lookups.
		{"non-canonical pair order", "canonical", handGraphSection(f, sig, []graphPair{{A: "wind", B: "trips"}})},
		{"unregistered data set", "unregistered", handGraphSection(f, sig, []graphPair{{A: "trips", B: "zebra"}})},
		{"repeated pair", "repeats", handGraphSection(f, sig, []graphPair{{A: "trips", B: "wind"}, {A: "trips", B: "wind"}})},
	}
	for _, tc := range sections {
		err := f2.Load(splice(t, path, store.SectionGraph, tc.payload))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if g4, ok := f2.RelGraph(); !ok || !g4.Equal(g) {
			t.Errorf("%s: refused Load changed the published graph", tc.name)
		}
	}
}

func TestBuildGraphRequiresIndex(t *testing.T) {
	f := newFW(t)
	if _, err := f.BuildGraph(graphClause()); err == nil {
		t.Error("expected BuildGraph error before BuildIndex")
	}
	if _, ok := f.RelGraph(); ok {
		t.Error("RelGraph should not be available before BuildGraph")
	}
	f.mu.RLock()
	_, _, err := f.encodeFlatGraphLocked()
	f.mu.RUnlock()
	if err == nil {
		t.Error("expected a graph section encoding error before BuildGraph")
	}
}

// TestGraphClauseChangeRebuilds asserts the pair cache is keyed by the
// clause: a different clause forces a full recompute, and repeating a
// clause is a pure reuse.
func TestGraphClauseChangeRebuilds(t *testing.T) {
	f := stressFW(t)
	if _, err := f.BuildGraph(graphClause()); err != nil {
		t.Fatal(err)
	}
	st, err := f.BuildGraph(Clause{Permutations: 30, MinScore: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 6 || st.PairsReused != 0 {
		t.Errorf("clause change build stats = %+v, want full recompute", st)
	}
	st, err = f.BuildGraph(Clause{Permutations: 30, MinScore: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 0 || st.PairsReused != 6 {
		t.Errorf("repeat build stats = %+v, want pure reuse", st)
	}
}

// TestGraphResetOnTimeRangeExtension asserts that a data set extending the
// corpus time range — which forces a full index rebuild — also drops the
// materialized graph, mirroring the index contract.
func TestGraphResetOnTimeRangeExtension(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(10, randomHours(17, 40), nil)
	for _, err := range []error{f.AddDataset(wind), f.AddDataset(trips)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(graphClause()); err != nil {
		t.Fatal(err)
	}
	late, _ := plantedPair(12, randomHours(23, 40), nil)
	late.Name = "late"
	for i := range late.Tuples {
		late.Tuples[i].TS += 365 * 24 * 3600 // extend the corpus range
	}
	if err := f.AddDataset(late); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.RelGraph(); ok {
		t.Error("graph should be dropped when the corpus time range extends")
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	st, err := f.BuildGraph(graphClause())
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 3 || st.PairsReused != 0 {
		t.Errorf("post-reset build stats = %+v, want full recompute of 3 pairs", st)
	}
}
