package core

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
)

// graphClause is the cheap test clause shared by the graph tests.
func graphClause() Clause { return Clause{Permutations: 30} }

// relationshipEdge converts a query row into the graph edge it must equal.
func relationshipEdge(r Relationship) relgraph.Edge {
	return relgraph.Edge{
		Function1: r.Function1, Function2: r.Function2,
		Dataset1: r.Dataset1, Dataset2: r.Dataset2,
		Spec1: r.Spec1, Spec2: r.Spec2,
		SRes: r.Res.Spatial, TRes: r.Res.Temporal, Class: r.Class,
		Tau: r.Score, Rho: r.Strength, PValue: r.PValue, QValue: r.QValue,
	}
}

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
// exactly the given (empty) pairs — which, unlike a published record's, may
// be ones no BuildGraph could have cached. A record holds each pair once, so
// with repeat the one pair's table entry is written twice, spliced after
// the encoding of no pair.
func handGraphSection(f *Framework, pairs []graphPair, repeat bool) []byte {
	f.mu.RLock()
	defer f.mu.RUnlock()
	encode := func(pairs []graphPair) []byte {
		fams := map[graphPair][]candidate{}
		for _, k := range pairs {
			fams[k] = nil
		}
		return f.encodeFlatGraphLocked(&graphRecord{fams: fams})
	}
	if !repeat {
		return encode(pairs)
	}
	none, one := encode(nil), encode(pairs)
	entry := one[len(none):]
	out := binary.LittleEndian.AppendUint64(slices.Clone(none[:len(none)-8]), 2)
	return append(append(out, entry...), entry...)
}

// TestGraphSaveLoadRoundTrip asserts that a Save/Load round-trip preserves
// the graph exactly and keeps its families warm, and that a graph section
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
	// The loaded families must make the next build a pure reuse.
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
	sections := []struct {
		name, want string
		payload    []byte
	}{
		{"graph built under another seed", "seed", handGraphSection(f4, nil, false)},
		// Pairs stored in non-canonical order would dodge the duplicate check
		// and miss BuildGraph's canonical cache lookups.
		{"non-canonical pair order", "canonical", handGraphSection(f, []graphPair{{A: "wind", B: "trips"}}, false)},
		{"unregistered data set", "unregistered", handGraphSection(f, []graphPair{{A: "trips", B: "zebra"}}, false)},
		{"repeated pair", "repeats", handGraphSection(f, []graphPair{{A: "trips", B: "wind"}}, true)},
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
	if _, ok := f.GraphClause(); ok {
		t.Error("GraphClause should report no graph before BuildGraph")
	}
}

// TestBuildGraphRecordsPlannerCounters: a graph build plans through the
// same planPairs as a query, so one BuildGraph moves each planner counter
// and the evaluated counter by its GraphStats value, and a pure reuse,
// which plans nothing, moves none.
func TestBuildGraphRecordsPlannerCounters(t *testing.T) {
	f := plannerFW(t)
	counters := []*obsv.Counter{mPairsConsidered, mPairsPruned, mPairsNotResolvable, mPairsEvaluated}
	names := []string{"considered", "pruned", "not resolvable", "evaluated"}
	read := func() []uint64 {
		v := make([]uint64, len(counters))
		for i, c := range counters {
			v[i] = c.Value()
		}
		return v
	}
	before := read()
	st, err := f.BuildGraph(graphClause())
	if err != nil {
		t.Fatal(err)
	}
	after := read()
	want := []int{st.PairsConsidered, st.Pruned, st.NotResolvable, st.Evaluated}
	for i, name := range names {
		if w := want[i]; w == 0 || after[i]-before[i] != uint64(w) {
			t.Errorf("the %s counter moved by %d, GraphStats says %d", name, after[i]-before[i], w)
		}
	}
	if _, err := f.BuildGraph(graphClause()); err != nil {
		t.Fatal(err)
	}
	if again := read(); !reflect.DeepEqual(again, after) {
		t.Errorf("a pure reuse moved the planner counters from %v to %v", after, again)
	}
}

// TestGraphClauseChangeRebuilds asserts the family store is keyed by the
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

// TestGraphResetOnTimeRangeExtension: a data set that extends the corpus
// time range forward leaves the materialized graph in place while AddDataset
// registers it. The BuildIndex after it resets only the families whose
// supporting state changed, and the BuildGraph after that gives the stats and
// graph of the IngestDataset path and the graph of a scratch build.
func TestGraphResetOnTimeRangeExtension(t *testing.T) {
	late := func() *dataset.Dataset {
		d, _ := plantedPair(12, randomHours(23, 40), nil)
		d.Name = "late"
		for i := range d.Tuples {
			d.Tuples[i].TS += 365 * 24 * 3600 // extend the corpus range
		}
		return d
	}
	corpus := func(extra ...*dataset.Dataset) *Framework {
		f := newFW(t)
		wind, trips := plantedPair(10, randomHours(17, 40), nil)
		for _, d := range append([]*dataset.Dataset{wind, trips}, extra...) {
			if err := f.AddDataset(d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.BuildGraph(graphClause()); err != nil {
			t.Fatal(err)
		}
		return f
	}
	refresh := func(f *Framework) (GraphStats, *relgraph.Graph) {
		t.Helper()
		st, err := f.BuildGraph(graphClause())
		if err != nil {
			t.Fatal(err)
		}
		st.WallDuration = 0
		g, _ := f.RelGraph()
		return st, g
	}

	added := corpus()
	if err := added.AddDataset(late()); err != nil {
		t.Fatal(err)
	}
	if _, ok := added.RelGraph(); !ok {
		t.Error("AddDataset dropped the graph; it only registers")
	}
	if _, err := added.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	st, g := refresh(added)
	if st.PairsComputed+st.PairsReused != 3 || st.PairsComputed < 2 {
		t.Errorf("post-extension build stats = %+v, want the 3 pairs, the new data set's 2 computed", st)
	}

	ingested := corpus()
	if _, err := ingested.IngestDataset(late()); err != nil {
		t.Fatal(err)
	}
	wantSt, wantG := refresh(ingested)
	if st != wantSt {
		t.Errorf("graph stats differ:\n AddDataset+BuildIndex %+v\n IngestDataset         %+v", st, wantSt)
	}
	if !g.Equal(wantG) {
		t.Error("graph differs between the AddDataset and IngestDataset paths")
	}
	if scratchG, _ := corpus(late()).RelGraph(); !g.Equal(scratchG) {
		t.Error("graph differs between the AddDataset path and a scratch build")
	}
}

// permutationsRun reads the process-wide Monte Carlo permutation counter,
// the polygamy_montecarlo_permutations_total series of /metrics.
func permutationsRun(t *testing.T) uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := obsv.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "polygamy_montecarlo_permutations_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no permutation counter on the default registry")
	return 0
}

// queryCounters is every QueryStats counter that must not depend on what
// the family store held.
func queryCounters(st QueryStats) [6]int {
	return [6]int{st.PairsConsidered, st.Pruned, st.Evaluated, st.Significant, st.Kept, b2i(st.CacheHit)}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestQueryReusesGraphFamilies: after BuildGraph, a pairwise or all-pairs
// query under the graph's clause — under any correction — reads the tested
// families the build stored and runs no permutation, on the built framework
// and on one opened from its snapshot (the follower path), yet answers
// exactly like a fresh framework, stats counters included.
func TestQueryReusesGraphFamilies(t *testing.T) {
	f := stressFW(t)
	if _, err := f.BuildGraph(Clause{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "families.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, OpenOptions{Options: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })

	rows := 0
	for _, corr := range []stats.Correction{stats.None, stats.BH} {
		for _, q := range []Query{
			{Sources: []string{"wind"}, Targets: []string{"trips"}},
			{},
		} {
			q.Clause.Correction = corr
			want, wantSt, err := stressFW(t).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rows += len(want)
			for name, fw := range map[string]*Framework{"built": f, "opened": opened} {
				before := permutationsRun(t)
				got, st, err := fw.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if n := permutationsRun(t) - before; n != 0 {
					t.Errorf("%s %s: query ran %d permutations, want 0", name, q.Signature(), n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: answer differs from a fresh framework's", name, q.Signature())
				}
				if queryCounters(st) != queryCounters(wantSt) {
					t.Errorf("%s %s: stats %+v, fresh framework %+v", name, q.Signature(), st, wantSt)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("every query came back empty; the comparison is vacuous")
	}
}

// TestSaveWritesPublishedFamilies: a query under the graph's clause stores
// families for a data set ingested after the last BuildGraph. They are not
// part of the published graph, so Save must leave them out: the reopened
// graph equals the published one, and its first build computes those pairs.
func TestSaveWritesPublishedFamilies(t *testing.T) {
	clause := graphClause()
	f, ds := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	published, _ := f.RelGraph()
	_, echo := plantedPair(30, randomHours(31, 60), nil) // a copy of trips
	echo.Name = "echo"
	if _, err := f.IngestDataset(echo); err != nil {
		t.Fatal(err)
	}
	rels, _, err := f.Query(Query{Sources: []string{"echo"}, Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("the ingested copy relates to nothing; the test would be vacuous")
	}
	path := filepath.Join(t.TempDir(), "published.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, OpenOptions{Options: f.opts, Datasets: append(ds, echo)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })
	if g, ok := opened.RelGraph(); !ok || !g.Equal(published) {
		t.Error("the reopened graph differs from the published one")
	}
	st, err := opened.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 2 || st.PairsReused != 1 {
		t.Errorf("first build after Open = %+v, want the ingested data set's 2 pairs computed", st)
	}
}
