package core

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// stressFW builds a four-data-set framework for the concurrency tests.
func stressFW(t *testing.T) *Framework {
	t.Helper()
	f := newFW(t)
	wind, trips := plantedPair(10, randomHours(17, 40), nil)
	gusts, rides := plantedPair(11, randomHours(19, 40), randomHours(21, 20))
	gusts.Name, rides.Name = "gusts", "rides"
	for _, add := range []error{
		f.AddDataset(wind), f.AddDataset(trips), f.AddDataset(gusts), f.AddDataset(rides),
	} {
		if add != nil {
			t.Fatal(add)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
}

// stressQueries is a mixed workload: overlapping signatures, different
// shapes, cached and uncached, with and without significance testing.
func stressQueries() []Query {
	hourCity := Resolution{Spatial: spatial.City, Temporal: temporal.Hour}
	weekCity := Resolution{Spatial: spatial.City, Temporal: temporal.Week}
	return []Query{
		{Clause: Clause{Permutations: 30}},
		{Sources: []string{"wind"}, Clause: Clause{Permutations: 30}},
		{Clause: Clause{SkipSignificance: true}},
		{Clause: Clause{Permutations: 30, MinScore: 0.5}},
		{Sources: []string{"gusts"}, Targets: []string{"rides"},
			Clause: Clause{Permutations: 30, Classes: []feature.Class{feature.Extreme, feature.Salient}}},
		{Clause: Clause{SkipSignificance: true, Resolutions: []Resolution{hourCity, weekCity}}},
		{Sources: []string{"trips", "wind"}, Clause: Clause{Permutations: 30, MinStrength: 0.2}},
	}
}

// TestConcurrentQueryStress runs parallel Query calls — identical and
// distinct signatures interleaved — against one Framework and verifies
// every result matches an independently built framework's sequential
// answers. Run under -race this is the engine's thread-safety gate.
func TestConcurrentQueryStress(t *testing.T) {
	f := stressFW(t)
	base := stressFW(t) // independent framework: sequential ground truth
	queries := stressQueries()
	want := make([][]Relationship, len(queries))
	for i, q := range queries {
		rels, _, err := base.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rels
	}

	const goroutines = 16
	const rounds = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Offset the order per goroutine so identical and distinct
				// signatures overlap in flight.
				for i := range queries {
					qi := (i + g) % len(queries)
					rels, _, err := f.Query(queries[qi])
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(rels, want[qi]) {
						t.Errorf("goroutine %d query %d: concurrent result diverges from sequential", g, qi)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSingleflightDedup: N identical queries issued concurrently against a
// cold cache must trigger exactly one evaluation; every other caller gets
// a cache hit (coalesced while the leader runs, plain afterwards).
func TestSingleflightDedup(t *testing.T) {
	f := stressFW(t)
	q := Query{Clause: Clause{Permutations: 100}}

	const goroutines = 12
	var wg sync.WaitGroup
	var evaluations, hits, coalesced atomic.Int64
	start := make(chan struct{})
	results := make([][]Relationship, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rels, stats, err := f.Query(q)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = rels
			if stats.CacheHit {
				hits.Add(1)
				if stats.Coalesced {
					coalesced.Add(1)
				}
			} else {
				evaluations.Add(1)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := evaluations.Load(); n != 1 {
		t.Errorf("evaluations = %d, want exactly 1 (singleflight)", n)
	}
	if n := hits.Load(); n != goroutines-1 {
		t.Errorf("cache hits = %d, want %d", n, goroutines-1)
	}
	t.Logf("hits=%d coalesced=%d", hits.Load(), coalesced.Load())
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(results[g], results[0]) {
			t.Fatalf("goroutine %d saw a different result set", g)
		}
	}
}

// TestMemoEntryFailure: callers that find a memo entry wait for it and get
// its error when its evaluation failed, and once the failed entry has left
// the memo the next caller evaluates afresh. The in-flight entry is planted
// here, standing in for a caller whose evaluation fails.
func TestMemoEntryFailure(t *testing.T) {
	f := stressFW(t)
	q := Query{Clause: Clause{Permutations: 30}}
	sig := querySignature(f.order, f.order, q.Clause)
	failed := errors.New("evaluation failed")
	entry := &cachedResult{done: make(chan struct{})}
	f.cacheMu.Lock()
	f.cache[sig] = entry
	f.cacheMu.Unlock()

	const waiters = 4
	errs := make(chan error, waiters)
	for range waiters {
		go func() {
			_, _, err := f.Query(q)
			errs <- err
		}()
	}
	entry.err = failed
	close(entry.done)
	for range waiters {
		if err := <-errs; err != failed {
			t.Errorf("waiter got %v, want the entry's error", err)
		}
	}

	f.cacheMu.Lock()
	delete(f.cache, sig)
	f.cacheMu.Unlock()
	if _, stats, err := f.Query(q); err != nil || stats.CacheHit {
		t.Fatalf("after the failed entry left: hit=%t err=%v, want a fresh evaluation", stats.CacheHit, err)
	}
	if _, stats, err := f.Query(q); err != nil || !stats.CacheHit || stats.Coalesced {
		t.Fatalf("repeat: hit=%t coalesced=%t err=%v, want a plain hit", stats.CacheHit, stats.Coalesced, err)
	}
}

// TestQuerySignaturePinned pins the signature of two restricted clauses to
// the strings the engine produced while a clause could still name its test
// kind or turn the Monte Carlo early stop off. The kind=0 and
// exhaustive=false fields stay, so a query's router home and the
// family-store key a snapshot's graph section carries are still the keys
// its clause signs to.
func TestQuerySignaturePinned(t *testing.T) {
	for _, c := range []struct {
		sources, targets []string
		clause           Clause
		want             string
	}{
		{nil, nil, Clause{},
			"s=|t=|score=0|strength=0|alpha=0|perms=0|skip=false|kind=0|corr=none|maxq=0|exhaustive=false|classes=salient;extreme|res=all|win=none"},
		{[]string{"weather", "taxi", "taxi"}, []string{"citibike"}, Clause{
			MinScore: 0.6, MinStrength: 0.25, Alpha: 0.01, Permutations: 500, Correction: stats.BH, MaxQ: 0.1,
			Classes:     []feature.Class{feature.Extreme, feature.Salient},
			Resolutions: []Resolution{{Spatial: spatial.Neighborhood, Temporal: temporal.Day}, {Spatial: spatial.City, Temporal: temporal.Hour}},
			Windowed:    true, WindowFrom: 1338508800, WindowTo: 1346371200,
		}, "s=taxi,weather|t=citibike|score=0.6|strength=0.25|alpha=0.01|perms=500|skip=false|kind=0|corr=bh|maxq=0.1|exhaustive=false|classes=salient;extreme|res=(day, neighborhood);(hour, city)|win=1338508800:1346371200"},
	} {
		if got := querySignature(c.sources, c.targets, c.clause); got != c.want {
			t.Errorf("signature\n got %s\nwant %s", got, c.want)
		}
	}
	if got, want := graphSignature(Clause{Permutations: 1000, Correction: stats.BY}),
		"s=|t=|score=0|strength=0|alpha=0|perms=1000|skip=false|kind=0|corr=none|maxq=0|exhaustive=false|classes=salient;extreme|res=all|win=none"; got != want {
		t.Errorf("graph signature\n got %s\nwant %s", got, want)
	}
}

// TestClauseValidate: Query and BuildGraph reject a clause outside its
// domain before anything else, indexed or not, and accept its edges.
func TestClauseValidate(t *testing.T) {
	f := newFW(t)
	for _, c := range []struct {
		clause Clause
		field  string // "" => valid
	}{
		{Clause{}, ""},
		{Clause{Alpha: 0.999, Permutations: 1_000_000_000, MaxQ: 2, MinScore: -1}, ""},
		{Clause{Windowed: true, WindowFrom: 5, WindowTo: 5}, ""},
		{Clause{Alpha: 1}, "alpha"},
		{Clause{Alpha: 3}, "alpha"},
		{Clause{Alpha: -0.05}, "alpha"},
		{Clause{Alpha: math.NaN()}, "alpha"},
		{Clause{Permutations: -5}, "permutations"},
		{Clause{Permutations: 2_000_000_000}, "permutations"},
		{Clause{MaxQ: -1}, "max_q"},
		{Clause{MinScore: math.Inf(1)}, "score"},
		{Clause{MinStrength: math.NaN()}, "strength"},
		{Clause{Windowed: true, WindowFrom: 6, WindowTo: 5}, "window"},
		{Clause{Correction: 7}, "correction"},
	} {
		err := c.clause.Validate()
		if (err == nil) != (c.field == "") || err != nil && !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %q", c.clause, err, c.field)
		}
		if c.field == "" {
			continue
		}
		if _, _, qerr := f.Query(Query{Clause: c.clause}); qerr == nil || qerr.Error() != err.Error() {
			t.Errorf("%+v: Query err = %v, want %v", c.clause, qerr, err)
		}
		if _, gerr := f.BuildGraph(c.clause); gerr == nil || gerr.Error() != err.Error() {
			t.Errorf("%+v: BuildGraph err = %v, want %v", c.clause, gerr, err)
		}
	}
}

// TestQuerySignatureCanonicalisation: permuted clause spellings of the
// same query must share one cache entry.
func TestQuerySignatureCanonicalisation(t *testing.T) {
	r1 := Resolution{Spatial: spatial.City, Temporal: temporal.Hour}
	r2 := Resolution{Spatial: spatial.City, Temporal: temporal.Week}
	a := querySignature([]string{"b", "a", "a"}, []string{"c"}, Clause{
		Classes:     []feature.Class{feature.Extreme, feature.Salient},
		Resolutions: []Resolution{r2, r1, r2},
	})
	b := querySignature([]string{"a", "b"}, []string{"c", "c"}, Clause{
		Classes:     nil, // nil means both classes: same canonical form
		Resolutions: []Resolution{r1, r2},
	})
	if a != b {
		t.Errorf("equivalent queries got different signatures:\n%s\n%s", a, b)
	}
	c := querySignature([]string{"a", "b"}, []string{"c"}, Clause{
		Classes:     []feature.Class{feature.Salient},
		Resolutions: []Resolution{r1, r2},
	})
	if a == c {
		t.Error("different class filters must not share a signature")
	}
	d := querySignature([]string{"a"}, []string{"c"}, Clause{Resolutions: []Resolution{r1, r2}})
	if a == d {
		t.Error("different sources must not share a signature")
	}

	// End to end: the permuted spelling is a cache hit.
	f := stressFW(t)
	q1 := Query{Sources: []string{"wind", "trips"}, Clause: Clause{
		Permutations: 30,
		Classes:      []feature.Class{feature.Salient, feature.Extreme},
		Resolutions:  []Resolution{r1, r2},
	}}
	if _, stats, err := f.Query(q1); err != nil || stats.CacheHit {
		t.Fatalf("first query: err=%v cacheHit=%v", err, stats.CacheHit)
	}
	q2 := Query{Sources: []string{"trips", "wind", "wind"}, Clause: Clause{
		Permutations: 30,
		Classes:      []feature.Class{feature.Extreme, feature.Salient},
		Resolutions:  []Resolution{r2, r1},
	}}
	if _, stats, err := f.Query(q2); err != nil || !stats.CacheHit {
		t.Errorf("permuted spelling should hit the cache: err=%v stats=%+v", err, stats)
	}
}

// TestSkipSignificanceStats: with SkipSignificance no pair passes a
// significance test, so Significant must be 0 and Kept counts the returned
// candidates; without it the two counters agree.
func TestSkipSignificanceStats(t *testing.T) {
	f := stressFW(t)
	rels, stats, err := f.Query(Query{Clause: Clause{SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Significant != 0 {
		t.Errorf("SkipSignificance: Significant = %d, want 0 (no test ran)", stats.Significant)
	}
	if stats.Kept != len(rels) {
		t.Errorf("Kept = %d, want %d (len of result)", stats.Kept, len(rels))
	}
	if len(rels) == 0 {
		t.Fatal("expected candidate relationships")
	}
	rels2, stats2, err := f.Query(Query{Clause: Clause{Permutations: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Significant != stats2.Kept || stats2.Kept != len(rels2) {
		t.Errorf("full test: Significant (%d) and Kept (%d) must both equal len (%d)",
			stats2.Significant, stats2.Kept, len(rels2))
	}
}

// TestConcurrentMonteCarloParity: the worker pool schedules a query's Monte
// Carlo tests, and the schedule must not change an answer. On the golden
// corpus at neighbourhood × day every test is multi-region and samples
// permutations; a one-worker and a four-worker framework must answer
// identically.
func TestConcurrentMonteCarloParity(t *testing.T) {
	q := Query{Clause: Clause{
		Permutations: 200,
		Resolutions:  []Resolution{{Spatial: spatial.Neighborhood, Temporal: temporal.Day}},
	}}
	answer := func(workers int) []Relationship {
		f, _ := goldenFramework(t, workers, false)
		if r := f.opts.City.NumRegions(spatial.Neighborhood); r < 2 {
			t.Fatalf("the golden city has %d neighbourhoods; the query would test no multi-region tuple", r)
		}
		before := permutationsRun(t)
		rels, st, err := f.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if ran := permutationsRun(t) - before; st.Evaluated == 0 || ran == 0 {
			t.Fatalf("workers=%d: %d tuples evaluated, %d permutations run", workers, st.Evaluated, ran)
		}
		return rels
	}
	seq, par := answer(1), answer(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("worker count changed query results:\nw=1: %v\nw=4: %v", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("expected relationships")
	}
}

// TestConcurrentGraphBuildQueryStress interleaves BuildGraph calls, graph
// reads, and relationship queries from many goroutines. Run under -race
// this proves the relationship-graph subsystem honors the framework's
// locking contract: builders run under the shared state lock (queries keep
// flowing) serialized on the builder mutex, and a graph value obtained
// from RelGraph stays internally consistent while builds replace it.
func TestConcurrentGraphBuildQueryStress(t *testing.T) {
	f := stressFW(t)
	clauses := []Clause{
		{Permutations: 30},
		{Permutations: 30, MinScore: 0.5},
		{SkipSignificance: true},
	}
	if _, err := f.BuildGraph(clauses[0]); err != nil {
		t.Fatal(err)
	}
	queries := stressQueries()

	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Builders: cycle through clauses, forcing full rebuilds and reuses.
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := f.BuildGraph(clauses[(b+r)%len(clauses)]); err != nil {
					fail(err)
					return
				}
			}
		}(b)
	}
	// Graph readers: every read walks whatever graph is current.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				graph, ok := f.RelGraph()
				if !ok {
					fail(errors.New("RelGraph unavailable mid-stress"))
					return
				}
				st := graph.Stats()
				if st.Edges != graph.NumEdges() {
					fail(errors.New("graph stats disagree with edge count"))
					return
				}
				for _, ds := range graph.Datasets() {
					graph.KHop(ds, 2)
					graph.DatasetEdges(ds)
				}
				graph.TopK(5, relgraph.ByScore, 0)
				graph.Rollup(0)
			}
		}()
	}
	// Query traffic concurrent with the builds.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range queries {
					if _, _, err := f.Query(queries[(i+q)%len(queries)]); err != nil {
						fail(err)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// After the dust settles, a final build must agree with a fresh
	// framework's from-scratch graph (determinism survives the stress).
	if _, err := f.BuildGraph(clauses[0]); err != nil {
		t.Fatal(err)
	}
	got, _ := f.RelGraph()
	f2 := stressFW(t)
	if _, err := f2.BuildGraph(clauses[0]); err != nil {
		t.Fatal(err)
	}
	want, _ := f2.RelGraph()
	if !got.Equal(want) {
		t.Error("graph after concurrent stress differs from a from-scratch build")
	}
}

// TestConcurrentSaveDuringGraphBuild: the published graph is one record, so
// a Save that runs while builders alternate between two clauses of
// different test signatures writes one graph whole: the manifest's clause
// signature is the signature of the clause in the graph section, and
// reopening the container reproduces that clause's graph.
func TestConcurrentSaveDuringGraphBuild(t *testing.T) {
	f := stressFW(t)
	clauses := [2]Clause{{Permutations: 30}, {Permutations: 40, Correction: stats.BH}}
	want := map[string]*relgraph.Graph{}
	for _, c := range clauses {
		if _, err := f.BuildGraph(c); err != nil {
			t.Fatal(err)
		}
		want[graphSignature(c)], _ = f.RelGraph()
	}
	if len(want) != 2 {
		t.Fatal("the two clauses share a test signature")
	}

	// The builders alternate clauses until the saver has written its
	// containers, so every Save overlaps the builds.
	dir := t.TempDir()
	var paths []string
	var builders sync.WaitGroup
	stop := make(chan struct{})
	for b := 0; b < 2; b++ {
		builders.Add(1)
		go func(b int) {
			defer builders.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.BuildGraph(clauses[(b+r)%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(b)
	}
	for i := 0; i < 20; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.snap", i))
		if err := f.Save(path); err != nil {
			t.Error(err)
			break
		}
		paths = append(paths, path)
	}
	close(stop)
	builders.Wait()

	seen := map[string]int{}
	for _, path := range paths {
		m, sections, err := store.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := parseFlatIndex(sections[store.SectionIndex])
		if err != nil {
			t.Fatal(err)
		}
		snap, err := parseFlatGraph(sections[store.SectionGraph], ix.funcs)
		if err != nil {
			t.Fatal(err)
		}
		sig := graphSignature(snap.clause)
		if m.ClauseSig != sig {
			t.Errorf("%s: manifest clause signature %q, graph section's clause has %q", path, m.ClauseSig, sig)
		}
		g, err := Open(path, OpenOptions{Options: f.opts})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := g.RelGraph(); !ok || want[sig] == nil || !got.Equal(want[sig]) {
			t.Errorf("%s: reopened graph is not the graph of its clause %+v", path, snap.clause)
		}
		g.Close()
		seen[sig]++
	}
	t.Logf("containers saved during the builds, by clause signature: %v", seen)
}

// TestConcurrentQueryGraphFamilies starts queries and graph builds that all
// miss the same families at once, so they race to evaluate and store the
// same pairs. Every answer, its stats counters, and the graph must be
// byte-identical to a sequential run on a fresh framework.
func TestConcurrentQueryGraphFamilies(t *testing.T) {
	clause := graphClause()
	bh := clause
	bh.Correction = stats.BH
	queries := []Query{
		{Clause: clause},
		{Sources: []string{"wind"}, Clause: clause},
		{Sources: []string{"gusts"}, Targets: []string{"rides"}, Clause: clause},
		{Clause: bh},
	}
	base := stressFW(t)
	want := make([][]Relationship, len(queries))
	wantSt := make([]QueryStats, len(queries))
	for i, q := range queries {
		var err error
		if want[i], wantSt[i], err = base.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := base.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	wantG, _ := base.RelGraph()

	f := stressFW(t)
	got := make([][]Relationship, len(queries))
	gotSt := make([]QueryStats, len(queries))
	errs := make([]error, len(queries)+2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], gotSt[i], errs[i] = f.Query(q)
		}()
	}
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[len(queries)+b] = f.BuildGraph(clause)
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range queries {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: concurrent answer diverges from sequential", i)
		}
		if queryCounters(gotSt[i]) != queryCounters(wantSt[i]) {
			t.Errorf("query %d: stats %+v, sequential %+v", i, gotSt[i], wantSt[i])
		}
	}
	if g, _ := f.RelGraph(); !g.Equal(wantG) {
		t.Error("graph built while queries filled its families differs from a sequential build")
	}
}

// TestConcurrentWriters runs an IngestDataset of a new data set and an
// AppendSlice to another at once, beside Query traffic. The writes
// serialize on the writer mutex, so neither sees the corpus change between
// its capture and its splice: neither recomputes from an empty base, no
// rebuild is counted, and the final answers equal a from-scratch build over
// the same order with the slice merged, whichever write goes first.
func TestConcurrentWriters(t *testing.T) {
	live := buildFW(t, appendCorpus(t, 48))
	rebuilds := live.Rebuilds()
	added := func() *dataset.Dataset { return noiseDataset("noise2", 95, 48) }
	slice := func() *dataset.Dataset { return hourSlice("noise", "level", 240, plantedHours+48, 24*3) }

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{Sources: []string{"wind"}, Clause: Clause{Permutations: 20 + (i+g)%3}}
				if _, _, err := live.Query(q); err != nil {
					t.Errorf("query during writes: %v", err)
					return
				}
			}
		}(g)
	}
	var writers sync.WaitGroup
	var ist IndexStats
	var ast IndexStats
	var ierr, aerr error
	writers.Add(2)
	go func() { defer writers.Done(); ist, ierr = live.IngestDataset(added()) }()
	go func() { defer writers.Done(); ast, aerr = live.AppendSlice(slice()) }()
	writers.Wait()
	close(stop)
	readers.Wait()
	if ierr != nil || aerr != nil {
		t.Fatalf("ingest: %v; append: %v", ierr, aerr)
	}
	if ist.DatasetsIndexed != 1 || ast.FellBack {
		t.Errorf("ingest indexed %d data sets, append fell back = %t; want 1 and no empty base", ist.DatasetsIndexed, ast.FellBack)
	}
	if live.Rebuilds() != rebuilds {
		t.Errorf("rebuilds %d -> %d, want unchanged", rebuilds, live.Rebuilds())
	}

	corpus := appendCorpus(t, 48)
	corpus[2] = appendTuples(corpus[2], slice())
	scratch := buildFW(t, append(corpus, added()))
	assertIndexIdentical(t, scratch, live)
	q := Query{Clause: Clause{Permutations: 40}}
	want, _, err := scratch.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := live.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("answers differ from a from-scratch build:\n scratch %v\n live    %v", want, got)
	}
}
