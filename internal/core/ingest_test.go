package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// noiseDataset builds a city-level hourly data set of pure baseline noise
// spanning the same window as the planted fixtures (so ingesting it never
// extends the corpus time range), with extraHours of trailing data when a
// range extension is wanted.
func noiseDataset(name string, seed int64, extraHours int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{
		Name: name, SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"level"},
	}
	for i := 0; i < plantedHours+extraHours; i++ {
		d.Tuples = append(d.Tuples, dataset.Tuple{
			Region: 0, TS: ts(i/24, i%24), Values: []float64{25 + rng.NormFloat64()},
		})
	}
	return d
}

// buildScratch indexes wind+trips+extra from scratch — the reference state
// ingestion must reproduce exactly.
func buildScratch(t testing.TB, extra *dataset.Dataset) *Framework {
	t.Helper()
	f := newFWTB(t)
	wind, trips := plantedPair(30, randomHours(31, 60), nil)
	for _, d := range []*dataset.Dataset{wind, trips, extra} {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
}

func newFWTB(t testing.TB) *Framework {
	t.Helper()
	f, err := New(Options{City: testCity(t), Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestIngestEquivalence is the acceptance criterion of the runtime
// ingestion path: ingesting a data set into a live framework yields query
// and graph results byte-identical to a from-scratch build that included
// it all along.
func TestIngestEquivalence(t *testing.T) {
	clause := Clause{Permutations: 80}
	scratch := buildScratch(t, noiseDataset("noise", 91, 0))
	if _, err := scratch.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	want, _, err := scratch.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}

	live, _ := snapshotCorpus(t)
	if _, err := live.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gsBefore, err := live.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	st, err := live.IngestDataset(noiseDataset("noise", 91, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.DatasetsIndexed != 1 || st.DatasetsReused != 2 {
		t.Errorf("ingest stats = %+v, want exactly the new data set indexed", st)
	}
	got, _, err := live.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("query results differ after ingest:\n scratch %v\n ingest  %v", want, got)
	}

	// The graph extends incrementally: the query above already tested the
	// new data set's two pairs under the graph's clause, so the build
	// computes nothing, and the result matches the scratch graph exactly.
	gs, err := live.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if gs.PairsReused != gsBefore.Pairs+2 || gs.PairsComputed != 0 {
		t.Errorf("post-ingest BuildGraph stats = %+v, want %d reused / 0 computed", gs, gsBefore.Pairs+2)
	}
	wantG, _ := scratch.RelGraph()
	gotG, _ := live.RelGraph()
	if !gotG.Equal(wantG) {
		t.Fatal("materialized graph differs between scratch build and ingest path")
	}
}

// TestIngestRangeExtensionFallback: ingesting a data set that grows the
// corpus time range. Growth forward is incremental, like an append: no
// rebuild, and the families of pairs whose tiles kept their widths survive.
// Growth into the past shifts every step index, so that ingest recomputes
// from an empty base and counts exactly one rebuild. Both land in the exact
// from-scratch state.
func TestIngestRangeExtensionFallback(t *testing.T) {
	clause := Clause{Permutations: 60}
	later := func() *dataset.Dataset { return noiseDataset("later", 92, 48+24*10) }
	early := func() *dataset.Dataset { return hourSlice("early", "level", 93, -48, 24*5) }
	query := func(f *Framework) []Relationship {
		t.Helper()
		rels, _, err := f.Query(Query{Clause: clause})
		if err != nil {
			t.Fatal(err)
		}
		return rels
	}

	// The base corpus ends on a tile boundary (appendCorpus), so the
	// forward growth opens new tiles and leaves the old ones' widths alone.
	live := buildFW(t, appendCorpus(t, 48))
	if _, err := live.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	rebuilds := live.Rebuilds()
	st, err := live.IngestDataset(later())
	if err != nil {
		t.Fatal(err)
	}
	if st.DatasetsIndexed != 1 || live.Rebuilds() != rebuilds {
		t.Errorf("forward-extending ingest: DatasetsIndexed %d, rebuilds %d -> %d; want 1 and unchanged",
			st.DatasetsIndexed, rebuilds, live.Rebuilds())
	}
	gs, err := live.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if gs.PairsReused == 0 {
		t.Errorf("post-ingest BuildGraph stats = %+v, want the untouched pairs' families reused", gs)
	}
	if !reflect.DeepEqual(query(buildFW(t, append(appendCorpus(t, 48), later()))), query(live)) {
		t.Fatal("query results differ after forward-extending ingest")
	}

	st, err = live.IngestDataset(early())
	if err != nil {
		t.Fatal(err)
	}
	if live.Rebuilds() != rebuilds+1 || st.Rebuilds != live.Rebuilds() || st.DatasetsIndexed != 5 {
		t.Errorf("backward-extending ingest: rebuilds %d -> %d (stats %d), DatasetsIndexed %d; want one rebuild and all 5",
			rebuilds, live.Rebuilds(), st.Rebuilds, st.DatasetsIndexed)
	}
	scratch := buildFW(t, append(appendCorpus(t, 48), later(), early()))
	if !reflect.DeepEqual(query(scratch), query(live)) {
		t.Fatal("query results differ after backward-extending ingest")
	}
	assertIndexIdentical(t, scratch, live)
}

func TestIngestIntoUnbuiltFramework(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.IngestDataset(noiseDataset("noise", 93, 0)); err != nil {
		t.Fatal(err)
	}
	if !f.Indexed() {
		t.Error("ingest into an unbuilt framework should leave it indexed")
	}
	if len(f.Datasets()) != 3 {
		t.Errorf("datasets = %v", f.Datasets())
	}
}

func TestIngestValidation(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.IngestDataset(&dataset.Dataset{Name: "empty", SpatialRes: spatial.City,
		TemporalRes: temporal.Hour, Attrs: []string{"a"}}); err == nil {
		t.Error("ingesting an empty data set should fail")
	}
	dup, _ := plantedPair(30, randomHours(31, 60), nil)
	if _, err := f.IngestDataset(dup); err == nil {
		t.Error("ingesting a duplicate name should fail")
	}
	if _, _, err := f.Query(Query{Clause: Clause{Permutations: 20}}); err != nil {
		t.Errorf("framework unusable after rejected ingests: %v", err)
	}
}

// TestConcurrentIngestQueryStress runs queries continuously while a data
// set is ingested. Under -race this exercises the snapshot/compute/splice
// phases against the concurrent read path; queries must never fail, and
// the post-ingest state must answer queries over the new data set.
func TestConcurrentIngestQueryStress(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{Sources: []string{"wind"}, Clause: Clause{Permutations: 20 + (i+g)%3}}
				if _, _, err := f.Query(q); err != nil {
					t.Errorf("query during ingest: %v", err)
					return
				}
			}
		}(g)
	}
	if _, err := f.IngestDataset(noiseDataset("noise", 94, 0)); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	rels, _, err := f.Query(Query{Sources: []string{"noise"}, Clause: Clause{Permutations: 20, SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	_ = rels // pure noise may or may not relate; the query answering at all is the point
}
