package core

import (
	"math/rand"
	"os"
	"path/filepath"
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

// TestIngestRangeExtensionFallback: bringing in a data set that grows the
// corpus time range, through either entry point — IngestDataset, or
// AddDataset + BuildIndex — under the one range rule of the corpus write.
// Growth forward is incremental, like an append: no rebuild, and the
// families of pairs whose tiles kept their widths survive. Growth into an
// earlier step shifts every step index, so that write recomputes from an
// empty base and counts exactly one rebuild. Both entry points land in the
// exact from-scratch state, and in the same stats and snapshot bytes.
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
	entryPoints := []struct {
		name string
		add  func(*Framework, *dataset.Dataset) (IndexStats, error)
	}{
		{"IngestDataset", (*Framework).IngestDataset},
		{"AddDataset+BuildIndex", func(f *Framework, d *dataset.Dataset) (IndexStats, error) {
			if err := f.AddDataset(d); err != nil {
				return IndexStats{}, err
			}
			return f.BuildIndex()
		}},
	}
	forwardScratch := buildFW(t, append(appendCorpus(t, 48), later()))
	backwardScratch := buildFW(t, append(appendCorpus(t, 48), later(), early()))

	// outcome is what must not depend on the entry point.
	type outcome struct {
		forward, backward IndexStats
		rebuilds          [2]int64
		graph             GraphStats
		answers           [2][]Relationship
		snapshot          []byte
	}
	var outcomes []outcome
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			var o outcome
			// The base corpus ends on a tile boundary (appendCorpus), so the
			// forward growth opens new tiles and leaves the old ones' widths
			// alone.
			live := buildFW(t, appendCorpus(t, 48))
			if _, err := live.BuildGraph(clause); err != nil {
				t.Fatal(err)
			}
			rebuilds := live.Rebuilds()
			st, err := ep.add(live, later())
			if err != nil {
				t.Fatal(err)
			}
			o.rebuilds[0] = live.Rebuilds() - rebuilds
			if st.DatasetsIndexed != 1 || o.rebuilds[0] != 0 {
				t.Errorf("forward extension: DatasetsIndexed %d, %d rebuilds; want 1 and none", st.DatasetsIndexed, o.rebuilds[0])
			}
			if o.graph, err = live.BuildGraph(clause); err != nil {
				t.Fatal(err)
			}
			if o.graph.PairsReused == 0 {
				t.Errorf("post-extension BuildGraph stats = %+v, want the untouched pairs' families reused", o.graph)
			}
			o.answers[0] = query(live)
			if !reflect.DeepEqual(query(forwardScratch), o.answers[0]) {
				t.Fatal("query results differ after forward extension")
			}
			assertIndexIdentical(t, forwardScratch, live)
			path := filepath.Join(t.TempDir(), "forward.snap")
			if err := live.Save(path); err != nil {
				t.Fatal(err)
			}
			if o.snapshot, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			o.forward = st

			if o.backward, err = ep.add(live, early()); err != nil {
				t.Fatal(err)
			}
			o.rebuilds[1] = live.Rebuilds() - rebuilds
			if o.rebuilds[1] != 1 || o.backward.DatasetsIndexed != 5 {
				t.Errorf("backward extension: %d rebuilds, DatasetsIndexed %d; want one rebuild and all 5",
					o.rebuilds[1], o.backward.DatasetsIndexed)
			}
			o.answers[1] = query(live)
			if !reflect.DeepEqual(query(backwardScratch), o.answers[1]) {
				t.Fatal("query results differ after backward extension")
			}
			assertIndexIdentical(t, backwardScratch, live)
			outcomes = append(outcomes, o)
		})
	}
	if len(outcomes) != len(entryPoints) {
		return
	}
	a, b := outcomes[0], outcomes[1]
	for _, st := range []*IndexStats{&a.forward, &a.backward, &b.forward, &b.backward} {
		st.ComputeDuration, st.IndexDuration, st.WallDuration = 0, 0, 0
	}
	a.graph.WallDuration, b.graph.WallDuration = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the entry points differ:\n IngestDataset          %+v %+v rebuilds %v graph %+v\n AddDataset+BuildIndex  %+v %+v rebuilds %v graph %+v",
			a.forward, a.backward, a.rebuilds, a.graph, b.forward, b.backward, b.rebuilds, b.graph)
	}
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
