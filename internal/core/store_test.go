package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/store"
)

// snapshotCorpus builds a fresh framework over the planted two-data-set
// corpus (identical across calls) without indexing it.
func snapshotCorpus(t testing.TB) (*Framework, []*dataset.Dataset) {
	t.Helper()
	f, err := New(Options{City: testCity(t), Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wind, trips := plantedPair(30, randomHours(31, 60), nil)
	for _, d := range []*dataset.Dataset{wind, trips} {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	return f, []*dataset.Dataset{wind, trips}
}

// TestSaveOpenQueryParity is the core lifecycle guarantee: save → open →
// query yields results byte-identical to the in-memory framework,
// including p-values and the materialized graph.
func TestSaveOpenQueryParity(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	clause := Clause{Permutations: 120}
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	before, _, err := f.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	wind2, trips2 := plantedPair(30, randomHours(31, 60), nil)
	g, err := Open(path, OpenOptions{
		Options:  Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: []*dataset.Dataset{wind2, trips2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Indexed() {
		t.Fatal("Open should leave the framework indexed")
	}
	after, stats, err := g.Query(Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Error("first query after Open cannot be a cache hit")
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("query results differ after save→open:\n before %v\n after  %v", before, after)
	}

	// The saved graph came back identical, with no rebuild.
	gb, ok1 := f.RelGraph()
	ga, ok2 := g.RelGraph()
	if !ok1 || !ok2 {
		t.Fatal("graph missing on one side")
	}
	if !ga.Equal(gb) {
		t.Fatal("materialized graph differs after save→open")
	}
	// The originating clause rides the snapshot: a refresh after a corpus
	// change can reuse exactly the operator's selection.
	loadedClause, ok := g.GraphClause()
	if !ok || !reflect.DeepEqual(loadedClause, clause) {
		t.Errorf("GraphClause after Open = %+v (ok=%t), want %+v", loadedClause, ok, clause)
	}
	// And the loaded candidate cache supports pure-reuse incremental builds.
	gs, err := g.BuildGraph(loadedClause)
	if err != nil {
		t.Fatal(err)
	}
	if gs.PairsComputed != 0 || gs.PairsReused != gs.Pairs {
		t.Errorf("BuildGraph after Open recomputed pairs: %+v", gs)
	}
}

func TestSaveRequiresIndex(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if err := f.Save(filepath.Join(t.TempDir(), "x.snap")); err == nil {
		t.Error("Save before BuildIndex should fail")
	}
}

func TestSaveWithoutGraphOmitsSection(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	m, sections, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sections[store.SectionGraph]; ok {
		t.Error("graph section present without a built graph")
	}
	if m.ClauseSig != "" {
		t.Errorf("clause sig %q without a graph", m.ClauseSig)
	}
	wind2, trips2 := plantedPair(30, randomHours(31, 60), nil)
	g, err := Open(path, OpenOptions{Options: Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: []*dataset.Dataset{wind2, trips2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.RelGraph(); ok {
		t.Error("RelGraph reports a graph that was never saved")
	}
}

// TestLoadRejectsForeignCorpus exercises the fingerprint gate: a snapshot
// never loads into a framework that could not have produced it, and each
// rejection names the mismatch.
func TestLoadRejectsForeignCorpus(t *testing.T) {
	f, datasets := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	// Wrong seed.
	if _, err := Open(path, OpenOptions{Options: Options{City: testCity(t), Workers: 2, Seed: 6},
		Datasets: datasets}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("wrong seed: err = %v", err)
	}
	// Missing data set.
	if _, err := Open(path, OpenOptions{Options: Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: datasets[:1]}); err == nil || !strings.Contains(err.Error(), "data set") {
		t.Errorf("missing dataset: err = %v", err)
	}
	// A failed Load leaves a built framework fully usable.
	g, _ := snapshotCorpus(t)
	if _, err := g.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(t.TempDir(), "foreign")
	if err := os.WriteFile(wrong, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := g.Load(wrong); err == nil {
		t.Fatal("Load of a foreign file should fail")
	}
	if _, _, err := g.Query(Query{Clause: Clause{Permutations: 20}}); err != nil {
		t.Errorf("framework unusable after failed Load: %v", err)
	}
}

// TestLoadRejectsCorruptContainer flips one payload bit and asserts the
// rejection is section-level, before any section is parsed.
func TestLoadRejectsCorruptContainer(t *testing.T) {
	f, datasets := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, OpenOptions{Options: Options{City: testCity(t), Workers: 2, Seed: 5},
		Datasets: datasets})
	if err == nil {
		t.Fatal("Open of a bit-flipped container should fail")
	}
	if !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), store.SectionIndex) {
		t.Errorf("corruption error is not section-level: %v", err)
	}

	// Truncation is rejected the same way.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Load(path); err == nil {
		t.Error("Load of a truncated container should fail")
	}
}

// BenchmarkSnapshotSaveLoad measures the round trip that warm starts pay
// instead of a full index build.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	f, datasets := snapshotCorpus(b)
	if _, err := f.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	if _, err := f.BuildGraph(Clause{Permutations: 60}); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	g, err := New(Options{City: testCity(b), Workers: 2, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range datasets {
		if err := g.AddDataset(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Save(path); err != nil {
			b.Fatal(err)
		}
		if err := g.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
