package core

import (
	"bytes"
	"encoding/json"
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
	// A framework with no corpus adopts the snapshot's only when Load
	// succeeds: after a rejected one it is empty and writable.
	e, err := New(Options{City: testCity(t), Workers: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(path); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("snapshot-only load with wrong seed: err = %v", err)
	}
	if got := e.Datasets(); len(got) != 0 {
		t.Errorf("failed Load left data sets %v", got)
	}
	if err := e.AddDataset(datasets[0]); err != nil {
		t.Errorf("AddDataset after a failed Load: %v", err)
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

// TestSnapshotOnlyOpenIsReadOnly: a framework opened without its raw data
// sets refuses every write, and each refusal leaves it exactly as it was —
// same corpus names, fingerprint, index, answers, and saved bytes.
func TestSnapshotOnlyOpenIsReadOnly(t *testing.T) {
	f, datasets := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(Clause{Permutations: 40}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path, OpenOptions{Options: f.opts})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	answer := func(fw *Framework, perms int) []byte {
		t.Helper()
		rels, _, err := fw.Query(Query{Clause: Clause{Permutations: perms}})
		if err != nil || len(rels) == 0 {
			t.Fatalf("query: %d relationships, err %v", len(rels), err)
		}
		blob, err := json.Marshal(rels)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	fingerprint := func() store.Fingerprint {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return g.fingerprintLocked()
	}
	wind := datasets[0]
	slice := *wind
	next := wind.Tuples[len(wind.Tuples)-1]
	next.TS += 3600
	slice.Tuples = []dataset.Tuple{next}
	gusts := wind.Filter("gusts", func(dataset.Tuple) bool { return true })

	names, fp, functions := g.Datasets(), fingerprint(), g.NumFunctions()
	writes := []struct {
		name  string
		write func() error
	}{
		{"AddDataset", func() error { return g.AddDataset(gusts) }},
		{"IngestDataset new", func() error { _, err := g.IngestDataset(gusts); return err }},
		{"IngestDataset existing", func() error { _, err := g.IngestDataset(wind); return err }},
		{"AppendSlice", func() error { _, err := g.AppendSlice(&slice); return err }},
	}
	for i, w := range writes {
		if err := w.write(); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Errorf("%s: err = %v, want the read-only refusal", w.name, err)
		}
		if got := g.Datasets(); !reflect.DeepEqual(got, names) {
			t.Errorf("%s: data sets %v, want %v", w.name, got, names)
		}
		if got := fingerprint(); !reflect.DeepEqual(got, fp) {
			t.Errorf("%s: fingerprint %+v, want %+v", w.name, got, fp)
		}
		if got := g.NumFunctions(); got != functions {
			t.Errorf("%s: %d functions, want %d", w.name, got, functions)
		}
		// A clause of its own per write, so the answer is evaluated afresh.
		if got, want := answer(g, 30+i), answer(f, 30+i); !bytes.Equal(got, want) {
			t.Errorf("%s: answer differs from the framework that saved the snapshot", w.name)
		}
	}

	resaved := filepath.Join(t.TempDir(), "resaved.snap")
	if err := g.Save(resaved); err != nil {
		t.Fatal(err)
	}
	_, want, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := store.Read(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Save of the snapshot-only framework changed the section bytes")
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

// TestLoadRejectsChangedAttributes: a data set that kept its name and time
// range but gained an attribute is not the corpus the snapshot indexed —
// its new attribute's functions are missing — so Load and Open refuse it.
func TestLoadRejectsChangedAttributes(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	changed := func() []*dataset.Dataset {
		wind, trips := plantedPair(30, randomHours(31, 60), nil)
		wind.Attrs = append(wind.Attrs, "gust")
		for i := range wind.Tuples {
			wind.Tuples[i].Values = append(wind.Tuples[i].Values, 2*wind.Tuples[i].Values[0])
		}
		return []*dataset.Dataset{wind, trips}
	}
	opts := Options{City: testCity(t), Workers: 2, Seed: 5}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range changed() {
		if err := g.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Load(path); err == nil || !strings.Contains(err.Error(), `"wind"`) {
		t.Errorf("Load with wind's attributes changed: err = %v, want a refusal naming wind", err)
	}
	if g.Indexed() {
		t.Error("refused Load left the framework indexed")
	}
	if _, err := Open(path, OpenOptions{Options: opts, Datasets: changed()}); err == nil || !strings.Contains(err.Error(), `"wind"`) {
		t.Errorf("Open with wind's attributes changed: err = %v, want a refusal naming wind", err)
	}
}

// TestOpenAloneRejectsChangedEntries: a framework opened from a snapshot
// alone has no raw data to enumerate a data set's functions from, so Open
// reads its specs and resolutions off the section's entries and checks the
// product: an index section re-encoded with one of wind's entries removed,
// or with one renamed to a spec wind never had, is refused, naming wind.
func TestOpenAloneRejectsChangedEntries(t *testing.T) {
	f, _ := snapshotCorpus(t)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	if len(f.index.entries["wind"]) < 2 {
		t.Fatal("wind is indexed at one resolution; a renamed entry would leave the product unchanged")
	}
	// reencode lays out the index section with wind's run as edit returns
	// it, over copies of the entries.
	reencode := func(edit func(run []FunctionEntry) []FunctionEntry) []byte {
		t.Helper()
		f.mu.Lock()
		defer f.mu.Unlock()
		saved := f.index
		defer func() { f.index = saved }()
		f.index = newIndex()
		for _, name := range f.order {
			es := make([]FunctionEntry, len(saved.funcs[name]))
			for i, e := range saved.funcs[name] {
				es[i] = *e
			}
			if name == "wind" {
				es = edit(es)
			}
			for i := range es {
				f.index.add(&es[i])
			}
			f.index.sort(name)
		}
		idx, err := f.encodeFlatIndexLocked()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	opts := OpenOptions{Options: Options{City: testCity(t), Workers: 2, Seed: 5}}
	g, err := Open(splice(t, path, store.SectionIndex, reencode(func(es []FunctionEntry) []FunctionEntry { return es })), opts)
	if err != nil {
		t.Fatalf("Open of the unchanged re-encoded index: %v", err)
	}
	g.Close()
	for _, c := range []struct {
		name string
		edit func(es []FunctionEntry) []FunctionEntry
	}{
		{"one entry removed", func(es []FunctionEntry) []FunctionEntry { return es[1:] }},
		{"one entry renamed to a spec wind never had", func(es []FunctionEntry) []FunctionEntry {
			e := &es[len(es)-1]
			e.SpecName = "avg_gust"
			e.Key = entryKey(e.Dataset, e.SpecName, e.Res)
			return es
		}},
	} {
		if _, err := Open(splice(t, path, store.SectionIndex, reencode(c.edit)), opts); err == nil || !strings.Contains(err.Error(), `"wind"`) {
			t.Errorf("%s: Open err = %v, want a refusal naming wind", c.name, err)
		}
	}
}
