package core

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/store"
)

func TestSaveLoadIndexRoundTrip(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(30, randomHours(31, 60), nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before, _, err := f.Query(Query{Clause: Clause{Permutations: 80}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	// A fresh framework over the same corpus loads the index and answers
	// identically without rebuilding.
	g := newFW(t)
	wind2, trips2 := plantedPair(30, randomHours(31, 60), nil)
	_ = g.AddDataset(wind2)
	_ = g.AddDataset(trips2)
	if err := g.Load(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	if !g.Indexed() {
		t.Fatal("Load should mark the framework indexed")
	}
	if g.NumFunctions() != f.NumFunctions() {
		t.Fatalf("loaded %d functions, want %d", g.NumFunctions(), f.NumFunctions())
	}
	after, _, err := g.Query(Query{Clause: Clause{Permutations: 80}})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("loaded index yields %d relationships, original %d", len(after), len(before))
	}
	for i := range after {
		if after[i].Function1 != before[i].Function1 || after[i].Score != before[i].Score {
			t.Fatalf("relationship %d differs after reload:\n  %v\n  %v", i, after[i], before[i])
		}
	}
}

// TestLoadValidatesIndexSection: the index section is checked against the
// registered corpus on its own, not only through the manifest — a container
// whose manifest matches the framework but whose index came from another
// corpus must be refused.
func TestLoadValidatesIndexSection(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(32, []int{5}, nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(t.TempDir(), "two.snap")
	if err := f.Save(foreign); err != nil {
		t.Fatal(err)
	}
	_, sections, err := store.Read(foreign)
	if err != nil {
		t.Fatal(err)
	}

	g := newFW(t)
	wind2, _ := plantedPair(32, []int{5}, nil)
	_ = g.AddDataset(wind2)
	if _, err := g.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	own := filepath.Join(t.TempDir(), "one.snap")
	if err := g.Save(own); err != nil {
		t.Fatal(err)
	}
	bad := splice(t, own, store.SectionIndex, sections[store.SectionIndex])
	if err := g.Load(bad); err == nil || !strings.Contains(err.Error(), "data sets") {
		t.Errorf("index from another corpus under a matching manifest: err = %v", err)
	}
	if g.NumFunctions() == 0 {
		t.Error("failed Load dropped the built index")
	}
}
