package core

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

func TestIncludeGradientsDoublesIndex(t *testing.T) {
	city := testCity(t)
	f, err := New(Options{City: city, Workers: 2, Seed: 5, IncludeGradients: true})
	if err != nil {
		t.Fatal(err)
	}
	wind, trips := plantedPair(40, randomHours(41, 60), nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	stats, err := f.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	// 16 plain functions (2 datasets x 2 specs x 4 temporal res) + 16
	// gradients.
	if stats.Functions != 32 {
		t.Errorf("Functions = %d, want 32 with gradients", stats.Functions)
	}
	res := Resolution{spatial.City, temporal.Hour}
	gradCount := 0
	for _, e := range f.Entries("wind", res) {
		if strings.HasPrefix(e.SpecName, "grad_") {
			gradCount++
		}
	}
	if gradCount != 2 {
		t.Errorf("wind gradient entries at %v = %d, want 2", res, gradCount)
	}
	// Gradient functions participate in queries: co-occurring events make
	// co-occurring gradient spikes, so grad~grad candidates must exist.
	rels, _, err := f.Query(Query{Clause: Clause{SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	foundGrad := false
	for _, r := range rels {
		if strings.HasPrefix(r.Spec1, "grad_") && strings.HasPrefix(r.Spec2, "grad_") {
			foundGrad = true
			break
		}
	}
	if !foundGrad {
		t.Error("no gradient-gradient candidate relationships found")
	}
}

// TestLoadRefusesGradientMismatch: a snapshot built under the other
// IncludeGradients setting lacks (or carries extra) grad_ entries, so Load
// must refuse it in both directions — accepting one would leave the
// framework half-indexed and its next write without the entries it extends
// — and leave the framework unloaded.
func TestLoadRefusesGradientMismatch(t *testing.T) {
	for _, saved := range []bool{false, true} {
		src, err := New(Options{City: testCity(t), Workers: 2, Seed: 5, IncludeGradients: saved})
		if err != nil {
			t.Fatal(err)
		}
		wind, trips := plantedPair(40, randomHours(41, 60), nil)
		_ = src.AddDataset(wind)
		_ = src.AddDataset(trips)
		if _, err := src.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "corpus.snap")
		if err := src.Save(path); err != nil {
			t.Fatal(err)
		}

		dst, err := New(Options{City: testCity(t), Workers: 2, Seed: 5, IncludeGradients: !saved})
		if err != nil {
			t.Fatal(err)
		}
		wind, trips = plantedPair(40, randomHours(41, 60), nil)
		_ = dst.AddDataset(wind)
		_ = dst.AddDataset(trips)
		if err := dst.Load(path); err == nil || !strings.Contains(err.Error(), "IncludeGradients") {
			t.Errorf("saved with gradients %t, loaded with %t: err = %v, want an IncludeGradients refusal", saved, !saved, err)
		}
		if dst.Indexed() || dst.NumFunctions() != 0 {
			t.Errorf("saved with gradients %t: refused Load left indexed = %t with %d functions",
				saved, dst.Indexed(), dst.NumFunctions())
		}
	}
}
