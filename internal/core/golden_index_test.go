package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// goldenIndexHash pins the whole index of a small gendata-style corpus (the
// urban collection, 1 month, grid 8, seed 1): every entry's key, its
// vertex count, its four feature bit vectors and its critical-point counts.
// A change to the index layer that claims "same features" must leave it
// alone, and one that changes features on purpose must say so and
// regenerate it (the failure message prints the new value).
//
// It was generated at the commit before the flat merge-tree kernel, over a
// build that also indexed each function's gradient, and restated once when
// the gradient variant and the per-tile thresholds left the index: the new
// value was taken on the commit before that deletion, hashing only the
// entries without the grad_ prefix and no threshold word, and the index
// without them reproduces it.
const goldenIndexHash = "7962345f852d169edd7b739aef9b79d92fc02a8766612e91e248000ff0f18d7e"

// goldenFramework indexes the golden corpus on the given worker count and
// also returns what Open needs to warm-start a second framework over it.
// With viaCSV every data set is first written with dataset.WriteCSV and
// read back with dataset.ReadCSV.
func goldenFramework(t *testing.T, workers int, viaCSV bool) (*Framework, OpenOptions) {
	t.Helper()
	city, err := spatial.Generate(spatial.GridConfig(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	col, err := urban.Generate(urban.Config{Seed: 1, City: city, Start: start, End: start.AddDate(0, 1, 0), Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if viaCSV {
		for i, d := range col.Datasets {
			var buf bytes.Buffer
			if err := dataset.WriteCSV(&buf, d); err != nil {
				t.Fatal(err)
			}
			if col.Datasets[i], err = dataset.ReadCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := OpenOptions{
		Options:  Options{City: city, Workers: workers, Seed: 1},
		Datasets: col.Datasets,
	}
	f, err := New(opts.Options)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range col.Datasets {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f, opts
}

// TestGoldenIndex checks the hash at several worker counts — the index must
// not depend on how the indexing job's tasks were scheduled — and on a
// framework opened from the snapshot alone, with no raw data set.
func TestGoldenIndex(t *testing.T) {
	var f *Framework
	var opts OpenOptions
	for _, workers := range []int{1, 2, 4} {
		f, opts = goldenFramework(t, workers, false)
		if got, entries := goldenIndexDigest(t, f); got != goldenIndexHash {
			t.Errorf("Workers %d: index hash over %d entries = %s, want %s", workers, entries, got, goldenIndexHash)
		}
	}
	// The CSV codec is lossless: the corpus read back from its CSV files
	// indexes to the same hash.
	viaCSV, _ := goldenFramework(t, 2, true)
	if got, entries := goldenIndexDigest(t, viaCSV); got != goldenIndexHash {
		t.Errorf("corpus through WriteCSV/ReadCSV: index hash over %d entries = %s, want %s", entries, got, goldenIndexHash)
	}
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, OpenOptions{Options: opts.Options})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got, entries := goldenIndexDigest(t, opened); got != goldenIndexHash {
		t.Errorf("snapshot-only open: index hash over %d entries = %s, want %s", entries, got, goldenIndexHash)
	}
}

// goldenIndexDigest hashes a framework's index, returning the hex digest and
// the number of entries hashed.
func goldenIndexDigest(t *testing.T, f *Framework) (string, int) {
	t.Helper()
	h := sha256.New()
	var buf []byte
	num := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	entries := 0
	for _, name := range f.Datasets() {
		for _, sr := range []spatial.Resolution{spatial.ZipCode, spatial.Neighborhood, spatial.City} {
			for _, tr := range []temporal.Resolution{temporal.Hour, temporal.Day, temporal.Week, temporal.Month} {
				for _, e := range f.Entries(name, Resolution{Spatial: sr, Temporal: tr}) {
					entries++
					buf = append(buf[:0], e.Key...)
					num(uint64(e.NumVertices))
					for _, set := range []*feature.Set{e.Salient, e.Extreme} {
						buf = set.Positive.AppendWords(buf)
						buf = set.Negative.AppendWords(buf)
					}
					num(uint64(e.CriticalPoints))
					for _, c := range e.TileCriticalPoints {
						num(uint64(c))
					}
					h.Write(buf)
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("golden corpus indexed no functions")
	}
	return hex.EncodeToString(h.Sum(nil)), entries
}
