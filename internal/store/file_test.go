package store

import (
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// fileFixture writes a two-section container and returns its path and
// sections.
func fileFixture(t *testing.T) (string, []Section) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.snap")
	sections := []Section{
		{Name: SectionIndex, Data: []byte("the index payload, longer than eight bytes")},
		{Name: SectionGraph, Data: []byte("graph!")},
	}
	m := Manifest{Fingerprint: Fingerprint{Seed: 7, MinTS: 1, MaxTS: 2, Datasets: []string{"a", "b"}}}
	if err := Write(path, m, sections); err != nil {
		t.Fatal(err)
	}
	return path, sections
}

func TestOpenFileSectionsMatchRead(t *testing.T) {
	path, sections := fileFixture(t)
	sf, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if got := sf.Manifest().Fingerprint.Seed; got != 7 {
		t.Fatalf("manifest seed = %d, want 7", got)
	}
	for _, s := range sections {
		r, info, ok := sf.Section(s.Name)
		if !ok {
			t.Fatalf("section %q missing", s.Name)
		}
		if info.Length != int64(len(s.Data)) {
			t.Fatalf("section %q length = %d, want %d", s.Name, info.Length, len(s.Data))
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(s.Data) {
			t.Fatalf("section %q bytes = %q, want %q", s.Name, got, s.Data)
		}
		if crc := crc32.Checksum(got, castagnoli); crc != info.CRC {
			t.Fatalf("section %q CRC mismatch", s.Name)
		}
	}
	if _, _, ok := sf.Section("nope"); ok {
		t.Fatal("unknown section reported present")
	}
}

// TestOpenFileRangedRead pins the property the replica layer's HTTP range
// downloads rely on: a SectionReader addresses bytes within one section,
// not the container.
func TestOpenFileRangedRead(t *testing.T) {
	path, sections := fileFixture(t)
	sf, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	r, _, _ := sf.Section(SectionIndex)
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 4); err != nil {
		t.Fatal(err)
	}
	if want := string(sections[0].Data[4:9]); string(buf) != want {
		t.Fatalf("ranged read = %q, want %q", buf, want)
	}
}

func TestOpenFileRejectsTruncated(t *testing.T) {
	path, _ := fileFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated container: err = %v, want ErrCorrupt", err)
	}
}

func TestOpenFileRejectsForeign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign")
	if err := os.WriteFile(path, []byte("not a snapshot at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("foreign file: err = %v, want ErrNotSnapshot", err)
	}
}
