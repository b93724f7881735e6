package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

func TestMapRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	mp, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if mp.Manifest().ClauseSig != "alpha=0.05" {
		t.Errorf("manifest = %+v", mp.Manifest())
	}
	for _, want := range testSections() {
		got, ok := mp.Section(want.Name)
		if !ok || !bytes.Equal(got, want.Data) {
			t.Errorf("section %q differs through Map", want.Name)
		}
	}
	if _, ok := mp.Section("absent"); ok {
		t.Error("Section reported an absent name")
	}
	if err := mp.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := mp.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestWriteVerifiedCRC: Write records a Verified section's CRC as given —
// a right one opens like a computed one, a wrong one fails Map with
// ErrCorrupt, because Map checks every section whoever wrote it.
func TestWriteVerifiedCRC(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta uint32
	}{{"right crc", 0}, {"wrong crc", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			secs := testSections()
			for i := range secs {
				secs[i].CRC = Checksum(secs[i].Data) + tc.delta
				secs[i].Verified = true
			}
			path := filepath.Join(t.TempDir(), "corpus.snap")
			if err := Write(path, testManifest(), secs); err != nil {
				t.Fatal(err)
			}
			m, err := ReadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, info := range m.Sections {
				if info.CRC != secs[i].CRC {
					t.Fatalf("section %q recorded crc %08x, supplied %08x", info.Name, info.CRC, secs[i].CRC)
				}
			}
			mp, err := Map(path)
			if tc.delta == 0 {
				if err != nil {
					t.Fatalf("Map: %v", err)
				}
				mp.Close()
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Map of a wrong supplied crc: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestAssemble: a container built in memory records a Verified CRC as
// given, views the payloads in place, and refuses a repeated name, as Map
// refuses one in a file.
func TestAssemble(t *testing.T) {
	secs := testSections()
	for i := range secs {
		secs[i].CRC, secs[i].Verified = Checksum(secs[i].Data), true
	}
	mp, err := Assemble(testManifest(), secs)
	if err != nil {
		t.Fatal(err)
	}
	if mp.ZeroCopy() || mp.Manifest().ClauseSig != "alpha=0.05" || mp.Manifest().FormatVersion != FormatVersion {
		t.Errorf("manifest = %+v, zero-copy %v", mp.Manifest(), mp.ZeroCopy())
	}
	for i, s := range secs {
		got, ok := mp.Section(s.Name)
		if !ok || &got[0] != &s.Data[0] {
			t.Errorf("section %q is not the payload it was given", s.Name)
		}
		if info := mp.Manifest().Sections[i]; info != (SectionInfo{Name: s.Name, Length: int64(len(s.Data)), CRC: s.CRC}) {
			t.Errorf("table row %d = %+v", i, info)
		}
	}
	if err := mp.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := Assemble(testManifest(), append(secs, secs[0])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("repeated section: err = %v, want ErrCorrupt", err)
	}
}

// TestMapSectionsAreAligned pins the tentpole invariant: every section
// payload starts on an 8-byte file offset, so uint64 slabs inside it can
// be viewed in place.
func TestMapSectionsAreAligned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	// Deliberately odd-length payloads so alignment needs real padding.
	sections := []Section{
		{Name: SectionIndex, Data: bytes.Repeat([]byte{7}, 1003)},
		{Name: SectionGraph, Data: bytes.Repeat([]byte{9}, 41)},
	}
	if err := Write(path, testManifest(), sections); err != nil {
		t.Fatal(err)
	}
	mp, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if !mp.ZeroCopy() {
		t.Skip("mmap unavailable on this platform; alignment is moot")
	}
	// The address of each view is what bitvec.FromBytes keys its zero-copy
	// decision on: assert every section starts 8-byte aligned in memory
	// (mmap regions are page-aligned, so this is equivalent to the file
	// offset being 8-aligned).
	for _, s := range sections {
		view, ok := mp.Section(s.Name)
		if !ok || len(view) == 0 {
			t.Fatalf("section %q missing or empty", s.Name)
		}
		if rem := uintptr(unsafe.Pointer(&view[0])) % 8; rem != 0 {
			t.Errorf("section %q view is %d bytes off 8-byte alignment", s.Name, rem)
		}
	}
}

// TestMapRejectsCorruption: Map verifies exactly what Read verifies.
func TestMapRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)-3] ^= 0x40
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: Map err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(bad, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation: Map err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(bad, []byte("junkfile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(bad); !errors.Is(err, ErrNotSnapshot) {
		t.Errorf("foreign: Map err = %v, want ErrNotSnapshot", err)
	}
}

// TestMapRejectsNonzeroPadding: padding bytes are covered by no section
// CRC, so the parser itself must verify they are zero.
func TestMapRejectsNonzeroPadding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	// 13-byte payload forces 3 padding bytes after the section.
	if err := Write(path, testManifest(), []Section{{Name: SectionIndex, Data: []byte("thirteen byte")}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 0xFF // last byte is padding
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Map(path)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "padding") {
		t.Errorf("nonzero padding: err = %v", err)
	}
}
