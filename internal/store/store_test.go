package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{
		Fingerprint: Fingerprint{Seed: 5, MinTS: 100, MaxTS: 900, Datasets: []string{"taxi", "weather"}},
		ClauseSig:   "alpha=0.05",
	}
}

func testSections() []Section {
	return []Section{
		{Name: SectionIndex, Data: bytes.Repeat([]byte{0xAB, 0x01, 0x7F}, 333)},
		{Name: SectionGraph, Data: []byte("graph-payload")},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	m, secs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != FormatVersion {
		t.Errorf("manifest version = %d, want %d", m.FormatVersion, FormatVersion)
	}
	fp := m.Fingerprint
	if fp.Seed != 5 || fp.MinTS != 100 || fp.MaxTS != 900 || len(fp.Datasets) != 2 {
		t.Errorf("fingerprint = %+v", fp)
	}
	if m.ClauseSig != "alpha=0.05" {
		t.Errorf("clause sig = %q", m.ClauseSig)
	}
	if len(m.Sections) != 2 || m.Sections[0].Name != SectionIndex || m.Sections[1].Name != SectionGraph {
		t.Fatalf("section table = %+v", m.Sections)
	}
	for _, want := range testSections() {
		if !bytes.Equal(secs[want.Name], want.Data) {
			t.Errorf("section %q payload differs after round trip", want.Name)
		}
	}
	// ReadManifest sees the same manifest without touching payloads.
	m2, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ClauseSig != m.ClauseSig || len(m2.Sections) != len(m.Sections) {
		t.Errorf("ReadManifest = %+v, Read manifest = %+v", m2, m)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	next := []Section{{Name: SectionIndex, Data: []byte("second generation")}}
	if err := Write(path, testManifest(), next); err != nil {
		t.Fatal(err)
	}
	_, secs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(secs[SectionIndex]) != "second generation" {
		t.Errorf("rewrite not visible: %q", secs[SectionIndex])
	}
	if _, ok := secs[SectionGraph]; ok {
		t.Error("stale graph section survived rewrite")
	}
	// No temp-file droppings in the directory.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two writes, want 1", len(entries))
	}
}

// TestCrashBeforeRenameLeavesPreviousSnapshot simulates a crash mid-save:
// a new container is fully staged in a temp file, but the process dies
// before the rename. The previous snapshot must stay loadable.
func TestCrashBeforeRenameLeavesPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	// Stage the second generation without publishing it — everything Write
	// does except the final os.Rename.
	tmp, err := os.CreateTemp(dir, "corpus.snap.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeContainer(tmp, testManifest(), []Section{{Name: SectionIndex, Data: []byte("half-baked")}}); err != nil {
		t.Fatal(err)
	}
	tmp.Close() // crash here: rename never happens

	_, secs, err := Read(path)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after simulated crash: %v", err)
	}
	if !bytes.Equal(secs[SectionIndex], testSections()[0].Data) {
		t.Error("previous snapshot's index section changed after simulated crash")
	}
}

func TestWriteFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	// Writing over a path whose "file" is a directory fails at rename time;
	// the staged temp file must be cleaned up.
	path := filepath.Join(dir, "occupied")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, testManifest(), testSections()); err == nil {
		t.Fatal("Write over a directory should fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp file leaked: directory holds %d entries, want 1", len(entries))
	}
}

func TestReadRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("DPOL")},
		{"foreign", []byte("#!/bin/sh\necho this is not a snapshot at all\n")},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(path); !errors.Is(err, ErrNotSnapshot) {
			t.Errorf("%s: err = %v, want ErrNotSnapshot", tc.name, err)
		}
	}
}

// TestReadRejectsOtherVersions: exactly FormatVersion is read. Older
// generations (1 and 4–14 were written by earlier builds; 6 stored each
// tested candidate with its six strings, 7 sampled one-region p-values, 8
// entry-level thresholds and edge counts, 9 no occupancy summaries, 10
// one-directional p-values, 11 a clause signature and selection rule
// beside the graph section's clause, 12 per-tile thresholds and the
// clause's exhaustive flag, 13 stored p-values, 14 no word-occupancy
// bitmaps) and
// future ones fail with ErrVersion, which callers answer with a rebuild.
func TestReadRejectsOtherVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, FormatVersion + 1, 0xFF} {
		data[8] = v // low byte of the little-endian version field
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(path); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: Read err = %v, want ErrVersion", v, err)
		}
		if _, err := ReadManifest(path); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: ReadManifest err = %v, want ErrVersion", v, err)
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last section: the error must name it.
	cut := filepath.Join(dir, "cut.snap")
	if err := os.WriteFile(cut, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(cut)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated section: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), SectionGraph) {
		t.Errorf("truncation error does not name the damaged section: %v", err)
	}
	// Cut into the manifest itself.
	if err := os.WriteFile(cut, data[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(cut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated manifest: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the first section's payload (the last len(graph)+
	// len(index) bytes of the file are the payloads, index first).
	payloadStart := len(data) - len(testSections()[0].Data) - len(testSections()[1].Data)
	flip := filepath.Join(dir, "flip.snap")
	data[payloadStart+7] ^= 0x10
	if err := os.WriteFile(flip, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(flip)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), SectionIndex) || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("bit-flip error does not name the damaged section: %v", err)
	}

	// The manifest has no checksum of its own; damage that breaks its JSON
	// is still ErrCorrupt, from every reader.
	data[payloadStart+7] ^= 0x10
	data[16] = 'x' // the manifest's opening brace
	if err := os.WriteFile(flip, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(flip); !errors.Is(err, ErrCorrupt) {
		t.Errorf("undecodable manifest: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsTrailingGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
}

// TestWriteDoesNotMutateCallerManifest is the regression test for a
// slice-aliasing bug: writeContainer used to truncate-and-append over the
// caller's Manifest.Sections backing array, silently rewriting the
// caller's own section table.
func TestWriteDoesNotMutateCallerManifest(t *testing.T) {
	m := testManifest()
	// A pre-populated table with spare capacity, exactly the shape the bug
	// needed: len < cap, so in-place appends overwrite live entries.
	m.Sections = append(make([]SectionInfo, 0, 8),
		SectionInfo{Name: "caller-owned", Length: 123, CRC: 0xDEAD})
	want := append([]SectionInfo(nil), m.Sections...)

	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, m, testSections()); err != nil {
		t.Fatal(err)
	}
	if len(m.Sections) != len(want) || m.Sections[0] != want[0] {
		t.Errorf("Write mutated the caller's manifest sections: %+v, want %+v", m.Sections, want)
	}
	// And the written container carries the real table, not the caller's.
	rm, _, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Sections) != 2 || rm.Sections[0].Name != SectionIndex {
		t.Errorf("written section table = %+v", rm.Sections)
	}
}

// TestReadRejectsLyingSectionLength hand-crafts a container whose
// manifest claims an absurd section length: Read must reject it as
// corrupt instead of attempting the allocation (the manifest itself has
// no checksum, so a bit flip there must still fail safely).
func TestReadRejectsLyingSectionLength(t *testing.T) {
	m := Manifest{
		FormatVersion: FormatVersion,
		Sections:      []SectionInfo{{Name: SectionIndex, Length: 1 << 60, CRC: 0}},
	}
	mbuf, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	file.WriteString("DPOLYSNP")
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], FormatVersion)
	file.Write(word[:])
	binary.LittleEndian.PutUint32(word[:], uint32(len(mbuf)))
	file.Write(word[:])
	file.Write(mbuf)
	for file.Len()%8 != 0 {
		file.WriteByte(0) // sections start on the alignment boundary after the manifest
	}
	file.WriteString("tiny payload")

	path := filepath.Join(t.TempDir(), "lying.snap")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying section length: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), SectionIndex) {
		t.Errorf("error does not name the section: %v", err)
	}
}
