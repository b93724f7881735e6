// Package store implements the snapshot container of the corpus lifecycle
// layer: one versioned, checksummed file bundling a framework's index
// snapshot, its relationship-graph snapshot (when built), and a manifest
// describing what the file holds and which corpus it belongs to.
//
// # Container layout (format v16)
//
//	offset 0   magic        [8]byte  "DPOLYSNP"
//	offset 8   version      uint32   container format version (little-endian)
//	offset 12  manifestLen  uint32   length of the JSON-encoded manifest
//	offset 16  manifest     JSON     Manifest (fingerprint, clause signature,
//	                                 per-section name/length/CRC table)
//	...        padding      zeros    to the next 8-byte boundary
//	...        sections     bytes    section payloads in manifest order, each
//	                                 zero-padded to an 8-byte boundary
//
// Every section payload starts on an 8-byte file offset, which is what
// lets Map hand out zero-copy views whose uint64 bit-vector words alias the
// mapped file directly (see internal/bitvec.FromBytes). The manifest is the
// same JSON object the replication tier serves (replica.ManifestInfo), so a
// container and the wire describe a snapshot with one schema.
//
// The manifest is written before the payloads, so a reader can inspect
// what a container holds — and reject a foreign or stale one — without
// decoding any section. Every section carries a CRC-32C checksum; Read and
// Map verify all of them, so truncation and bit rot are detected at the
// section level rather than surfacing as a decode error deep inside the
// framework. A large section is checked in chunks across cores, whose
// checksums combine into the section's one CRC (Checksum).
//
// # Atomicity
//
// Write stages the container in a temporary file in the destination
// directory, syncs it, and publishes it with os.Rename. A crash at any
// point before the rename leaves the previous snapshot untouched; there is
// no moment at which the destination path holds a partial container.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a Data Polygamy snapshot container.
var magic = [8]byte{'D', 'P', 'O', 'L', 'Y', 'S', 'N', 'P'}

// FormatVersion is the one container format version this package writes
// and reads. It moves in step with the flat section generation in
// internal/core, whose flatSnapshotVersion comment holds the history (16:
// each index record carries four word slabs, its sign vectors, and no
// union), so "a v16 snapshot" is unambiguous across layers; a container of
// any other version fails with ErrVersion and is rebuilt, not converted.
const FormatVersion = 16

// Well-known section names.
const (
	SectionIndex = "index"
	SectionGraph = "graph"
)

// maxManifestLen bounds the manifest a reader will buffer, so a corrupt
// length field cannot demand an absurd allocation.
const maxManifestLen = 64 << 20

// sectionAlign is the file-offset alignment of every section payload.
const sectionAlign = 8

// Sentinel errors; every failure returned by Read wraps one of these, so
// callers can distinguish "not ours" from "ours but damaged".
var (
	// ErrNotSnapshot marks a file that is not a snapshot container at all
	// (wrong magic, or shorter than the fixed header).
	ErrNotSnapshot = errors.New("not a polygamy snapshot container")
	// ErrVersion marks a container written by an incompatible format
	// version.
	ErrVersion = errors.New("unsupported snapshot container version")
	// ErrCorrupt marks a container with valid magic and version whose
	// contents are damaged: truncated payloads, checksum mismatches, or an
	// undecodable manifest.
	ErrCorrupt = errors.New("corrupt snapshot container")
)

// Fingerprint identifies the corpus a snapshot was produced from. A
// snapshot is only loadable into a framework whose fingerprint matches:
// the index stores precomputed features over the corpus's shared
// timelines, and the Monte Carlo seed pins every cached p-value.
type Fingerprint struct {
	// Seed is the framework's city / randomization seed.
	Seed int64
	// MinTS and MaxTS are the corpus time range (Unix seconds).
	MinTS, MaxTS int64
	// Datasets are the registered data set names in insertion order.
	Datasets []string
}

// SectionInfo describes one section in the container.
type SectionInfo struct {
	Name   string
	Length int64
	CRC    uint32 // CRC-32C (Castagnoli) of the payload
}

// Manifest describes a container: which corpus it belongs to, what was
// persisted, and how to verify it.
type Manifest struct {
	// FormatVersion echoes the container header version for convenience.
	FormatVersion int
	// Fingerprint identifies the corpus.
	Fingerprint Fingerprint
	// ClauseSig is the canonical clause signature the graph section's
	// candidate cache was built under; empty when no graph section is
	// present.
	ClauseSig string
	// Sections lists the payloads in file order.
	Sections []SectionInfo
}

// Section is one named payload to persist.
type Section struct {
	Name string
	Data []byte
	// CRC, when Verified, is the payload's CRC-32C as the caller checked it
	// (a follower, against the manifest): Write and Assemble record it
	// without hashing Data again; Map and Read of the file still check it.
	CRC      uint32
	Verified bool
}

// align8 rounds n up to the next multiple of the section alignment.
func align8(n int64) int64 {
	return (n + sectionAlign - 1) &^ (sectionAlign - 1)
}

// Write atomically writes a container holding the given sections to path:
// the container is staged in a temporary file next to path and published
// with os.Rename, so a crash mid-write can never corrupt an existing
// snapshot at path. The manifest's section table is filled in by Write
// from the sections, checksumming each payload unless the section carries
// a Verified CRC; any caller-provided table is ignored (and left untouched —
// the caller's Sections slice is never written through).
func Write(path string, m Manifest, sections []Section) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: staging snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = writeContainer(tmp, m, sections); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	// Best effort: make the rename itself durable. Failure to sync the
	// directory does not un-publish the snapshot, so it is not an error.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// sectionTable is a fresh manifest table for sections (never the caller's
// backing array), checksumming each payload without a Verified CRC.
func sectionTable(sections []Section) []SectionInfo {
	table := make([]SectionInfo, 0, len(sections))
	for _, s := range sections {
		crc := s.CRC
		if !s.Verified {
			crc = Checksum(s.Data)
		}
		table = append(table, SectionInfo{Name: s.Name, Length: int64(len(s.Data)), CRC: crc})
	}
	return table
}

var zeroPad [sectionAlign]byte

// writeContainer serialises the container to w. Split from Write so tests
// can stage a container without publishing it (simulating a crash before
// the rename).
func writeContainer(w io.Writer, m Manifest, sections []Section) error {
	m.FormatVersion = FormatVersion
	m.Sections = sectionTable(sections)
	mbuf, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	var header [16]byte
	copy(header[:8], magic[:])
	binary.LittleEndian.PutUint32(header[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(header[12:16], uint32(len(mbuf)))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	if _, err := w.Write(mbuf); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	off := int64(16 + len(mbuf))
	pad := func() error {
		n := align8(off) - off
		if n == 0 {
			return nil
		}
		if _, err := w.Write(zeroPad[:n]); err != nil {
			return fmt.Errorf("store: writing padding: %w", err)
		}
		off += n
		return nil
	}
	if err := pad(); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s.Data); err != nil {
			return fmt.Errorf("store: writing section %q: %w", s.Name, err)
		}
		off += int64(len(s.Data))
		if err := pad(); err != nil {
			return err
		}
	}
	return nil
}

// Read opens and fully verifies the container at path: magic, format
// version, manifest, and every section's length and checksum. It returns
// the manifest and the section payloads by name. Foreign files, containers
// from other format versions, and truncated or bit-flipped containers are
// rejected with errors wrapping ErrNotSnapshot, ErrVersion, and ErrCorrupt
// respectively — naming the damaged section where one can be identified.
//
// The returned payload slices alias one private buffer holding the file's
// bytes; callers may retain them freely. For the zero-copy open path use
// Map instead.
func Read(path string) (Manifest, map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, nil, err
	}
	return parseContainer(data, path)
}

// parseContainer verifies a whole in-memory container and returns section
// views aliasing data. Shared by Read (heap buffer) and Map (mmap region).
func parseContainer(data []byte, path string) (Manifest, map[string][]byte, error) {
	br := bytes.NewReader(data)
	m, err := readManifest(br, path)
	if err != nil {
		return Manifest{}, nil, err
	}
	off := int64(len(data)) - int64(br.Len()) // header + manifest bytes consumed
	skipPad := func() error {
		end := align8(off)
		if end > int64(len(data)) {
			return fmt.Errorf("store: %s: truncated inside section padding: %w", path, ErrCorrupt)
		}
		for ; off < end; off++ {
			if data[off] != 0 {
				return fmt.Errorf("store: %s: nonzero section padding at offset %d: %w", path, off, ErrCorrupt)
			}
		}
		return nil
	}
	if err := skipPad(); err != nil {
		return Manifest{}, nil, err
	}
	sections := make(map[string][]byte, len(m.Sections))
	for _, info := range m.Sections {
		if info.Length < 0 {
			return Manifest{}, nil, fmt.Errorf("store: %s: section %q has negative length %d: %w",
				path, info.Name, info.Length, ErrCorrupt)
		}
		// The length comes from the (unchecksummed) manifest: bound it by
		// the bytes actually present before slicing, so a corrupt length
		// field is an ErrCorrupt, not a panic.
		if info.Length > int64(len(data))-off {
			return Manifest{}, nil, fmt.Errorf("store: %s: section %q truncated: claims %d bytes but the file has at most %d left: %w",
				path, info.Name, info.Length, int64(len(data))-off, ErrCorrupt)
		}
		if _, dup := sections[info.Name]; dup {
			return Manifest{}, nil, fmt.Errorf("store: %s: duplicate section %q: %w", path, info.Name, ErrCorrupt)
		}
		payload := data[off : off+info.Length : off+info.Length]
		if crc := Checksum(payload); crc != info.CRC {
			return Manifest{}, nil, fmt.Errorf("store: %s: section %q checksum mismatch (%08x != %08x): %w",
				path, info.Name, crc, info.CRC, ErrCorrupt)
		}
		sections[info.Name] = payload
		off += info.Length
		if err := skipPad(); err != nil {
			return Manifest{}, nil, err
		}
	}
	// Trailing bytes mean the manifest does not describe the file we read:
	// treat it as damage, not as forward compatibility.
	if off != int64(len(data)) {
		return Manifest{}, nil, fmt.Errorf("store: %s: trailing bytes after last section: %w", path, ErrCorrupt)
	}
	return m, sections, nil
}

// ReadManifest reads and verifies only the container header and manifest —
// enough to identify a snapshot's corpus and contents without buffering
// any section payload.
func ReadManifest(path string) (Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, err
	}
	defer f.Close()
	return readManifest(f, path)
}

func readManifest(r io.Reader, path string) (Manifest, error) {
	var header [16]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return Manifest{}, fmt.Errorf("store: %s: file shorter than the container header: %w", path, ErrNotSnapshot)
	}
	if !bytes.Equal(header[:8], magic[:]) {
		return Manifest{}, fmt.Errorf("store: %s: bad magic %q: %w", path, header[:8], ErrNotSnapshot)
	}
	v := binary.LittleEndian.Uint32(header[8:12])
	if v != FormatVersion {
		return Manifest{}, fmt.Errorf("store: %s: container version %d, this build reads %d: %w",
			path, v, FormatVersion, ErrVersion)
	}
	mlen := binary.LittleEndian.Uint32(header[12:16])
	if mlen > maxManifestLen {
		return Manifest{}, fmt.Errorf("store: %s: manifest length %d exceeds limit: %w", path, mlen, ErrCorrupt)
	}
	mbuf := make([]byte, mlen)
	if _, err := io.ReadFull(r, mbuf); err != nil {
		return Manifest{}, fmt.Errorf("store: %s: manifest truncated (want %d bytes): %w", path, mlen, ErrCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(mbuf, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: %s: decoding manifest: %v: %w", path, err, ErrCorrupt)
	}
	// The header, not the manifest's own echo, is authoritative.
	m.FormatVersion = int(v)
	return m, nil
}
