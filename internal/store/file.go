package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// File is a snapshot container opened for random-access section reads: the
// manifest is read and verified once, and each section's file offset is
// computed so callers can stream or range-read individual payloads without
// buffering the whole container. This is the leader side of snapshot
// shipping (internal/replica): a follower downloads exactly the sections
// it is missing, and HTTP range requests address bytes inside one section.
//
// A File wraps one open descriptor. os.Rename-based snapshot publication
// (Write) replaces the path, not the inode, so a File keeps reading the
// container it opened even if a newer snapshot lands at the same path —
// every section handed out is consistent with the manifest returned by
// Manifest.
//
// Unlike Read, opening a File verifies the manifest and each section's
// *bounds* but not payload checksums: verifying would require streaming
// every payload, defeating the point of random access. Callers that need
// integrity (the replica follower does) verify the manifest CRC against
// the bytes they actually read.
type File struct {
	f       *os.File
	m       Manifest
	offsets map[string]int64
}

// OpenFile opens the container at path for section-level random access.
// The header and manifest are fully verified (same errors as ReadManifest);
// section offsets are computed from the manifest's section table and
// checked against the file size, so a truncated container is rejected here
// rather than surfacing as a short read later.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := readManifest(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Bytes consumed so far: the fixed header plus the manifest payload.
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: locating section start: %w", path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s: sizing container: %w", path, err)
	}
	off = align8(off)
	offsets := make(map[string]int64, len(m.Sections))
	for _, info := range m.Sections {
		if info.Length < 0 {
			f.Close()
			return nil, fmt.Errorf("store: %s: section %q has negative length %d: %w",
				path, info.Name, info.Length, ErrCorrupt)
		}
		if _, dup := offsets[info.Name]; dup {
			f.Close()
			return nil, fmt.Errorf("store: %s: duplicate section %q: %w", path, info.Name, ErrCorrupt)
		}
		if info.Length > size-off {
			f.Close()
			return nil, fmt.Errorf("store: %s: section %q truncated: claims %d bytes but the file has at most %d left: %w",
				path, info.Name, info.Length, size-off, ErrCorrupt)
		}
		offsets[info.Name] = off
		off = align8(off + info.Length)
	}
	return &File{f: f, m: m, offsets: offsets}, nil
}

// Manifest returns the container's verified manifest.
func (sf *File) Manifest() Manifest { return sf.m }

// Section returns a reader over one section's payload bytes and its
// manifest entry. ok is false when the container has no such section. The
// reader stays valid until Close; concurrent readers over distinct
// SectionReaders are safe (ReadAt on one descriptor).
func (sf *File) Section(name string) (*io.SectionReader, SectionInfo, bool) {
	off, ok := sf.offsets[name]
	if !ok {
		return nil, SectionInfo{}, false
	}
	for _, info := range sf.m.Sections {
		if info.Name == name {
			return io.NewSectionReader(sf.f, off, info.Length), info, true
		}
	}
	return nil, SectionInfo{}, false
}

// Close releases the underlying descriptor. Section readers obtained
// earlier must not be used afterwards.
func (sf *File) Close() error { return sf.f.Close() }

// Checksum computes the container format's payload checksum (CRC-32C,
// Castagnoli) over b — the same function Write records in the manifest —
// so remote readers can verify downloaded section bytes against a
// manifest entry.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
