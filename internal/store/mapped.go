package store

import (
	"fmt"
	"os"
)

// Mapped is a verified snapshot container whose section payloads are
// zero-copy views into a read-only memory mapping of the file. The views
// stay valid until Close; replicas of one host opening the same snapshot
// share the page cache instead of each materializing a heap copy.
//
// On platforms without mmap support (or when mapping fails) Map falls back
// to one private heap buffer, and Assemble builds a container from heap
// payloads already verified: the views and lifetime rules are identical,
// only the page sharing is lost, and a heap container the framework no
// longer reaches is collected like any other memory.
type Mapped struct {
	m        Manifest
	sections map[string][]byte
	zeroCopy bool
	unmap    func() error // noUnmap once closed, and for a heap container
}

// Map opens, fully verifies (magic, version, manifest, every section CRC),
// and memory-maps the container at path. Verification reads every mapped
// byte once — a sequential pass through the page cache — so corruption is
// still rejected up front with the same section-level errors as Read; what
// Map avoids is decoding and heap-materializing the payloads.
//
// The caller must keep the Mapped open for as long as any view derived
// from its sections is in use, and Close it afterwards.
func Map(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("store: %s: file too large to map", path)
	}
	data, unmap, err := mmapFile(f, int(fi.Size()))
	zeroCopy := err == nil
	if err != nil {
		// No mapping available: fall back to a private heap buffer.
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		unmap = noUnmap
	}
	m, sections, err := parseContainer(data, path)
	if err != nil {
		_ = unmap()
		return nil, err
	}
	return &Mapped{m: m, sections: sections, zeroCopy: zeroCopy, unmap: unmap}, nil
}

func noUnmap() error { return nil }

// Assemble is the container holding sections under m's fingerprint and
// clause signature, built in memory from payloads the caller has verified:
// a Verified section's CRC is recorded as given, as Write records it, and
// nothing is checksummed twice. The sections are viewed in place, so the
// caller must not modify them afterwards. A repeated section name is
// ErrCorrupt, as it is in a file.
func Assemble(m Manifest, sections []Section) (*Mapped, error) {
	m.FormatVersion = FormatVersion
	m.Sections = sectionTable(sections)
	views := make(map[string][]byte, len(sections))
	for _, s := range sections {
		if _, dup := views[s.Name]; dup {
			return nil, fmt.Errorf("store: assembling: duplicate section %q: %w", s.Name, ErrCorrupt)
		}
		views[s.Name] = s.Data
	}
	return &Mapped{m: m, sections: views, unmap: noUnmap}, nil
}

// Manifest returns the container's verified manifest.
func (mp *Mapped) Manifest() Manifest { return mp.m }

// Section returns the named payload as a view into the container (nil,
// false when absent). The view is read-only: writing through a mapping
// faults.
func (mp *Mapped) Section(name string) ([]byte, bool) {
	b, ok := mp.sections[name]
	return b, ok
}

// ZeroCopy reports whether the sections alias a true memory mapping (as
// opposed to heap payloads).
func (mp *Mapped) ZeroCopy() bool { return mp.zeroCopy }

// Size returns the total bytes of the mapped (or heap-buffered) section
// payloads: the resident cost of serving this container.
func (mp *Mapped) Size() int {
	n := 0
	for _, b := range mp.sections {
		n += len(b)
	}
	return n
}

// Close releases the mapping. Every view handed out by Section — and every
// bit vector or string built over one — becomes invalid; using it after
// Close is a use-after-free. Close is idempotent, releases nothing for a
// heap container, and is the owner's to call: a framework closes its
// containers under its state lock.
func (mp *Mapped) Close() error {
	unmap := mp.unmap
	mp.unmap = noUnmap
	return unmap()
}
