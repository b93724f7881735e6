package store

import (
	"fmt"
	"os"
	"sync"
)

// Mapped is a verified snapshot container whose section payloads are
// zero-copy views into a read-only memory mapping of the file. The views
// stay valid until Close; replicas of one host opening the same snapshot
// share the page cache instead of each materializing a heap copy.
//
// On platforms without mmap support (or when mapping fails) Map falls back
// to one private heap buffer — the views and lifetime rules are identical,
// only the page sharing is lost.
type Mapped struct {
	m        Manifest
	sections map[string][]byte
	zeroCopy bool
	data     []byte // the whole container: the mapping, or the heap buffer

	mu     sync.Mutex
	unmap  func() error
	closed bool
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
		unmap = func() error { return nil }
	}
	m, sections, err := parseContainer(data, path)
	if err != nil {
		_ = unmap()
		return nil, err
	}
	return &Mapped{m: m, sections: sections, zeroCopy: zeroCopy, data: data, unmap: unmap}, nil
}

// Manifest returns the container's verified manifest.
func (mp *Mapped) Manifest() Manifest { return mp.m }

// Section returns the named payload as a view into the mapping (nil, false
// when absent). The view is read-only: writing through it faults.
func (mp *Mapped) Section(name string) ([]byte, bool) {
	b, ok := mp.sections[name]
	return b, ok
}

// ZeroCopy reports whether the sections alias a true memory mapping (as
// opposed to the heap-buffer fallback).
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

// Evict hands the mapping's resident pages back to the kernel without
// unmapping anything (madvise MADV_DONTNEED where the platform has it). The
// mapping is read-only and shared over a file, so every view stays valid and
// a later read re-faults its page from the page cache: this is for a
// container that is superseded but may still have readers. It does nothing
// on the heap fallback or after Close.
func (mp *Mapped) Evict() error {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if mp.closed || !mp.zeroCopy || len(mp.data) == 0 {
		return nil
	}
	return dropPages(mp.data)
}

// Close releases the mapping. Every view handed out by Section — and every
// bit vector or string built over one — becomes invalid; using it after
// Close is a use-after-free. Close is idempotent.
func (mp *Mapped) Close() error {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if mp.closed {
		return nil
	}
	mp.closed = true
	return mp.unmap()
}
