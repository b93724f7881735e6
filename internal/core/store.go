package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/store"
)

// This file is the corpus lifecycle layer of the framework: one snapshot
// container (internal/store) bundles everything a framework derives from
// its corpus — the index snapshot and, when built, the relationship-graph
// snapshot — behind the Save / Load / Open entry points, the only way
// derived state leaves or enters a framework (persist_flat.go holds the
// section codecs).
//
// The container's manifest carries the corpus fingerprint (seed, time
// range, data set names in insertion order). Load verifies it before
// decoding any section, so a snapshot from a different corpus — or a
// truncated, bit-flipped, or foreign file, rejected by the store layer
// itself — fails with a precise error instead of a deep decode failure.

// fingerprintLocked captures the corpus identity of this framework. The
// caller must hold the state lock (shared or exclusive).
func (f *Framework) fingerprintLocked() store.Fingerprint {
	return store.Fingerprint{
		Seed:     f.opts.Seed,
		MinTS:    f.minTS,
		MaxTS:    f.maxTS,
		Datasets: append([]string{}, f.order...),
	}
}

// checkFingerprintLocked verifies that a snapshot's fingerprint matches
// this framework's corpus, reporting the first mismatch precisely.
func (f *Framework) checkFingerprintLocked(fp store.Fingerprint) error {
	if fp.Seed != f.opts.Seed {
		return fmt.Errorf("core: snapshot was built with seed %d, framework has %d", fp.Seed, f.opts.Seed)
	}
	if len(fp.Datasets) != len(f.order) {
		return fmt.Errorf("core: snapshot covers %d data sets, framework has %d", len(fp.Datasets), len(f.order))
	}
	for i, name := range fp.Datasets {
		if f.order[i] != name {
			return fmt.Errorf("core: snapshot data set %d is %q, framework has %q", i, name, f.order[i])
		}
	}
	if fp.MinTS != f.minTS || fp.MaxTS != f.maxTS {
		return fmt.Errorf("core: snapshot corpus time range [%d,%d] does not match [%d,%d]",
			fp.MinTS, fp.MaxTS, f.minTS, f.maxTS)
	}
	return nil
}

// Save atomically writes the framework's derived state to path as one
// snapshot container: the index section always, and the graph section when
// the relationship graph has been built: the last one published, read
// without waiting for a build in flight. The corpus data itself is not
// stored — the snapshot names the corpus, and answers every read from its
// index — so a snapshot stays small: bit vectors, tile tables, and cached
// Monte Carlo candidates. The write goes through a temp file and os.Rename,
// so a crash mid-save can never corrupt a previous snapshot at path.
//
// The section payloads are flat and mmap-friendly: Load views them
// zero-copy instead of decoding.
func (f *Framework) Save(path string) error {
	t0 := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	idx, err := f.encodeFlatIndexLocked()
	if err != nil {
		return err
	}
	m := store.Manifest{Fingerprint: f.fingerprintLocked()}
	sections := []store.Section{{Name: store.SectionIndex, Data: idx}}
	if rec := f.published.Load(); rec != nil {
		sections = append(sections, store.Section{Name: store.SectionGraph, Data: f.encodeFlatGraphLocked(rec)})
		m.ClauseSig = graphSignature(rec.clause)
	}
	if err := store.Write(path, m, sections); err != nil {
		return err
	}
	mSnapshotSaves.Inc()
	mSnapshotSaveDuration.Observe(time.Since(t0).Seconds())
	return nil
}

// Load restores a snapshot written by Save into this framework. A framework
// with registered data sets must have exactly the snapshot's corpus: the
// manifest fingerprint (seed, data set names, corpus time range) is verified
// before any section is decoded. A framework with none adopts the
// snapshot's names and time range (the seed must still match) and is then
// read-only: it answers queries and builds graphs from the index, but holds
// no raw data to add, ingest or append with. The store layer has already
// rejected truncated, bit-flipped, or foreign containers with section-level
// errors. After a successful Load the framework is indexed — and holds the
// materialized relationship graph, when one was saved — without any
// rebuild; a failed Load leaves the framework unchanged.
//
// Load takes the writer mutex, then the state lock exclusively. A
// successful Load records its map, parse and install stages once each in
// polygamy_snapshot_load_stage_duration_seconds.
//
// The snapshot is memory-mapped and its sections are viewed in place: bit
// vectors and strings alias the mapping, which the framework keeps alive
// until Close — so processes serving the same snapshot share one copy of
// its pages, and warm start decodes nothing but the manifest.
func (f *Framework) Load(path string) error {
	t0 := time.Now()
	mp, err := store.Map(path)
	if err != nil {
		return err
	}
	return f.load(mp, t0)
}

// LoadContainer is Load of an open container, such as one store.Assemble
// built from verified heap payloads (a follower's epoch, collected with the
// framework). The framework keeps it until Close; a refused load closes it.
func (f *Framework) LoadContainer(mp *store.Mapped) error {
	return f.load(mp, time.Now())
}

// load installs mp, opened since t0: the one path of Load and LoadContainer.
func (f *Framework) load(mp *store.Mapped, t0 time.Time) (err error) {
	mapped := time.Since(t0)
	adopted := false
	defer func() {
		if !adopted {
			mp.Close()
		}
	}()
	m := mp.Manifest()
	idx, ok := mp.Section(store.SectionIndex)
	if !ok {
		return fmt.Errorf("core: snapshot has no index section")
	}
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		// No corpus of its own: adopt the snapshot's, until Load fails.
		order, minTS, maxTS := f.order, f.minTS, f.maxTS
		f.order = slices.Clone(m.Fingerprint.Datasets)
		f.minTS, f.maxTS = m.Fingerprint.MinTS, m.Fingerprint.MaxTS
		defer func() {
			if err != nil {
				f.order, f.minTS, f.maxTS = order, minTS, maxTS
			}
		}()
	}
	if err := f.checkFingerprintLocked(m.Fingerprint); err != nil {
		return err
	}
	// Parse the index, then parse and stage the graph section (when
	// present) against the parsed index's entry lists, before anything is
	// installed: a snapshot that half-loads — indexed but graphless — would
	// look warm-started to the caller while having silently dropped the
	// expensive all-pairs families, and a subsequent re-save would persist
	// that loss.
	t1 := time.Now()
	snap, err := parseFlatIndex(idx)
	if err != nil {
		return err
	}
	var graph *flatGraphSnap
	if g, ok := mp.Section(store.SectionGraph); ok {
		parsed, err := parseFlatGraph(g, snap.funcs)
		if err != nil {
			return err
		}
		if err := f.stageGraphLocked(&parsed); err != nil {
			return err
		}
		graph = &parsed
	}
	t2 := time.Now()
	if err := f.installIndexLocked(snap); err != nil {
		return err
	}
	if graph != nil {
		// Installing the index replaced it wholesale and dropped the graph;
		// publish the already-validated saved one over it.
		f.applyGraphLocked(graph)
	}
	installed := time.Since(t2)
	// The views alias the container, and readers hold graphs and entries
	// lock-free, so it is adopted for the framework's lifetime (Close), not
	// this index generation. A heap container's Close is a no-op.
	f.mappings = append(f.mappings, mp)
	adopted = true
	f.snapZeroCopy = mp.ZeroCopy()
	mode := "heap"
	if f.snapZeroCopy {
		mode = "mmap"
		mSnapshotMappedBytes.Set(float64(mp.Size()))
	}
	mSnapshotLoads.With(mode).Inc()
	mSnapshotLoadDuration.Observe(time.Since(t0).Seconds())
	mSnapshotLoadStageDuration.With("map").Observe(mapped.Seconds())
	mSnapshotLoadStageDuration.With("parse").Observe(t2.Sub(t1).Seconds())
	mSnapshotLoadStageDuration.With("install").Observe(installed.Seconds())
	mIndexFunctions.Set(float64(f.index.numFunctions()))
	return nil
}

// LoadedSnapshot reports how the last successful Load sourced its
// sections: whether they are zero-copy views of a live memory mapping.
// Its container version is store.FormatVersion, the only one Load
// accepts. ok is false when the framework holds no loaded snapshot
// (none was loaded, or Close released it).
func (f *Framework) LoadedSnapshot() (zeroCopy bool, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.snapZeroCopy, len(f.mappings) > 0
}

// Close releases the snapshot mappings the framework has adopted across
// its Loads. It must only be called when no reader can still hold state
// obtained from this framework — entries, graphs, and query results may
// alias a mapping. A framework that never loaded a snapshot has
// nothing to release; Close is then a no-op. The framework must not be
// used after Close.
func (f *Framework) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, mp := range f.mappings {
		if err := mp.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.mappings = nil
	return first
}

// OpenOptions configures Open: the framework options plus, optionally, the
// raw corpus, which a snapshot deliberately does not store (Section 5.2: the
// index persists precomputed features, not data).
type OpenOptions struct {
	Options
	// Datasets is the raw corpus, in the same order it was registered when
	// the snapshot was saved. Reads need only the snapshot; nil opens a
	// read-only framework, and only a framework given its raw data can add,
	// ingest or append.
	Datasets []*dataset.Dataset
}

// Open constructs a framework and restores the snapshot at path — the
// warm-start path: the expensive index build (and graph build, when one was
// saved) is replaced by a verified snapshot load. With Datasets, the
// framework registers them first and Load checks them against the snapshot.
func Open(path string, opts OpenOptions) (*Framework, error) {
	f, err := New(opts.Options)
	if err != nil {
		return nil, err
	}
	for _, d := range opts.Datasets {
		if err := f.AddDataset(d); err != nil {
			return nil, err
		}
	}
	if err := f.Load(path); err != nil {
		return nil, err
	}
	return f, nil
}
