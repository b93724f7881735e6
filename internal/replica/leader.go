package replica

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/store"
)

var (
	mManifestServed = obsv.NewCounterVec("polygamy_replication_manifest_requests_total",
		"Snapshot manifest requests served by a leader, by result.", "result")
	mSectionServed = obsv.NewCounterVec("polygamy_replication_section_requests_total",
		"Snapshot section downloads served by a leader, by result.", "result")
)

// Source answers "what snapshot is current?" for a leader without paying
// a manifest parse per poll: the parsed manifest and its ETag are cached
// against the file's stat identity (size + mtime), so an unchanged
// snapshot costs one stat call no matter how many followers poll how
// often. Snapshot publication goes through os.Rename, which always
// updates the inode's mtime, so a stale cache hit would require a
// same-size snapshot landing within the stat timestamp granularity — and
// even then, section If-Match checks re-derive the tag from the opened
// file, so a follower can never apply mismatched bytes.
type Source struct {
	path string

	mu       sync.Mutex
	haveStat bool
	size     int64
	modTime  time.Time
	manifest store.Manifest
	etag     string
	parses   int64 // full manifest parses performed (observable in tests)
}

// NewSource serves the snapshot container at path.
func NewSource(path string) *Source { return &Source{path: path} }

// Manifest returns the current snapshot manifest and its ETag,
// re-parsing the container only when the file's stat identity changed
// since the previous call.
func (s *Source) Manifest() (store.Manifest, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, err := os.Stat(s.path)
	if err != nil {
		return store.Manifest{}, "", err
	}
	if s.haveStat && fi.Size() == s.size && fi.ModTime().Equal(s.modTime) {
		return s.manifest, s.etag, nil
	}
	m, err := store.ReadManifest(s.path)
	if err != nil {
		return store.Manifest{}, "", err
	}
	s.haveStat, s.size, s.modTime = true, fi.Size(), fi.ModTime()
	s.manifest, s.etag = m, ManifestETag(m)
	s.parses++
	return s.manifest, s.etag, nil
}

// Parses reports how many full manifest parses the source has performed —
// the ETag short-circuit test pins that polling does not grow this.
func (s *Source) Parses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parses
}

// Leader is the HTTP surface a leader mounts under /v1/snapshot/: the
// versioned manifest and ranged section downloads — everything a follower
// needs, since a snapshot opens without its raw corpus.
type Leader struct {
	src *Source
	mux *http.ServeMux
}

// NewLeader builds the handler for the given snapshot source.
func NewLeader(src *Source) *Leader {
	l := &Leader{src: src, mux: http.NewServeMux()}
	l.mux.HandleFunc("GET /v1/snapshot/manifest", l.handleManifest)
	l.mux.HandleFunc("GET /v1/snapshot/sections/{name}", l.handleSection)
	return l
}

func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) { l.mux.ServeHTTP(w, r) }

// handleManifest serves the current manifest with its ETag. A follower
// polling with If-None-Match pays a 304 and zero body bytes while the
// snapshot is unchanged.
func (l *Leader) handleManifest(w http.ResponseWriter, r *http.Request) {
	m, etag, err := l.src.Manifest()
	if err != nil {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable, httpapi.Error{Error: "snapshot unavailable: " + err.Error()})
		mManifestServed.With("error").Inc()
		return
	}
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		mManifestServed.With("not_modified").Inc()
		return
	}
	mManifestServed.With("changed").Inc()
	httpapi.WriteJSON(w, http.StatusOK, ManifestInfo{ETag: etag, Manifest: m})
}

// handleSection streams one section's payload. The ETag is re-derived
// from the container actually opened — not the source cache — so an
// If-Match follower is guaranteed bytes consistent with the manifest it
// pulled, or a 412 telling it to restart the sync.
func (l *Leader) handleSection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sf, err := store.OpenFile(l.src.path)
	if err != nil {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable, httpapi.Error{Error: "snapshot unavailable: " + err.Error()})
		mSectionServed.With("error").Inc()
		return
	}
	defer sf.Close()
	etag := ManifestETag(sf.Manifest())
	w.Header().Set("ETag", etag)
	if im := r.Header.Get("If-Match"); im != "" && im != etag {
		httpapi.WriteJSON(w, http.StatusPreconditionFailed,
			httpapi.Error{Error: "snapshot changed since manifest was read"})
		mSectionServed.With("stale").Inc()
		return
	}
	rd, info, ok := sf.Section(name)
	if !ok {
		httpapi.WriteJSON(w, http.StatusNotFound, httpapi.Error{Error: fmt.Sprintf("no section %q", name)})
		mSectionServed.With("missing").Inc()
		return
	}
	mSectionServed.With("ok").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Section-CRC", fmt.Sprintf("%08x", info.CRC))
	// ServeContent gives followers HTTP range semantics for free (resuming
	// an interrupted large-section download addresses bytes *within* the
	// section, which is what File.Section readers expose).
	http.ServeContent(w, r, name, time.Time{}, rd)
}
