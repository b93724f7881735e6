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
//
// A publisher that calls Notify after each write wakes the manifest
// requests the leader holds; a snapshot replaced behind the source's back
// is seen when a hold runs out.
type Source struct {
	path string

	mu       sync.Mutex
	notify   chan struct{} // closed and replaced by Notify
	haveStat bool
	size     int64
	modTime  time.Time
	manifest store.Manifest
	etag     string
	parses   int64 // full manifest parses performed (observable in tests)
}

// NewSource serves the snapshot container at path.
func NewSource(path string) *Source { return &Source{path: path, notify: make(chan struct{})} }

// Notify tells the source that a new snapshot was published at its path:
// the next Manifest re-parses it, and every held manifest request wakes.
func (s *Source) Notify() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.haveStat = false
	close(s.notify)
	s.notify = make(chan struct{})
}

// published returns a channel that the next Notify closes.
func (s *Source) published() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.notify
}

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

// maxManifestHold caps how long the leader holds a conditional manifest
// request whose tag still matches, whatever wait the follower asks for.
const maxManifestHold = 30 * time.Second

// Leader is the HTTP surface a leader mounts under /v1/snapshot/: the
// versioned manifest and ranged section downloads — everything a follower
// needs, since a snapshot opens without its raw corpus.
type Leader struct {
	src     *Source
	mux     *http.ServeMux
	closing chan struct{} // closed by Close: held requests answer at once
	close   sync.Once
}

// NewLeader builds the handler for the given snapshot source.
func NewLeader(src *Source) *Leader {
	l := &Leader{src: src, mux: http.NewServeMux(), closing: make(chan struct{})}
	l.mux.HandleFunc("GET /v1/snapshot/manifest", l.handleManifest)
	l.mux.HandleFunc("GET /v1/snapshot/sections/{name}", l.handleSection)
	return l
}

func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) { l.mux.ServeHTTP(w, r) }

// Close ends every held manifest request and stops holding new ones, so a
// shutting-down server drains at once (polygamyd registers it with
// http.Server.RegisterOnShutdown). Sections are still served.
func (l *Leader) Close() { l.close.Do(func() { close(l.closing) }) }

// handleManifest serves the current manifest with its ETag. A follower
// polling with If-None-Match pays a 304 and zero body bytes while the
// snapshot is unchanged. With ?wait=<duration> (capped at
// maxManifestHold) and a tag that still matches, the leader holds the
// request until the source is told of a publish that changes the tag, the
// wait runs out, the client hangs up or the leader closes, and then
// answers as above: a follower that asks again at once sees a new
// snapshot when it is published, not on its next poll.
func (l *Leader) handleManifest(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			httpapi.WriteJSON(w, http.StatusBadRequest, httpapi.Error{Error: fmt.Sprintf("bad wait %q", v)})
			mManifestServed.With("error").Inc()
			return
		}
		wait = min(d, maxManifestHold)
	}
	hold := time.NewTimer(wait)
	defer hold.Stop()
	for {
		// Taken before the manifest is read, so a publish between the read
		// and the select below still wakes it.
		published := l.src.published()
		m, etag, err := l.src.Manifest()
		if err != nil {
			httpapi.WriteJSON(w, http.StatusServiceUnavailable, httpapi.Error{Error: "snapshot unavailable: " + err.Error()})
			mManifestServed.With("error").Inc()
			return
		}
		if r.Header.Get("If-None-Match") != etag {
			w.Header().Set("ETag", etag)
			mManifestServed.With("changed").Inc()
			httpapi.WriteJSON(w, http.StatusOK, ManifestInfo{ETag: etag, Manifest: m})
			return
		}
		if wait == 0 {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			mManifestServed.With("not_modified").Inc()
			return
		}
		select {
		case <-published: // read again: a re-save of the same bytes keeps the hold
		case <-hold.C:
			wait = 0
		case <-r.Context().Done():
			wait = 0
		case <-l.closing:
			wait = 0
		}
	}
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
