package main

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/jobs"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/replica"
	"github.com/urbandata/datapolygamy/internal/store"
)

// defaultMaxIngestBody caps an ingested CSV data set, which can
// legitimately run to tens of megabytes; JSON bodies are capped at
// httpapi.MaxJSONBody. Oversized bodies get 413 with a JSON error.
const defaultMaxIngestBody = 64 << 20 // POST /v1/datasets (CSV)

// server is the HTTP shell around one indexed Framework. All handlers run
// concurrently; the Framework's read path is thread-safe post-BuildIndex.
//
// fw is an accessor, not a field: a standalone server wraps one fixed
// framework, while a replica-mode server resolves through its follower's
// atomically swapped epoch pointer — every handler picks up a freshly
// synced snapshot on its next call without any coordination.
type server struct {
	fw      func() *core.Framework
	mux     *http.ServeMux
	started time.Time
	jobs    *jobs.Manager
	logger  *slog.Logger

	// Corpus-lifecycle configuration, set before serving starts.
	snapshotPath  string // re-save target after ingestion ("" = none)
	warmStart     bool   // the index was loaded, not built
	maxJSONBody   int64
	maxIngestBody int64

	// Leader mode (-snapshot): saveSnapshot tells source of every publish,
	// which wakes the manifest requests leader holds.
	source *replica.Source
	leader *replica.Leader

	// Replica mode: follower supplies the serving framework and the
	// status endpoint; writes are rejected (the leader owns the corpus).
	follower *replica.Follower
	readOnly bool
}

// newServer wraps one fixed framework — the standalone and leader form.
func newServer(fw *core.Framework) *server {
	return newServerFn(func() *core.Framework { return fw })
}

func newServerFn(fw func() *core.Framework) *server {
	s := &server{
		fw: fw, mux: http.NewServeMux(), started: time.Now(),
		jobs:          jobs.NewManager(),
		logger:        slog.Default(),
		maxJSONBody:   httpapi.MaxJSONBody,
		maxIngestBody: defaultMaxIngestBody,
	}
	s.mux.Handle("GET /metrics", obsv.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /v1/datasets", s.handleIngest)
	s.mux.HandleFunc("POST /v1/datasets/{name}/append", s.handleAppend)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/graph/build", s.handleGraphBuild)
	s.mux.HandleFunc("GET /v1/graph/stats", s.handleGraphStats)
	s.mux.HandleFunc("GET /v1/graph/neighbors", s.handleGraphNeighbors)
	s.mux.HandleFunc("GET /v1/graph/top", s.handleGraphTop)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	return s
}

// newReplicaServer serves a follower's epoch-swapped framework
// read-only: ingest, append, and graph builds are the leader's business;
// this process answers queries and serves the graph it was shipped.
func newReplicaServer(f *replica.Follower) *server {
	s := newServerFn(f.Framework)
	s.follower = f
	s.readOnly = true
	s.warmStart = true // every epoch is a warm snapshot load
	s.mux.HandleFunc("GET /v1/replica/status", s.handleReplicaStatus)
	return s
}

// enableLeader mounts the snapshot-shipping surface (manifest and section
// downloads).
func (s *server) enableLeader(src *replica.Source) {
	s.source, s.leader = src, replica.NewLeader(src)
	s.mux.Handle("GET /v1/snapshot/manifest", s.leader)
	s.mux.Handle("GET /v1/snapshot/sections/{name}", s.leader)
}

// rejectWrite answers a mutating request on a read-only replica.
func (s *server) rejectWrite(w http.ResponseWriter) bool {
	if !s.readOnly {
		return false
	}
	writeJSON(w, http.StatusForbidden,
		errorResponse{Error: "this server is a read replica; send writes to the leader"})
	return true
}

func (s *server) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.follower.Status())
}

// enablePprof mounts net/http/pprof's profiling endpoints (behind the
// -pprof flag; they expose stacks and heap contents, so not by default).
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ---- wire types ----

// The query vocabulary (clause, query, response and error bodies) and the
// request reader live in internal/httpapi so the polygamyr router, the CLI
// and the tests read the exact same dialect.
type (
	clauseRequest  = httpapi.ClauseRequest
	resolutionWire = httpapi.Resolution
	queryRequest   = httpapi.QueryRequest
	errorResponse  = httpapi.Error
)

// ---- request decoding ----

func parseClause(c clauseRequest) (core.Clause, error) { return httpapi.ParseClause(c) }

// ---- handlers ----

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

func (s *server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type dsWire struct {
		Name      string `json:"name"`
		Functions int    `json:"functions,omitempty"`
	}
	fw := s.fw() // one framework per response: a replica's epoch may swap
	var out []dsWire
	for _, name := range fw.Datasets() {
		d := dsWire{Name: name}
		if st, ok := fw.DatasetIndexStats(name); ok {
			d.Functions = st.Functions
		}
		out = append(out, d)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	fw := s.fw() // one framework per response: a replica's epoch may swap
	// Snapshot provenance: how this corpus came to be serving. source is
	// "warm" when the index was loaded from a snapshot at startup, "cold"
	// when it was built; format and mmap describe the loaded container
	// (absent when no snapshot was ever loaded).
	snapshot := map[string]any{
		"path":   s.snapshotPath,
		"source": "cold",
	}
	if s.warmStart {
		snapshot["source"] = "warm"
	}
	if zeroCopy, ok := fw.LoadedSnapshot(); ok {
		snapshot["format"] = store.FormatVersion
		snapshot["mmap"] = zeroCopy
	}
	resp := map[string]any{
		"uptime":    time.Since(s.started).Round(time.Millisecond).String(),
		"datasets":  len(fw.Datasets()),
		"functions": fw.NumFunctions(),
		"warmStart": s.warmStart,
		"snapshot":  snapshot,
		// rebuilds counts full derived-state discards over the framework's
		// lifetime (a write whose new data set starts in an earlier step
		// than the corpus); an operator watching this sees exactly when
		// incrementality was lost.
		"rebuilds": fw.Rebuilds(),
	}
	if s.follower != nil {
		resp["replica"] = s.follower.Status()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery answers one relationship query, structured (POST) or textual
// (GET), with the per-stage timing breakdown when the request asks for it.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, _, trace, ok := httpapi.ReadQuery(w, r, s.maxJSONBody)
	if !ok {
		return
	}
	rels, stats, err := s.fw().QueryEncoded(q, httpapi.EncodeRelationships)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	httpapi.WriteQueryResponse(w, rels, stats, trace)
}

func writeJSON(w http.ResponseWriter, status int, v any) { httpapi.WriteJSON(w, status, v) }
