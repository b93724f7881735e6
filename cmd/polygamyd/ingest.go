package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/jobs"
)

// This file is the runtime-ingestion surface of the corpus lifecycle
// layer: a live server accepts new CSV data sets without a restart.
//
//	POST /v1/datasets   body: one data set in the CSV format of
//	                    internal/dataset (the polygamy CLI corpus format).
//	                    Returns 202 with a job ID; the ingestion — the
//	                    incremental index job, a graph refresh when a
//	                    graph is built, and a snapshot re-save when the
//	                    server runs with -snapshot — happens in the
//	                    background. Readers are never blocked: the core
//	                    ingestion publishes by epoch swap.
//	GET  /v1/jobs       all retained jobs, newest first
//	GET  /v1/jobs/{id}  one job
//
// Query results involving the new data set are byte-identical to a
// from-scratch build that included it all along (asserted by
// TestServerIngestEquivalence).

// jobWire is the JSON form of one background job.
type jobWire struct {
	ID       string         `json:"id"`
	Kind     string         `json:"kind"`
	Detail   string         `json:"detail"`
	Status   string         `json:"status"`
	Error    string         `json:"error,omitempty"`
	Created  string         `json:"created"`
	Started  string         `json:"started,omitempty"`
	Finished string         `json:"finished,omitempty"`
	Result   map[string]any `json:"result,omitempty"`
}

func wireJob(j jobs.Job) jobWire {
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	return jobWire{
		ID:       j.ID,
		Kind:     j.Kind,
		Detail:   j.Detail,
		Status:   string(j.Status),
		Error:    j.Error,
		Created:  stamp(j.Created),
		Started:  stamp(j.Started),
		Finished: stamp(j.Finished),
		Result:   j.Result,
	}
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w) {
		return
	}
	d := s.readCSVBody(w, r, "data set", "")
	if d == nil {
		return
	}
	job := s.jobs.Start("ingest", d.Name, func() (map[string]any, error) {
		return s.runIngest(d)
	})
	writeJSON(w, http.StatusAccepted, map[string]any{"job": wireJob(job)})
}

// readCSVBody parses a write's request body as one data set, named name
// when that is not empty (the CSV name line is then advisory). The CSV is
// parsed synchronously — a malformed body should fail the request, not a
// job the client has to dig out of /v1/jobs — and the expensive work runs
// in the background. On failure it answers 413 for a body over the ingest
// limit, 400 for one that does not parse or validate (what names the body
// in the message), and returns nil.
func (s *server) readCSVBody(w http.ResponseWriter, r *http.Request, what, name string) *dataset.Dataset {
	d, err := dataset.ReadCSV(http.MaxBytesReader(w, r.Body, s.maxIngestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return nil
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "parsing CSV " + what + ": " + err.Error()})
		return nil
	}
	if name != "" {
		d.Name = name // ReadCSV validated d; a non-empty name keeps it valid
	}
	return d
}

// runIngest is the body of one ingestion job: the incremental epoch-swap
// ingestion, then the graph refresh and snapshot re-save of refreshAndSave.
func (s *server) runIngest(d *dataset.Dataset) (map[string]any, error) {
	st, err := s.fw().IngestDataset(d)
	if err != nil {
		return nil, err
	}
	result := map[string]any{
		"dataset":   d.Name,
		"functions": st.Functions,
		"datasets":  st.Datasets,
		"indexWall": st.WallDuration.String(),
	}
	if err := s.refreshAndSave(result); err != nil {
		return nil, err
	}
	return result, nil
}

// refreshAndSave is the tail every corpus-changing job shares, mirroring
// what the operator has set up: when a graph is materialized, an
// incremental refresh under the clause the framework remembers for it (the
// one it was built or loaded under, so the stored families are
// reused and the selection unchanged), then a snapshot re-save when the
// server runs with -snapshot, so the next restart and the followers see
// the change. Both are recorded in the job result.
func (s *server) refreshAndSave(result map[string]any) error {
	if clause, built := s.fw().GraphClause(); built {
		gs, err := s.fw().BuildGraph(clause)
		if err != nil {
			return fmt.Errorf("graph refresh: %w", err)
		}
		result["graphEdges"] = gs.Edges
		result["graphPairsComputed"] = gs.PairsComputed
		result["graphPairsReused"] = gs.PairsReused
	}
	path, err := s.saveSnapshot()
	if err != nil {
		return err
	}
	if path != "" {
		result["snapshot"] = path
	}
	return nil
}

// saveSnapshot re-saves the snapshot when the server runs with -snapshot,
// so the next restart and the followers see the change: the source is
// told of the publish, which answers the followers' held manifest
// requests. It returns the path written, or "" without -snapshot.
func (s *server) saveSnapshot() (string, error) {
	if s.snapshotPath == "" {
		return "", nil
	}
	if err := s.fw().Save(s.snapshotPath); err != nil {
		return "", fmt.Errorf("snapshot re-save: %w", err)
	}
	if s.source != nil {
		s.source.Notify()
	}
	return s.snapshotPath, nil
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	out := make([]jobWire, 0, len(list))
	for _, j := range list {
		out = append(out, wireJob(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, wireJob(j))
}
