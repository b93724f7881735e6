package main

import (
	"fmt"
	"net/http"

	"github.com/urbandata/datapolygamy/internal/dataset"
)

// This file is the append surface of the corpus lifecycle layer: a live
// server grows a registered data set with new time without a restart and
// without dropping derived state.
//
//	POST /v1/datasets/{name}/append
//	    body: a time slice in the CSV format of internal/dataset. The slice
//	    must match the registered data set's schema; its name line may name
//	    the data set or be anything (the path wins). Returns 202 with a job
//	    ID; the append — incremental tile recompute, a delta graph refresh
//	    when a graph is built, and a snapshot re-save when the server runs
//	    with -snapshot — happens in the background.
//
// An append keeps the relationship graph live throughout: only the tiles
// covering new time are computed, and only graph edges whose supporting
// window changed are re-tested under the remembered clause. Results are
// byte-identical to a from-scratch rebuild (asserted by
// TestServerAppendEquivalence).

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w) {
		return
	}
	// The path identifies the target; the CSV name line is advisory.
	name := r.PathValue("name")
	d := s.readCSVBody(w, r, "slice", name)
	if d == nil {
		return
	}
	registered := false
	for _, n := range s.fw().Datasets() {
		if n == name {
			registered = true
			break
		}
	}
	if !registered {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown dataset %q", name)})
		return
	}
	job := s.jobs.Start("append", d.Name, func() (map[string]any, error) {
		return s.runAppend(d)
	})
	writeJSON(w, http.StatusAccepted, map[string]any{"job": wireJob(job)})
}

// runAppend is the body of one append job: the incremental tile-level
// append, then — as in runIngest — refreshAndSave, whose graph refresh is
// a delta here: only pairs the append dropped are recomputed.
func (s *server) runAppend(d *dataset.Dataset) (map[string]any, error) {
	st, err := s.fw().AppendSlice(d)
	if err != nil {
		return nil, err
	}
	result := map[string]any{
		"dataset":           d.Name,
		"extended":          st.Extended,
		"tilesComputed":     st.TilesComputed,
		"tilesReused":       st.TilesReused,
		"entriesRebuilt":    st.Functions,
		"entriesReused":     st.EntriesReused,
		"changedDatasets":   st.ChangedDatasets,
		"graphPairsDropped": st.GraphPairsDropped,
		"fellBack":          st.FellBack,
		"appendWall":        st.WallDuration.String(),
	}
	if err := s.refreshAndSave(result); err != nil {
		return nil, err
	}
	return result, nil
}
