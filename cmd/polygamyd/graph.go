package main

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/relgraph"
)

// This file is the serving surface of the materialized relationship graph:
// build it once (POST /v1/graph/build), then explore it with cheap reads —
// the graph is an immutable value, so every GET below is a lock-free walk
// over a snapshot even while a rebuild runs.
//
//	POST /v1/graph/build      {"clause":{...}} (optional body) — build or
//	                          incrementally extend the graph, then re-save
//	                          the snapshot (-snapshot only)
//	GET  /v1/graph/stats      sizes, degree distribution, hubs, rollup
//	GET  /v1/graph/neighbors  ?function=<key> — edges incident to a function
//	                          ?dataset=<name>[&hops=k] — edges incident to a
//	                          data set, plus k-hop reachability when hops is
//	                          given
//	GET  /v1/graph/top        ?k=10&by=score|strength|qvalue[&max_q=0.05] —
//	                          top-k edges, optionally q-value-filtered

type graphStatsWire struct {
	Datasets        int    `json:"datasets"`
	Pairs           int    `json:"pairs"`
	PairsComputed   int    `json:"pairsComputed"`
	PairsReused     int    `json:"pairsReused"`
	PairsConsidered int    `json:"pairsConsidered"`
	Pruned          int    `json:"pruned"`
	NotResolvable   int    `json:"notResolvable"`
	Evaluated       int    `json:"evaluated"`
	Edges           int    `json:"edges"`
	Duration        string `json:"duration"`
}

// graph returns the current graph or writes the standard "not built"
// error.
func (s *server) graph(w http.ResponseWriter) (*relgraph.Graph, bool) {
	g, ok := s.fw().RelGraph()
	if !ok {
		writeJSON(w, http.StatusConflict,
			errorResponse{Error: "relationship graph not built; POST /v1/graph/build first"})
	}
	return g, ok
}

func (s *server) handleGraphBuild(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w) {
		return
	}
	// The body is optional: empty means the zero clause (paper defaults).
	var req struct {
		Clause clauseRequest `json:"clause"`
	}
	if _, ok := httpapi.ReadJSON(w, r, s.maxJSONBody, &req, true); !ok {
		return
	}
	clause, err := parseClause(req.Clause)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	stats, err := s.fw().BuildGraph(clause)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// A leader's followers receive the graph through the re-saved snapshot.
	if _, err := s.saveSnapshot(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, graphStatsWire{
		Datasets:        stats.Datasets,
		Pairs:           stats.Pairs,
		PairsComputed:   stats.PairsComputed,
		PairsReused:     stats.PairsReused,
		PairsConsidered: stats.PairsConsidered,
		Pruned:          stats.Pruned,
		NotResolvable:   stats.NotResolvable,
		Evaluated:       stats.Evaluated,
		Edges:           stats.Edges,
		Duration:        stats.WallDuration.String(),
	})
}

func (s *server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	g, ok := s.graph(w)
	if !ok {
		return
	}
	st := g.Stats()
	type hubWire struct {
		Name   string `json:"name"`
		Degree int    `json:"degree"`
	}
	hubs := func(hs []relgraph.Hub) []hubWire {
		out := make([]hubWire, 0, len(hs))
		for _, h := range hs {
			out = append(out, hubWire(h))
		}
		return out
	}
	type rollupWire struct {
		Dataset1  string  `json:"dataset1"`
		Dataset2  string  `json:"dataset2"`
		Edges     int     `json:"edges"`
		MaxAbsTau float64 `json:"maxAbsTau"`
		MaxRho    float64 `json:"maxRho"`
		MinPValue float64 `json:"minPValue"`
		MinQValue float64 `json:"minQValue"`
	}
	rollup := make([]rollupWire, 0)
	for _, rel := range g.Rollup(0) {
		rollup = append(rollup, rollupWire(rel))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":        st.Nodes,
		"edges":        st.Edges,
		"datasets":     st.Datasets,
		"minDegree":    st.MinDegree,
		"maxDegree":    st.MaxDegree,
		"meanDegree":   st.MeanDegree,
		"topFunctions": hubs(st.TopFunctions),
		"topDatasets":  hubs(st.TopDatasets),
		"rollup":       rollup,
	})
}

func (s *server) handleGraphNeighbors(w http.ResponseWriter, r *http.Request) {
	g, ok := s.graph(w)
	if !ok {
		return
	}
	fn := r.URL.Query().Get("function")
	ds := r.URL.Query().Get("dataset")
	if (fn == "") == (ds == "") {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "exactly one of ?function= or ?dataset= is required"})
		return
	}
	resp := map[string]any{}
	if fn != "" {
		resp["edges"] = relgraph.EdgesJSON(g.Neighbors(fn))
	} else {
		resp["edges"] = relgraph.EdgesJSON(g.DatasetEdges(ds))
		if hopsStr := r.URL.Query().Get("hops"); hopsStr != "" {
			hops, err := strconv.Atoi(hopsStr)
			if err != nil || hops < 1 {
				writeJSON(w, http.StatusBadRequest,
					errorResponse{Error: fmt.Sprintf("bad hops %q (want a positive integer)", hopsStr)})
				return
			}
			resp["hops"] = g.KHop(ds, hops)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleGraphTop(w http.ResponseWriter, r *http.Request) {
	g, ok := s.graph(w)
	if !ok {
		return
	}
	k := 10
	if kStr := r.URL.Query().Get("k"); kStr != "" {
		v, err := strconv.Atoi(kStr)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("bad k %q (want a positive integer)", kStr)})
			return
		}
		k = v
	}
	by := relgraph.ByScore
	switch r.URL.Query().Get("by") {
	case "", "score":
	case "strength":
		by = relgraph.ByStrength
	case "qvalue":
		by = relgraph.ByQValue
	default:
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "bad by parameter (want score, strength, or qvalue)"})
		return
	}
	maxQ := 0.0
	if qStr := r.URL.Query().Get("max_q"); qStr != "" {
		// !(v > 0) also rejects NaN, which would silently disable the
		// filter while the client believes a cutoff was applied.
		v, err := strconv.ParseFloat(qStr, 64)
		if err != nil || !(v > 0) {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("bad max_q %q (want a positive number)", qStr)})
			return
		}
		maxQ = v
	}
	writeJSON(w, http.StatusOK, map[string]any{"edges": relgraph.EdgesJSON(g.TopK(k, by, maxQ))})
}
