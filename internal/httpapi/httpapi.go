// Package httpapi holds the JSON wire vocabulary shared by the
// polygamyd server and the polygamyr router: request shapes, the
// clause decoder, and response helpers. The router must parse exactly
// the dialect the server accepts — a query it hashes for replica
// affinity has to produce the same canonical signature the replica's
// cache is keyed by — so both binaries import this one definition
// instead of drifting apart.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// ClauseRequest is the JSON form of core.Clause with names instead of
// enum values.
type ClauseRequest struct {
	MinScore         float64      `json:"minScore,omitempty"`
	MinStrength      float64      `json:"minStrength,omitempty"`
	Classes          []string     `json:"classes,omitempty"`     // "salient", "extreme"
	Resolutions      []Resolution `json:"resolutions,omitempty"` // nil => all common
	Alpha            float64      `json:"alpha,omitempty"`
	Permutations     int          `json:"permutations,omitempty"`
	SkipSignificance bool         `json:"skipSignificance,omitempty"`
	Test             string       `json:"test,omitempty"`       // "restricted", the default and only test
	Correction       string       `json:"correction,omitempty"` // "none" (default), "bh", "by"
	MaxQ             float64      `json:"max_q,omitempty"`      // keep only q <= max_q (0 => no filter)
}

// Resolution names one (spatial, temporal) resolution pair.
type Resolution struct {
	Spatial  string `json:"spatial"`
	Temporal string `json:"temporal"`
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Sources []string      `json:"sources,omitempty"`
	Targets []string      `json:"targets,omitempty"`
	Clause  ClauseRequest `json:"clause"`
	// Trace asks for the per-stage timing breakdown of the evaluation in
	// the response (stages are always measured; this only controls the
	// wire). The GET form is ?trace=1.
	Trace bool `json:"trace,omitempty"`
}

// Query converts the request to the engine form. The empty Sources /
// Targets ("all data sets") stay empty, so Query().Signature() is
// corpus-independent — the property replica-affinity hashing needs.
func (q QueryRequest) Query() (core.Query, error) {
	clause, err := ParseClause(q.Clause)
	if err != nil {
		return core.Query{}, err
	}
	return core.Query{Sources: q.Sources, Targets: q.Targets, Clause: clause}, nil
}

// Error is the uniform JSON error body.
type Error struct {
	Error string `json:"error"`
}

// ParseClause decodes the wire clause into the engine form, rejecting
// unknown enum names. The values are the engine's to check
// (core.Clause.Validate), as they are for the query grammar.
func ParseClause(c ClauseRequest) (core.Clause, error) {
	out := core.Clause{
		MinScore:         c.MinScore,
		MinStrength:      c.MinStrength,
		Alpha:            c.Alpha,
		Permutations:     c.Permutations,
		SkipSignificance: c.SkipSignificance,
	}
	for _, name := range c.Classes {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "salient":
			out.Classes = append(out.Classes, feature.Salient)
		case "extreme":
			out.Classes = append(out.Classes, feature.Extreme)
		default:
			return out, fmt.Errorf("unknown feature class %q (want salient or extreme)", name)
		}
	}
	for _, rw := range c.Resolutions {
		sr, err := spatial.ParseResolution(rw.Spatial)
		if err != nil {
			return out, err
		}
		tr, err := temporal.ParseResolution(rw.Temporal)
		if err != nil {
			return out, err
		}
		out.Resolutions = append(out.Resolutions, core.Resolution{Spatial: sr, Temporal: tr})
	}
	if err := core.CheckTest(strings.ToLower(strings.TrimSpace(c.Test))); err != nil {
		return out, err
	}
	corr, err := stats.ParseCorrection(c.Correction)
	if err != nil {
		return out, err
	}
	out.Correction = corr
	out.MaxQ = c.MaxQ
	return out, nil
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
