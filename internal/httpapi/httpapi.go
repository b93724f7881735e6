// Package httpapi holds the JSON wire vocabulary shared by the
// polygamyd server and the polygamyr router: request shapes, the one
// request reader, the clause decoder, and response helpers. The router
// must read a query exactly as the server does — a query it hashes for
// replica affinity has to produce the same canonical signature the
// replica's memo is keyed by, and a request the server refuses must not
// be forwarded — so both binaries read through this one definition
// instead of drifting apart.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/queryparse"
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

// MaxJSONBody caps a JSON request body (a structured query or a
// graph-build clause, both small documents) in the server and the router.
const MaxJSONBody = 1 << 20

// ReadJSON reads r's body, at most limit bytes, and decodes it into v,
// refusing unknown fields. On failure it writes the error response — 413
// for an oversized body, 400 otherwise — and returns ok = false. allowEmpty
// treats an empty body as the zero value (the graph build's optional
// clause). body is the bytes read, for a caller that forwards them.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, v any, allowEmpty bool) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(v); err == nil || (allowEmpty && errors.Is(err, io.EOF)) {
			return body, true
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteJSON(w, http.StatusRequestEntityTooLarge,
			Error{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return nil, false
	}
	WriteJSON(w, http.StatusBadRequest, Error{Error: "decoding request: " + err.Error()})
	return nil, false
}

// ReadQuery reads a query request: a POST's QueryRequest body, read by
// ReadJSON within limit, or a GET's textual query in the q parameter
// (?trace=1 asks for the stage breakdown). On failure it writes the error
// response and returns ok = false. body is the POST's bytes, which the
// router forwards as they came (nil for a GET).
func ReadQuery(w http.ResponseWriter, r *http.Request, limit int64) (q core.Query, body []byte, trace, ok bool) {
	var err error
	if r.Method == http.MethodPost {
		var req QueryRequest
		if body, ok = ReadJSON(w, r, limit, &req, false); !ok {
			return q, nil, false, false
		}
		q, err = req.Query()
		trace = req.Trace
	} else {
		text := r.URL.Query().Get("q")
		if text == "" {
			WriteJSON(w, http.StatusBadRequest, Error{Error: "missing q parameter"})
			return q, nil, false, false
		}
		switch r.URL.Query().Get("trace") {
		case "", "0", "false":
		default:
			trace = true
		}
		q, err = queryparse.Parse(text)
	}
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, Error{Error: err.Error()})
		return q, nil, false, false
	}
	return q, body, trace, true
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
