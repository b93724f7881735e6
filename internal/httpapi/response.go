package httpapi

import (
	"encoding/json"
	"net/http"
	"strconv"

	"github.com/urbandata/datapolygamy/internal/core"
)

// Relationship is the JSON form of one core.Relationship, with resolution
// and class names spelled out. The daemon's query responses and the CLI's
// -json output both render through it, so their consumers share a parser.
type Relationship struct {
	Function1   string  `json:"function1"`
	Function2   string  `json:"function2"`
	Dataset1    string  `json:"dataset1"`
	Dataset2    string  `json:"dataset2"`
	Spec1       string  `json:"spec1"`
	Spec2       string  `json:"spec2"`
	Spatial     string  `json:"spatial"`
	Temporal    string  `json:"temporal"`
	Class       string  `json:"class"`
	Score       float64 `json:"score"`
	Strength    float64 `json:"strength"`
	PValue      float64 `json:"pValue"`
	QValue      float64 `json:"qValue"`
	Significant bool    `json:"significant"`
}

// Relationships converts query results to their JSON form. The result is
// never nil, so an empty answer renders as [] rather than null.
func Relationships(rels []core.Relationship) []Relationship {
	out := make([]Relationship, 0, len(rels))
	for _, r := range rels {
		out = append(out, Relationship{
			Function1: r.Function1, Function2: r.Function2,
			Dataset1: r.Dataset1, Dataset2: r.Dataset2,
			Spec1: r.Spec1, Spec2: r.Spec2,
			Spatial: r.Res.Spatial.String(), Temporal: r.Res.Temporal.String(),
			Class: r.Class.String(), Score: r.Score, Strength: r.Strength,
			PValue: r.PValue, QValue: r.QValue, Significant: r.Significant,
		})
	}
	return out
}

// QueryStats is the JSON form of core.QueryStats. The daemon's query
// responses and the CLI's -json output both render through it.
type QueryStats struct {
	PairsConsidered int    `json:"pairsConsidered"`
	Pruned          int    `json:"pruned"`
	NotResolvable   int    `json:"notResolvable"`
	Evaluated       int    `json:"evaluated"`
	Significant     int    `json:"significant"`
	Kept            int    `json:"kept"`
	CacheHit        bool   `json:"cacheHit"`
	Coalesced       bool   `json:"coalesced"`
	Duration        string `json:"duration"`
}

// Stats converts a query's counters to their JSON form.
func Stats(st core.QueryStats) QueryStats {
	return QueryStats{
		PairsConsidered: st.PairsConsidered,
		Pruned:          st.Pruned,
		NotResolvable:   st.NotResolvable,
		Evaluated:       st.Evaluated,
		Significant:     st.Significant,
		Kept:            st.Kept,
		CacheHit:        st.CacheHit,
		Coalesced:       st.Coalesced,
		Duration:        st.Duration.String(),
	}
}

// Stage is one per-stage timing entry of a traced query response.
type Stage struct {
	Stage    string  `json:"stage"`
	Duration string  `json:"duration"`
	Seconds  float64 `json:"seconds"`
}

// QueryResponse is the body both query endpoints answer with.
type QueryResponse struct {
	Relationships []Relationship `json:"relationships"`
	Stats         QueryStats     `json:"stats"`
	// Trace is the per-stage breakdown (plan, evaluate, correct, select),
	// present only when the request asked for it. A cache hit reports the
	// stages of the evaluation that produced the cached result.
	Trace []Stage `json:"trace,omitempty"`
}

// EncodeRelationships renders the "relationships" array of a query response:
// the encoding core.Framework.QueryEncoded keeps beside a cached result.
func EncodeRelationships(rels []core.Relationship) ([]byte, error) {
	return json.Marshal(Relationships(rels))
}

// WriteQueryResponse answers one query with the body a QueryResponse encodes
// to. relationships are the bytes of EncodeRelationships and go out as they
// are, so answering a cached query encodes its stats only; with trace, the
// response carries the per-stage timing breakdown.
func WriteQueryResponse(w http.ResponseWriter, relationships []byte, stats core.QueryStats, trace bool) {
	var rest struct {
		Stats QueryStats `json:"stats"`
		Trace []Stage    `json:"trace,omitempty"`
	}
	rest.Stats = Stats(stats)
	if trace {
		for _, st := range stats.Stages {
			rest.Trace = append(rest.Trace, Stage{
				Stage:    st.Stage,
				Duration: st.Duration.String(),
				Seconds:  st.Duration.Seconds(),
			})
		}
	}
	// {"stats":{...}[,"trace":[...]]}: counters, flags and formatted
	// durations, which always encode.
	tail, _ := json.Marshal(rest)
	const head = `{"relationships":`
	tail = append(tail, '\n')
	tail[0] = ','
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(relationships)+len(tail)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(head))
	_, _ = w.Write(relationships)
	_, _ = w.Write(tail)
}
