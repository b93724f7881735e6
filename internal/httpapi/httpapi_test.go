package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/stats"
)

func TestParseClauseFull(t *testing.T) {
	c, err := ParseClause(ClauseRequest{
		MinScore:     0.6,
		MinStrength:  0.4,
		Classes:      []string{"Salient", " extreme "},
		Resolutions:  []Resolution{{Spatial: "city", Temporal: "hour"}},
		Alpha:        0.01,
		Permutations: 500,
		Test:         "Restricted",
		Correction:   "bh",
		MaxQ:         0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.MinScore != 0.6 || c.MinStrength != 0.4 || c.Alpha != 0.01 || c.Permutations != 500 {
		t.Fatalf("scalar fields lost: %+v", c)
	}
	if len(c.Classes) != 2 || c.Classes[0] != feature.Salient || c.Classes[1] != feature.Extreme {
		t.Fatalf("classes = %v", c.Classes)
	}
	if len(c.Resolutions) != 1 {
		t.Fatalf("resolutions = %v", c.Resolutions)
	}
	if c.Correction != stats.BH {
		t.Fatalf("correction = %v", c.Correction)
	}
	if c.MaxQ != 0.2 {
		t.Fatalf("max_q = %v", c.MaxQ)
	}
}

func TestParseClauseDefaults(t *testing.T) {
	c, err := ParseClause(ClauseRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Correction != stats.None {
		t.Fatalf("default correction = %v, want none", c.Correction)
	}
}

func TestParseClauseRejects(t *testing.T) {
	cases := []ClauseRequest{
		{Classes: []string{"bogus"}},
		{Resolutions: []Resolution{{Spatial: "nope", Temporal: "hour"}}},
		{Resolutions: []Resolution{{Spatial: "city", Temporal: "nope"}}},
		{Test: "bayesian"},
		{Correction: "bogus"},
	}
	for i, c := range cases {
		if _, err := ParseClause(c); err == nil {
			t.Errorf("case %d: ParseClause accepted %+v", i, c)
		}
	}
	// The standard and block tests were removed: asking for one names it.
	for _, kind := range []string{"standard", "block"} {
		_, err := ParseClause(ClauseRequest{Test: kind})
		if err == nil || !strings.Contains(err.Error(), "the "+kind+" test was removed") {
			t.Errorf("test %q: err = %v, want one saying the %s test was removed", kind, err, kind)
		}
	}
}

// TestQuerySignatureStability pins the affinity property the router
// depends on: the same request body always hashes to the same canonical
// signature, different clauses to different ones, and empty source /
// target lists stay empty (corpus-independent).
func TestQuerySignatureStability(t *testing.T) {
	req := QueryRequest{Clause: ClauseRequest{MinScore: 0.5, Permutations: 200}}
	q1, err := req.Query()
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := req.Query()
	if q1.Signature() != q2.Signature() {
		t.Fatal("signature not stable across decodes")
	}
	if len(q1.Sources) != 0 || len(q1.Targets) != 0 {
		t.Fatal("empty source/target lists must stay empty")
	}
	other, _ := QueryRequest{Clause: ClauseRequest{MinScore: 0.7, Permutations: 200}}.Query()
	if other.Signature() == q1.Signature() {
		t.Fatal("distinct clauses share a signature")
	}
	named, _ := QueryRequest{Sources: []string{"taxi"}, Clause: req.Clause}.Query()
	if named.Signature() == q1.Signature() {
		t.Fatal("distinct sources share a signature")
	}
}

func TestQueryRequestBadClause(t *testing.T) {
	if _, err := (QueryRequest{Clause: ClauseRequest{Test: "nope"}}).Query(); err == nil {
		t.Fatal("bad clause accepted")
	}
}

func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 418, Error{Error: "teapot"})
	if rec.Code != 418 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "teapot" {
		t.Fatalf("body = %q (%v)", rec.Body.String(), err)
	}
}

// WriteQueryResponse splices pre-encoded relationships into the body; it must
// be, byte for byte, what encoding the QueryResponse a client decodes gives.
func TestWriteQueryResponseMatchesEncoder(t *testing.T) {
	rels := []core.Relationship{
		{Function1: "taxi.count", Function2: "weather.<rain&snow>", Dataset1: "taxi", Dataset2: "weather",
			Class: feature.Extreme, Score: -0.8125, Strength: 1e-7, PValue: 1.0 / 1001, QValue: 3e21, Significant: true},
		{Function1: "a", Function2: "b", Score: 1},
	}
	stats := core.QueryStats{PairsConsidered: 12, Pruned: 5, Evaluated: 7, Significant: 2, Kept: 2, CacheHit: true,
		Duration: 1234 * time.Microsecond}
	stats.Stages = []core.StageTiming{{Stage: "plan", Duration: time.Millisecond}, {Stage: "evaluate", Duration: 3 * time.Second}}
	for _, tc := range []struct {
		name  string
		rels  []core.Relationship
		stats core.QueryStats
		trace bool
	}{
		{"traced", rels, stats, true},
		{"untraced", rels, stats, false},
		{"traced, no stages", rels[:1], core.QueryStats{}, true},
		{"empty answer", nil, stats, false},
	} {
		want := QueryResponse{Relationships: Relationships(tc.rels)}
		var buf bytes.Buffer
		rec := httptest.NewRecorder()
		enc, err := EncodeRelationships(tc.rels)
		if err != nil {
			t.Fatal(err)
		}
		WriteQueryResponse(rec, enc, tc.stats, tc.trace)
		// The client's view: decode, then re-encode with the stock encoder.
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			t.Fatalf("%s: body does not decode: %v\n%s", tc.name, err, rec.Body.String())
		}
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
			t.Errorf("%s: body\n%s\nstock encoder\n%s", tc.name, rec.Body.String(), buf.String())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for %d bytes", tc.name, got, rec.Body.Len())
		}
		if want.Stats.PairsConsidered != tc.stats.PairsConsidered || want.Stats.CacheHit != tc.stats.CacheHit ||
			len(want.Relationships) != len(tc.rels) || (len(want.Trace) > 0) != (tc.trace && len(tc.stats.Stages) > 0) {
			t.Errorf("%s: decoded %+v", tc.name, want)
		}
	}
}
