package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// testCorpus builds the two planted data sets of the test corpus: wind
// and trips deviate together at the same event hours.
func testCorpus(t *testing.T) []*dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	wind := &dataset.Dataset{
		Name: "wind", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"speed"},
	}
	trips := &dataset.Dataset{
		Name: "trips", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"count"},
	}
	events := map[int]bool{}
	for len(events) < 40 {
		events[rng.Intn(testCorpusHours)] = true
	}
	for i := 0; i < testCorpusHours; i++ {
		w := 10 + rng.NormFloat64()*0.4
		c := 400 + rng.NormFloat64()*3
		if events[i] {
			w = 55 + rng.Float64()*10
			c = 20 + rng.Float64()*4
		}
		ts := testCorpusStart.Add(time.Duration(i) * time.Hour).Unix()
		wind.Tuples = append(wind.Tuples, dataset.Tuple{Region: 0, TS: ts, Values: []float64{w}})
		trips.Tuples = append(trips.Tuples, dataset.Tuple{Region: 0, TS: ts, Values: []float64{c}})
	}
	return []*dataset.Dataset{wind, trips}
}

// testCorpusHours and testCorpusStart pin the test corpus window, shared
// by the ingestion fixtures (which must not extend the time range).
const testCorpusHours = 24 * 7 * 52

var testCorpusStart = time.Date(2012, time.January, 1, 0, 0, 0, 0, time.UTC)

// testFrameworkWith builds an indexed framework over the planted corpus
// plus any extra data sets.
func testFrameworkWith(t *testing.T, extra ...*dataset.Dataset) *core.Framework {
	t.Helper()
	city, err := spatial.Generate(spatial.Config{Seed: 3, GridW: 24, GridH: 24, Neighborhoods: 8, ZipCodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{City: city, Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(testCorpus(t), extra...) {
		if err := fw.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return fw
}

func testFramework(t *testing.T) *core.Framework {
	t.Helper()
	return testFrameworkWith(t)
}

func postQuery(t *testing.T, client *http.Client, base string, req queryRequest) (httpapi.QueryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out httpapi.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	// Health.
	resp, err := client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Datasets.
	resp, err = client.Get(srv.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		Datasets []struct {
			Name      string `json:"name"`
			Functions int    `json:"functions"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ds.Datasets) != 2 || ds.Datasets[0].Functions == 0 {
		t.Fatalf("datasets = %+v", ds)
	}

	// Structured query finds the planted relationship.
	out, code := postQuery(t, client, srv.URL, queryRequest{
		Sources: []string{"wind"},
		Clause:  clauseRequest{Permutations: 100},
	})
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if len(out.Relationships) == 0 {
		t.Fatal("no relationships found for the planted pair")
	}
	if out.Stats.Kept != len(out.Relationships) {
		t.Errorf("stats.Kept = %d, want %d", out.Stats.Kept, len(out.Relationships))
	}

	// The identical query again is a cache hit.
	out2, _ := postQuery(t, client, srv.URL, queryRequest{
		Sources: []string{"wind"},
		Clause:  clauseRequest{Permutations: 100},
	})
	if !out2.Stats.CacheHit {
		t.Error("identical query should be a cache hit")
	}

	// Textual query.
	q := url.QueryEscape("find relationships between wind and trips at (week, city)")
	resp, err = client.Get(srv.URL + "/v1/query?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	var tq httpapi.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&tq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("textual query status = %d", resp.StatusCode)
	}
	if len(tq.Relationships) == 0 {
		t.Error("textual query found no relationships")
	}
}

// TestHandlersReadOneFramework: a replica's framework accessor returns
// whichever epoch is current, so a handler that called it more than once
// could report one epoch's data sets beside another's function counts.
// Here the accessor alternates between two frameworks on every call, and
// each /v1/stats and /v1/datasets response must still describe one of them.
func TestHandlersReadOneFramework(t *testing.T) {
	extra := testCorpus(t)[0]
	extra.Name = "wind2"
	fws := [2]*core.Framework{testFramework(t), testFrameworkWith(t, extra)}
	var calls atomic.Int64
	srv := httptest.NewServer(newServerFn(func() *core.Framework { return fws[calls.Add(1)%2] }))
	defer srv.Close()

	type dsWire struct {
		Name      string `json:"name"`
		Functions int    `json:"functions"`
	}
	var wantStats [2][2]int
	var wantDatasets [2][]dsWire
	for i, fw := range fws {
		wantStats[i] = [2]int{len(fw.Datasets()), fw.NumFunctions()}
		for _, n := range fw.Datasets() {
			st, _ := fw.DatasetIndexStats(n)
			wantDatasets[i] = append(wantDatasets[i], dsWire{n, st.Functions})
		}
	}
	get := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	// Several requests each, so every handler starts on both frameworks.
	for i := 0; i < 4; i++ {
		var st struct{ Datasets, Functions int }
		get("/v1/stats", &st)
		if got := [2]int{st.Datasets, st.Functions}; got != wantStats[0] && got != wantStats[1] {
			t.Errorf("/v1/stats reports %d data sets and %d functions, want %v or %v", st.Datasets, st.Functions, wantStats[0], wantStats[1])
		}
		var ds struct{ Datasets []dsWire }
		get("/v1/datasets", &ds)
		if !slices.Equal(ds.Datasets, wantDatasets[0]) && !slices.Equal(ds.Datasets, wantDatasets[1]) {
			t.Errorf("/v1/datasets = %+v, want %+v or %+v", ds.Datasets, wantDatasets[0], wantDatasets[1])
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	cases := []struct {
		name string
		req  queryRequest
	}{
		{"unknown dataset", queryRequest{Sources: []string{"nope"}}},
		{"bad class", queryRequest{Clause: clauseRequest{Classes: []string{"weird"}}}},
		{"bad resolution", queryRequest{Clause: clauseRequest{Resolutions: []resolutionWire{{Spatial: "galaxy", Temporal: "hour"}}}}},
		{"bad test kind", queryRequest{Clause: clauseRequest{Test: "psychic"}}},
		{"bad correction", queryRequest{Clause: clauseRequest{Correction: "bonferroni"}}},
		{"negative max_q", queryRequest{Clause: clauseRequest{MaxQ: -0.1}}},
	}
	for _, tc := range cases {
		if _, code := postQuery(t, client, srv.URL, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}

	// Malformed JSON body.
	resp, err := client.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}

	// Textual query without q.
	resp, err = client.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q: status = %d, want 400", resp.StatusCode)
	}
}

// TestClauseVerdictBothDoors sends each clause through both query doors,
// the grammar (GET /v1/query?q=) and the JSON clause (POST /v1/query), and
// requires the same verdict: both answer, or both refuse with a 400 whose
// error names the offending field. The values are checked in one place
// (core.Clause.Validate) that both doors reach.
func TestClauseVerdictBothDoors(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()
	for _, tc := range []struct {
		where  string
		clause clauseRequest
		status int
		names  string // a substring of both errors
	}{
		{"permutations = 20", clauseRequest{Permutations: 20}, http.StatusOK, ""},
		{"test = restricted and permutations = 20", clauseRequest{Test: "restricted", Permutations: 20}, http.StatusOK, ""},
		{"alpha = 0.01 and permutations = 20 and qvalue <= 0.5", clauseRequest{Alpha: 0.01, Permutations: 20, MaxQ: 0.5}, http.StatusOK, ""},
		{"permutations = -5", clauseRequest{Permutations: -5}, http.StatusBadRequest, "permutations"},
		{"permutations = 2000000000", clauseRequest{Permutations: 2e9}, http.StatusBadRequest, "permutations"},
		{"alpha = 3", clauseRequest{Alpha: 3}, http.StatusBadRequest, "alpha"},
		{"alpha = 1", clauseRequest{Alpha: 1}, http.StatusBadRequest, "alpha"},
		{"alpha = -0.05", clauseRequest{Alpha: -0.05}, http.StatusBadRequest, "alpha"},
		{"qvalue <= -1", clauseRequest{MaxQ: -1}, http.StatusBadRequest, "max_q"},
		{"test = standard", clauseRequest{Test: "standard"}, http.StatusBadRequest, "the standard test was removed"},
		{"test = block", clauseRequest{Test: "block"}, http.StatusBadRequest, "the block test was removed"},
	} {
		resp, err := client.Get(srv.URL + "/v1/query?q=" +
			url.QueryEscape("find relationships between wind and trips where "+tc.where+" at (week, city)"))
		if err != nil {
			t.Fatal(err)
		}
		var textErr errorResponse
		json.NewDecoder(resp.Body).Decode(&textErr)
		resp.Body.Close()
		clause := tc.clause
		clause.Resolutions = []resolutionWire{{Spatial: "city", Temporal: "week"}}
		body, err := json.Marshal(queryRequest{Sources: []string{"wind"}, Targets: []string{"trips"}, Clause: clause})
		if err != nil {
			t.Fatal(err)
		}
		jresp, err := client.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jsonErr errorResponse
		json.NewDecoder(jresp.Body).Decode(&jsonErr)
		jresp.Body.Close()
		if resp.StatusCode != tc.status || jresp.StatusCode != tc.status {
			t.Errorf("%q: grammar %d, JSON %d, want %d for both", tc.where, resp.StatusCode, jresp.StatusCode, tc.status)
		}
		if tc.names != "" && (!strings.Contains(textErr.Error, tc.names) || !strings.Contains(jsonErr.Error, tc.names)) {
			t.Errorf("%q: errors %q and %q, want both to name %q", tc.where, textErr.Error, jsonErr.Error, tc.names)
		}
	}
}

// TestServerStress hammers one server with mixed cached and uncached
// queries from many goroutines. Run under -race this exercises the whole
// concurrent read path end to end: HTTP handlers, singleflight cache,
// planner, parallel Monte Carlo chunks.
func TestServerStress(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	// A spread of signatures: some repeat (cache/singleflight), some are
	// goroutine-unique (always evaluated).
	shared := []queryRequest{
		{Clause: clauseRequest{Permutations: 30}},
		{Sources: []string{"wind"}, Clause: clauseRequest{Permutations: 30}},
		{Clause: clauseRequest{SkipSignificance: true}},
		{Clause: clauseRequest{Permutations: 30, MinScore: 0.5,
			Resolutions: []resolutionWire{{Spatial: "city", Temporal: "hour"}}}},
	}

	const goroutines = 12
	const rounds = 3
	queriesBefore := metricSample(t, srv.URL, "polygamy_queries_total")
	hitsBefore := metricSample(t, srv.URL, "polygamy_query_cache_hits_total")
	clientErrsBefore := metricSample(t, srv.URL, "polygamy_http_client_errors_total")
	serverErrsBefore := metricSample(t, srv.URL, "polygamy_http_server_errors_total")
	var wg sync.WaitGroup
	relCounts := make([][]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			relCounts[g] = make([]int, len(shared))
			for r := 0; r < rounds; r++ {
				for i := range shared {
					qi := (i + g) % len(shared)
					out, code := postQuery(t, client, srv.URL, shared[qi])
					if code != http.StatusOK {
						t.Errorf("goroutine %d: status %d", g, code)
						return
					}
					relCounts[g][qi] = len(out.Relationships)
				}
				// A goroutine-unique uncached query in every round.
				uniq := queryRequest{Clause: clauseRequest{
					Permutations: 20 + g + r*goroutines,
					Resolutions:  []resolutionWire{{Spatial: "city", Temporal: "week"}},
				}}
				if _, code := postQuery(t, client, srv.URL, uniq); code != http.StatusOK {
					t.Errorf("goroutine %d: uncached query status %d", g, code)
					return
				}
				// Interleave reads of the other endpoints.
				for _, path := range []string{"/healthz", "/v1/datasets", "/v1/stats"} {
					resp, err := client.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", path, resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Every goroutine must have seen identical result sets per signature.
	for g := 1; g < goroutines; g++ {
		for i := range shared {
			if relCounts[g][i] != relCounts[0][i] {
				t.Errorf("query %d: goroutine %d saw %d relationships, goroutine 0 saw %d",
					i, g, relCounts[g][i], relCounts[0][i])
			}
		}
	}
	// The metrics endpoint aggregates coherently.
	wantQueries := float64(goroutines * rounds * (len(shared) + 1))
	if got := metricSample(t, srv.URL, "polygamy_queries_total") - queriesBefore; got != wantQueries {
		t.Errorf("polygamy_queries_total rose by %v, want %v", got, wantQueries)
	}
	clientErrs := metricSample(t, srv.URL, "polygamy_http_client_errors_total") - clientErrsBefore
	serverErrs := metricSample(t, srv.URL, "polygamy_http_server_errors_total") - serverErrsBefore
	if clientErrs != 0 || serverErrs != 0 {
		t.Errorf("errors rose by %v client, %v server, want 0, 0", clientErrs, serverErrs)
	}
	if metricSample(t, srv.URL, "polygamy_query_cache_hits_total") == hitsBefore {
		t.Error("expected repeated queries to produce cache hits")
	}
}

// TestServerGraphEndpoints exercises the relationship-graph surface: reads
// before a build are rejected, a build materializes the graph, and the
// read endpoints agree with each other afterwards.
func TestServerGraphEndpoints(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	get := func(path string) (map[string]json.RawMessage, int) {
		t.Helper()
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out, resp.StatusCode
	}

	// Reads before the build are 409s.
	for _, path := range []string{"/v1/graph/stats", "/v1/graph/top", "/v1/graph/neighbors?dataset=wind"} {
		if _, code := get(path); code != http.StatusConflict {
			t.Errorf("%s before build: status %d, want 409", path, code)
		}
	}

	// Build with a cheap clause.
	body := []byte(`{"clause":{"permutations":100}}`)
	resp, err := client.Post(srv.URL+"/v1/graph/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bs graphStatsWire
	if err := json.NewDecoder(resp.Body).Decode(&bs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph build status = %d", resp.StatusCode)
	}
	if bs.Pairs != 1 || bs.PairsComputed != 1 || bs.Edges == 0 {
		t.Fatalf("graph build stats = %+v", bs)
	}

	// A repeated build with the same clause reuses every pair.
	resp, err = client.Post(srv.URL+"/v1/graph/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bs2 graphStatsWire
	if err := json.NewDecoder(resp.Body).Decode(&bs2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bs2.PairsReused != 1 || bs2.PairsComputed != 0 {
		t.Errorf("repeat build stats = %+v, want pure reuse", bs2)
	}

	// Stats reflect the built graph.
	st, code := get("/v1/graph/stats")
	if code != http.StatusOK {
		t.Fatalf("graph stats status = %d", code)
	}
	var edges int
	if err := json.Unmarshal(st["edges"], &edges); err != nil || edges != bs.Edges {
		t.Errorf("stats edges = %s, want %d", st["edges"], bs.Edges)
	}

	// Top-k and neighbors agree on the edge universe.
	top, code := get("/v1/graph/top?k=100&by=strength")
	if code != http.StatusOK {
		t.Fatalf("graph top status = %d", code)
	}
	var topEdges []relgraph.EdgeJSON
	if err := json.Unmarshal(top["edges"], &topEdges); err != nil {
		t.Fatal(err)
	}
	if len(topEdges) != bs.Edges {
		t.Errorf("top returned %d edges, graph has %d", len(topEdges), bs.Edges)
	}
	nb, code := get("/v1/graph/neighbors?dataset=wind&hops=2")
	if code != http.StatusOK {
		t.Fatalf("graph neighbors status = %d", code)
	}
	var nbEdges []relgraph.EdgeJSON
	if err := json.Unmarshal(nb["edges"], &nbEdges); err != nil {
		t.Fatal(err)
	}
	if len(nbEdges) != bs.Edges {
		t.Errorf("wind has %d incident edges, want %d (two-data-set corpus)", len(nbEdges), bs.Edges)
	}
	var hops map[string]int
	if err := json.Unmarshal(nb["hops"], &hops); err != nil {
		t.Fatal(err)
	}
	if hops["wind"] != 0 || hops["trips"] != 1 {
		t.Errorf("hops = %v", hops)
	}

	// Function-level neighbors.
	fn := url.QueryEscape(topEdges[0].Function1)
	fnb, code := get("/v1/graph/neighbors?function=" + fn)
	if code != http.StatusOK {
		t.Fatalf("function neighbors status = %d", code)
	}
	var fnEdges []relgraph.EdgeJSON
	if err := json.Unmarshal(fnb["edges"], &fnEdges); err != nil {
		t.Fatal(err)
	}
	if len(fnEdges) == 0 {
		t.Error("function neighbors empty for a function with an edge")
	}

	// Bad parameters are 400s.
	for _, path := range []string{
		"/v1/graph/neighbors",
		"/v1/graph/neighbors?function=x&dataset=y",
		"/v1/graph/neighbors?dataset=wind&hops=zero",
		"/v1/graph/top?k=-1",
		"/v1/graph/top?by=vibes",
	} {
		if _, code := get(path); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
}

// TestServerReportsNotResolvable: the planner's count of tuples whose test
// cannot reach alpha reaches both JSON surfaces. On the one-region test
// corpus every month tuple spans 12 steps, under the 20 a test at alpha
// 0.05 needs, so the count is not zero; the graph build and the query
// response report what the core counts for the same clause over the same
// (one) pair.
func TestServerReportsNotResolvable(t *testing.T) {
	fw := testFramework(t)
	srv := httptest.NewServer(newServer(fw))
	defer srv.Close()

	// The build runs first: a build plans only the pairs it computes, and
	// the query families stored under the same clause would be reused.
	resp, err := srv.Client().Post(srv.URL+"/v1/graph/build", "application/json",
		strings.NewReader(`{"clause":{"permutations":100}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bs graphStatsWire
	if err := json.NewDecoder(resp.Body).Decode(&bs); err != nil {
		t.Fatal(err)
	}

	req := clauseRequest{Permutations: 100}
	clause, err := parseClause(req)
	if err != nil {
		t.Fatal(err)
	}
	// No source named, so the wire query below is a separate evaluation
	// rather than a cache hit of this one.
	_, want, err := fw.Query(core.Query{Clause: clause})
	if err != nil {
		t.Fatal(err)
	}
	if want.NotResolvable == 0 {
		t.Fatal("the core counts no unresolvable tuple on a one-region corpus")
	}
	if bs.NotResolvable != want.NotResolvable {
		t.Errorf("graph build notResolvable = %d, want %d", bs.NotResolvable, want.NotResolvable)
	}
	out, code := postQuery(t, srv.Client(), srv.URL, queryRequest{Sources: []string{"wind"}, Clause: req})
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if out.Stats.CacheHit || out.Stats.NotResolvable != want.NotResolvable {
		t.Errorf("query stats %+v: want notResolvable %d from a fresh evaluation", out.Stats, want.NotResolvable)
	}
}

// TestServerCorrection drives the FDR layer over the wire: corrected
// queries carry q-values >= p-values and return a subset of the
// uncorrected results, and the graph's top endpoint ranks and filters by
// q-value.
func TestServerCorrection(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	raw, code := postQuery(t, client, srv.URL, queryRequest{
		Clause: clauseRequest{Permutations: 200},
	})
	if code != http.StatusOK || len(raw.Relationships) == 0 {
		t.Fatalf("uncorrected query: status %d, %d relationships", code, len(raw.Relationships))
	}
	for _, r := range raw.Relationships {
		if r.QValue != r.PValue {
			t.Errorf("correction none: qValue %g != pValue %g on the wire", r.QValue, r.PValue)
		}
	}

	bh, code := postQuery(t, client, srv.URL, queryRequest{
		Clause: clauseRequest{Permutations: 200, Correction: "bh", MaxQ: 0.05},
	})
	if code != http.StatusOK {
		t.Fatalf("bh query status = %d", code)
	}
	if len(bh.Relationships) > len(raw.Relationships) {
		t.Errorf("bh returned %d relationships, uncorrected %d", len(bh.Relationships), len(raw.Relationships))
	}
	for _, r := range bh.Relationships {
		if r.QValue < r.PValue {
			t.Errorf("bh: qValue %g < pValue %g", r.QValue, r.PValue)
		}
		if r.QValue > 0.05 {
			t.Errorf("bh: qValue %g survived max_q 0.05", r.QValue)
		}
	}

	// The textual form reaches the same layer.
	q := url.QueryEscape("find relationships between wind and trips where permutations = 200 and correction = bh")
	resp, err := client.Get(srv.URL + "/v1/query?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	var tq httpapi.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&tq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("textual corrected query status = %d", resp.StatusCode)
	}

	// Graph build under bh, then rank by q-value with a filter.
	body := []byte(`{"clause":{"permutations":200,"correction":"bh"}}`)
	resp, err = client.Post(srv.URL+"/v1/graph/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bs graphStatsWire
	if err := json.NewDecoder(resp.Body).Decode(&bs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bs.Edges == 0 {
		t.Fatalf("corrected graph build: status %d, stats %+v", resp.StatusCode, bs)
	}
	resp, err = client.Get(srv.URL + "/v1/graph/top?k=5&by=qvalue&max_q=0.05")
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		Edges []relgraph.EdgeJSON `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph top by qvalue status = %d", resp.StatusCode)
	}
	for i, e := range top.Edges {
		if e.QValue > 0.05 {
			t.Errorf("top edge %d has qValue %g above max_q", i, e.QValue)
		}
		if i > 0 && e.QValue < top.Edges[i-1].QValue {
			t.Errorf("top by qvalue not ascending at %d", i)
		}
	}
	// Bad max_q is rejected.
	resp, err = client.Get(srv.URL + "/v1/graph/top?max_q=-1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("max_q=-1: status %d, want 400", resp.StatusCode)
	}
}

// TestPrepareFrameworkReplacesOldContainer: a snapshot left on disk by an
// earlier build (container version 5: this layout, but p-values drawn from
// per-test toroidal shifts) is not converted. Load refuses it
// with ErrVersion, start-up answers with a cold build, and the re-save puts
// a current container at the same path, so the start after that is warm.
func TestPrepareFrameworkReplacesOldContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := testFramework(t).Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 5 // low byte of the header's little-endian version word
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := testFrameworkCold(t).Load(path); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("Load of a version-5 container: err = %v, want ErrVersion", err)
	}

	fw := testFrameworkCold(t)
	warm, err := prepareFramework(fw, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if warm || !fw.Indexed() {
		t.Errorf("start over a version-5 container: warm = %t, indexed = %t; want a cold build", warm, fw.Indexed())
	}
	m, err := store.ReadManifest(path)
	if err != nil {
		t.Fatalf("snapshot after the cold build: %v", err)
	}
	if m.FormatVersion != store.FormatVersion {
		t.Errorf("re-saved container version = %d, want %d", m.FormatVersion, store.FormatVersion)
	}
	next := testFrameworkCold(t)
	t.Cleanup(func() { next.Close() })
	if warm, err := prepareFramework(next, path, false); err != nil || !warm {
		t.Errorf("start after the re-save: warm = %t, err = %v; want a warm start", warm, err)
	}
}

// TestServeUntilShutdown proves the graceful-shutdown path: a cancelled
// context stops the listener, drains, and returns nil.
func TestServeUntilShutdown(t *testing.T) {
	hs := &http.Server{Handler: newServer(testFramework(t))}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntilShutdown(ctx, hs, ln, 5*time.Second) }()

	// The server must be live before we shut it down.
	base := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilShutdown did not return after cancel")
	}
	// A dead listener surfaces as an error without a signal.
	if err := serveUntilShutdown(context.Background(), &http.Server{Handler: newServer(testFramework(t))}, ln, time.Second); err == nil {
		t.Error("expected error serving on a closed listener")
	}
}
