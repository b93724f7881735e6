package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/store"
)

// TestRequestIDMiddleware pins the tracing contract: a client-supplied
// X-Request-ID is echoed back verbatim, and a request without one gets a
// generated ID in the response header.
func TestRequestIDMiddleware(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	req, err := http.NewRequest("GET", srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-id-42")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-id-42" {
		t.Errorf("supplied request ID not echoed: got %q", got)
	}

	resp, err = client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated request ID = %q, want 16 hex chars", got)
	}
}

// metricSample scrapes GET /metrics at base and returns one series'
// sample. series is written as the exposition prints it: the metric name,
// then its label set in declaration order. A labelled series no request
// has touched yet is absent from the page and reads 0. The registry is
// process-wide and these tests do not run in parallel, so an assertion
// takes the difference of two samples around the requests it counts.
func metricSample(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics sample %q: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// TestErrorSplit pins the middleware's error taxonomy: 4xx responses land
// in polygamy_http_client_errors_total, successes in neither error
// series, and /v1/stats carries no request counter at all (neither the
// old conflated "failures" nor the counters /metrics now holds alone).
func TestErrorSplit(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	const (
		clientSeries = "polygamy_http_client_errors_total"
		serverSeries = "polygamy_http_server_errors_total"
	)
	clientBefore := metricSample(t, srv.URL, clientSeries)
	serverBefore := metricSample(t, srv.URL, serverSeries)
	// One bad query (missing q), one unmatched route, one success.
	for _, path := range []string{"/v1/query", "/no/such/route", "/healthz"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := client.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"failures", "queries", "cacheHits", "coalesced",
		"clientErrors", "serverErrors", "graphBuilds", "ingests", "appends"} {
		if _, ok := stats[key]; ok {
			t.Errorf("/v1/stats still exposes the %s counter", key)
		}
	}
	// The bad query and the 404 are client faults; /v1/stats itself and
	// /healthz are not.
	if got := metricSample(t, srv.URL, clientSeries) - clientBefore; got != 2 {
		t.Errorf("%s rose by %v, want 2", clientSeries, got)
	}
	if got := metricSample(t, srv.URL, serverSeries) - serverBefore; got != 0 {
		t.Errorf("%s rose by %v, want 0", serverSeries, got)
	}
}

// TestQueryTraceWire pins the trace field: absent by default, and with
// trace requested the response carries the per-stage breakdown in
// execution order — on the uncached run and on the cache hit alike.
func TestQueryTraceWire(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()
	req := queryRequest{
		Sources: []string{"wind"}, Targets: []string{"trips"},
		Clause: clauseRequest{MinScore: 0.4, Permutations: 40},
	}

	resp, status := postQuery(t, client, srv.URL, req)
	if status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}
	if resp.Trace != nil {
		t.Errorf("untraced query returned a trace: %v", resp.Trace)
	}

	req.Trace = true
	resp, status = postQuery(t, client, srv.URL, req)
	if status != http.StatusOK {
		t.Fatalf("traced query status %d", status)
	}
	wantStages := []string{"plan", "evaluate", "correct", "select"}
	if len(resp.Trace) != len(wantStages) {
		t.Fatalf("trace = %+v, want stages %v", resp.Trace, wantStages)
	}
	for i, st := range resp.Trace {
		if st.Stage != wantStages[i] {
			t.Errorf("trace[%d].stage = %q, want %q", i, st.Stage, wantStages[i])
		}
		if st.Duration == "" || st.Seconds < 0 {
			t.Errorf("trace[%d] = %+v, want a rendered duration and seconds >= 0", i, st)
		}
	}
	if !resp.Stats.CacheHit {
		t.Error("second identical query should be a cache hit")
	}

	// The textual GET form: ?trace=1.
	hr, err := client.Get(srv.URL + "/v1/query?trace=1&q=" +
		"find%20relationships%20between%20wind%20and%20trips%20where%20score%20%3E%3D%200.4%20and%20permutations%20%3D%2040")
	if err != nil {
		t.Fatal(err)
	}
	var wire httpapi.QueryResponse
	if err := json.NewDecoder(hr.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || len(wire.Trace) != len(wantStages) {
		t.Errorf("GET ?trace=1: status %d, trace %+v", hr.StatusCode, wire.Trace)
	}
}

// TestMetricsEndpoint scrapes GET /metrics after exercising the query
// path and asserts the core series are present and the document has the
// exposition shape a Prometheus scraper needs.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	if _, status := postQuery(t, client, srv.URL, queryRequest{
		Sources: []string{"wind"}, Targets: []string{"trips"},
		Clause: clauseRequest{MinScore: 0.4, Permutations: 40},
	}); status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}
	gresp, err := client.Post(srv.URL+"/v1/graph/build", "application/json", strings.NewReader(`{"clause":{"permutations":40}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("graph build status %d", gresp.StatusCode)
	}
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE polygamy_queries_total counter",
		"# TYPE polygamy_query_duration_seconds histogram",
		"polygamy_query_duration_seconds_bucket{le=\"+Inf\"}",
		"# TYPE polygamy_query_stage_duration_seconds histogram",
		"# TYPE polygamy_graph_build_stage_duration_seconds histogram",
		"# TYPE polygamy_montecarlo_tests_total counter",
		"# TYPE polygamy_montecarlo_permutations_total counter",
		"# TYPE polygamy_montecarlo_tau_evaluations_total counter",
		"# TYPE polygamy_montecarlo_shifts_built_total counter",
		"# TYPE polygamy_montecarlo_shift_pool_bytes gauge",
		"# TYPE polygamy_index_builds_total counter",
		"# TYPE polygamy_jobs_active gauge",
		"# TYPE polygamy_http_requests_total counter",
		"# TYPE polygamy_snapshot_loads_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The engine counters move: at least one query was answered.
	queries := regexp.MustCompile(`(?m)^polygamy_queries_total (\d+)$`).FindStringSubmatch(text)
	if queries == nil || queries[1] == "0" {
		t.Errorf("polygamy_queries_total not a positive integer sample: %v", queries)
	}
	// Stage labels are bounded and well-formed.
	if !strings.Contains(text, `polygamy_query_stage_duration_seconds_bucket{stage="plan",le=`) {
		t.Error("per-stage histogram missing the plan stage")
	}
	for _, stage := range []string{"plan", "evaluate", "assemble"} {
		if !strings.Contains(text, `polygamy_graph_build_stage_duration_seconds_bucket{stage="`+stage+`",le=`) {
			t.Errorf("graph build stage histogram missing the %s stage", stage)
		}
	}
}

// TestStatsSnapshotProvenance pins the /v1/stats snapshot block: a
// cold-built server reports source "cold" with no container fields; a
// warm-started one reports "warm" with the container version and whether
// the sections are mmap-backed.
func TestStatsSnapshotProvenance(t *testing.T) {
	getSnap := func(srv *httptest.Server) map[string]json.RawMessage {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Snapshot map[string]json.RawMessage `json:"snapshot"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Snapshot
	}

	cold := httptest.NewServer(newServer(testFramework(t)))
	defer cold.Close()
	snap := getSnap(cold)
	if string(snap["source"]) != `"cold"` {
		t.Errorf("cold server snapshot.source = %s, want \"cold\"", snap["source"])
	}
	if _, ok := snap["format"]; ok {
		t.Error("cold server reports a snapshot format without having loaded one")
	}

	// Save from one framework, warm-start a second over the same corpus.
	path := filepath.Join(t.TempDir(), "obsv.snap")
	if err := testFramework(t).Save(path); err != nil {
		t.Fatal(err)
	}
	fw := testFrameworkCold(t)
	if err := fw.Load(path); err != nil {
		t.Fatal(err)
	}
	s := newServer(fw)
	s.warmStart = true
	s.snapshotPath = path
	warm := httptest.NewServer(s)
	defer warm.Close()
	snap = getSnap(warm)
	if string(snap["source"]) != `"warm"` {
		t.Errorf("warm server snapshot.source = %s, want \"warm\"", snap["source"])
	}
	var format int
	if err := json.Unmarshal(snap["format"], &format); err != nil || format != store.FormatVersion {
		t.Errorf("warm server snapshot.format = %s, want %d (err %v)", snap["format"], store.FormatVersion, err)
	}
	if _, ok := snap["mmap"]; !ok {
		t.Error("warm server snapshot block lacks the mmap field")
	}
	if string(snap["path"]) != `"`+path+`"` {
		t.Errorf("snapshot.path = %s, want %q", snap["path"], path)
	}
}

// testFrameworkCold builds the corpus registered but unindexed, the state
// a warm start loads a snapshot into. Same city and datasets as
// testFramework, minus BuildIndex.
func testFrameworkCold(t *testing.T) *core.Framework {
	t.Helper()
	city, err := spatial.Generate(spatial.Config{Seed: 3, GridW: 24, GridH: 24, Neighborhoods: 8, ZipCodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{City: city, Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testCorpus(t) {
		if err := fw.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	return fw
}
