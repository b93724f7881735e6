package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/httpapi"
)

// stubReplica is a minimal polygamyd stand-in: it answers the routed
// endpoints, counts hits per path, and can be forced to fail.
type stubReplica struct {
	srv       *httptest.Server
	queryHits atomic.Int64
	readHits  atomic.Int64
	failWith  atomic.Int32 // 0 = healthy, otherwise status code to return
	lastID    atomic.Value // X-Request-ID of the last query
	name      string
}

func newStubReplica(t testing.TB, name string) *stubReplica {
	t.Helper()
	s := &stubReplica{name: name}
	mux := http.NewServeMux()
	fail := func(w http.ResponseWriter) bool {
		if code := s.failWith.Load(); code != 0 {
			http.Error(w, "stub failure", int(code))
			return true
		}
		return false
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		s.queryHits.Add(1)
		s.lastID.Store(r.Header.Get("X-Request-ID"))
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"served_by": s.name})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if fail(w) {
			return
		}
		s.readHits.Add(1)
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"stub": s.name})
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func newTestRouter(t testing.TB, leader string, stubs ...*stubReplica) *Router {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.srv.URL
	}
	rt, err := NewRouter(RouterOptions{
		Leader:         leader,
		Replicas:       urls,
		HealthInterval: 20 * time.Millisecond,
		HTTPClient:     &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func postQuery(t testing.TB, rt http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

// TestRouterSignatureAffinity: repeats of the same query land on one
// replica (its cache stays hot), while distinct signatures spread.
func TestRouterSignatureAffinity(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1"), newStubReplica(t, "r2")}
	rt := newTestRouter(t, "", stubs...)

	const body = `{"sources":["wind"],"targets":["trips"],"clause":{"permutations":50}}`
	for i := 0; i < 12; i++ {
		if w := postQuery(t, rt, body); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	homes := 0
	for _, s := range stubs {
		if n := s.queryHits.Load(); n > 0 {
			homes++
			if n != 12 {
				t.Fatalf("home replica %s served %d of 12 repeats", s.name, n)
			}
		}
	}
	if homes != 1 {
		t.Fatalf("one signature spread across %d replicas", homes)
	}

	// Distinct signatures use more than one replica.
	for _, s := range stubs {
		s.queryHits.Store(0)
	}
	for i := 0; i < 32; i++ {
		body := fmt.Sprintf(`{"sources":["d%d"],"clause":{"permutations":%d}}`, i, 40+i)
		if w := postQuery(t, rt, body); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	spread := 0
	for _, s := range stubs {
		if s.queryHits.Load() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("32 distinct signatures all homed on %d replica(s)", spread)
	}
}

// TestRouterTextAndStructuredShareAHome: the GET textual form and the
// structured POST of the same query produce the same signature, hence
// the same home replica.
func TestRouterTextAndStructuredShareAHome(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1"), newStubReplica(t, "r2"), newStubReplica(t, "r3")}
	rt := newTestRouter(t, "", stubs...)

	if w := postQuery(t, rt, `{"sources":["wind"],"targets":["trips"]}`); w.Code != http.StatusOK {
		t.Fatalf("structured form: status %d: %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/query?q="+
		"find+relationships+between+wind+and+trips", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("text form: status %d: %s", w.Code, w.Body)
	}
	for _, s := range stubs {
		if n := s.queryHits.Load(); n != 0 && n != 2 {
			t.Fatalf("forms split across replicas: %s served %d", s.name, n)
		}
	}
}

// TestRouterFailoverRetriesNextReplica: the home replica dying mid-storm
// must be invisible to clients — the request retries on the ring's next
// replica and the dead one is marked unhealthy.
func TestRouterFailoverRetriesNextReplica(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1")}
	rt := newTestRouter(t, "", stubs...)

	const body = `{"sources":["wind"],"clause":{"permutations":64}}`
	if w := postQuery(t, rt, body); w.Code != http.StatusOK {
		t.Fatalf("warmup: status %d", w.Code)
	}
	var home, other *stubReplica
	for i, s := range stubs {
		if s.queryHits.Load() > 0 {
			home, other = s, stubs[1-i]
		}
	}
	if home == nil {
		t.Fatal("no replica served the warmup query")
	}

	retriesBefore := mRouterRetries.Value()
	home.srv.CloseClientConnections()
	home.srv.Close() // hard kill: transport errors, not HTTP errors
	if w := postQuery(t, rt, body); w.Code != http.StatusOK {
		t.Fatalf("failover request failed: status %d: %s", w.Code, w.Body)
	}
	if other.queryHits.Load() == 0 {
		t.Fatal("surviving replica saw no traffic after failover")
	}
	if mRouterRetries.Value() <= retriesBefore {
		t.Fatal("retry counter did not move")
	}
	// The dead backend is now marked unhealthy, so subsequent repeats go
	// straight to the survivor without burning a retry.
	steady := mRouterRetries.Value()
	if w := postQuery(t, rt, body); w.Code != http.StatusOK {
		t.Fatalf("steady-state after failover: status %d", w.Code)
	}
	if got := mRouterRetries.Value(); got != steady {
		t.Fatalf("unhealthy replica still tried first (%d extra retries)", got-steady)
	}
}

// TestRouterRetriesGatewayStatuses: 503 from the home replica retries on
// the next; 4xx is the replica's verdict and forwards as-is.
func TestRouterRetriesGatewayStatuses(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1")}
	rt := newTestRouter(t, "", stubs...)
	const body = `{"sources":["wind"],"clause":{"permutations":77}}`
	if w := postQuery(t, rt, body); w.Code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	var home, other *stubReplica
	for i, s := range stubs {
		if s.queryHits.Load() > 0 {
			home, other = s, stubs[1-i]
		}
	}
	home.failWith.Store(http.StatusServiceUnavailable)
	if w := postQuery(t, rt, body); w.Code != http.StatusOK {
		t.Fatalf("503 from home was not retried: status %d", w.Code)
	}
	if other.queryHits.Load() == 0 {
		t.Fatal("retry did not reach the other replica")
	}

	// A replica-level 400 must not be retried or rewritten.
	if w := postQuery(t, rt, `{"sources":["wind"],"clause":{"classes":["bogus"]}}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad clause: status %d, want 400", w.Code)
	}
}

// TestRouterExhausted: every replica failing yields one clean 503.
func TestRouterExhausted(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1")}
	rt := newTestRouter(t, "", stubs...)
	for _, s := range stubs {
		s.failWith.Store(http.StatusServiceUnavailable)
	}
	before := mRouterExhausted.Value()
	w := postQuery(t, rt, `{"sources":["wind"]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	var e httpapi.Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("503 body is not the uniform error shape: %s", w.Body)
	}
	if mRouterExhausted.Value() != before+1 {
		t.Fatal("exhausted counter did not move")
	}
}

// TestRouterReadRoundRobin: unsigned reads spread over healthy replicas.
func TestRouterReadRoundRobin(t *testing.T) {
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1")}
	rt := newTestRouter(t, "", stubs...)
	for i := 0; i < 8; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, w.Code)
		}
	}
	for _, s := range stubs {
		if s.readHits.Load() == 0 {
			t.Fatalf("round-robin starved %s", s.name)
		}
	}
}

// TestRouterWriteForwarding: ingest and graph-build bodies go to the leader
// verbatim; without a leader, writes 503.
func TestRouterWriteForwarding(t *testing.T) {
	var gotPath atomic.Value
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotPath.Store(r.URL.Path + "|" + string(b))
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer leader.Close()
	stub := newStubReplica(t, "r0")
	rt := newTestRouter(t, leader.URL, stub)

	req := httptest.NewRequest(http.MethodPost, "/v1/datasets/wind/append", strings.NewReader("csv,body"))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("write status %d", w.Code)
	}
	if got := gotPath.Load(); got != "/v1/datasets/wind/append|csv,body" {
		t.Fatalf("leader saw %q", got)
	}

	// A graph build is a write: the leader builds, no replica is involved.
	const build = `{"clause":{"permutations":64}}`
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graph/build", strings.NewReader(build)))
	if w.Code != http.StatusCreated {
		t.Fatalf("graph build status %d", w.Code)
	}
	if got := gotPath.Load(); got != "/v1/graph/build|"+build {
		t.Fatalf("leader saw %q", got)
	}
	if n := stub.queryHits.Load() + stub.readHits.Load(); n != 0 {
		t.Fatalf("replica saw %d requests for a graph build", n)
	}

	noLeader := newTestRouter(t, "", stub)
	for _, path := range []string{"/v1/datasets", "/v1/graph/build"} {
		w = httptest.NewRecorder()
		noLeader.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader("x")))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("leaderless POST %s: status %d, want 503", path, w.Code)
		}
	}
}

// TestRouterForwardsRequestID: the client's X-Request-ID reaches every
// backend a request touches — the replica of a routed query, the leader of
// a forwarded write or graph build — and a request without one gets an ID
// generated by the router.
func TestRouterForwardsRequestID(t *testing.T) {
	var leaderIDs sync.Map // path -> X-Request-ID
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		leaderIDs.Store(r.URL.Path, r.Header.Get("X-Request-ID"))
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	}))
	defer leader.Close()
	stubs := []*stubReplica{newStubReplica(t, "r0"), newStubReplica(t, "r1")}
	rt := newTestRouter(t, leader.URL, stubs...)
	send := func(id, method, path, body string) {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
		}
	}
	queryID := func() any {
		for _, s := range stubs {
			if s.queryHits.Swap(0) > 0 {
				return s.lastID.Load()
			}
		}
		return nil
	}

	send("client-query-1", http.MethodPost, "/v1/query", `{"sources":["wind"],"clause":{}}`)
	if got := queryID(); got != "client-query-1" {
		t.Errorf("routed query: replica saw request ID %q, want the client's", got)
	}
	send("client-text-1", http.MethodGet, "/v1/query?q=find+relationships+between+wind+and+trips", "")
	if got := queryID(); got != "client-text-1" {
		t.Errorf("routed text query: replica saw request ID %q, want the client's", got)
	}
	send("", http.MethodPost, "/v1/query", `{"sources":["wind"],"clause":{}}`)
	if got, _ := queryID().(string); got == "" {
		t.Error("routed query without an ID: router forwarded none")
	}

	send("client-write-1", http.MethodPost, "/v1/datasets/wind/append", "csv,body")
	if got, _ := leaderIDs.Load("/v1/datasets/wind/append"); got != "client-write-1" {
		t.Errorf("forwarded write: leader saw request ID %q, want the client's", got)
	}

	send("client-build-1", http.MethodPost, "/v1/graph/build", `{}`)
	if got, _ := leaderIDs.Load("/v1/graph/build"); got != "client-build-1" {
		t.Errorf("forwarded graph build: leader saw request ID %q, want the client's", got)
	}
}

// TestRouterProbeTracksHealth: the background probe demotes a failing
// replica and promotes it back on recovery.
func TestRouterProbeTracksHealth(t *testing.T) {
	stub := newStubReplica(t, "r0")
	rt := newTestRouter(t, "", stub)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rt.backends[0].healthy.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("probe never reached healthy=%v", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealth(true)
	stub.failWith.Store(http.StatusInternalServerError)
	waitHealth(false)

	// Healthz reports the degraded fleet.
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with all replicas down: status %d, want 503", w.Code)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte(`"degraded"`)) {
		t.Fatalf("healthz body: %s", w.Body)
	}

	stub.failWith.Store(0)
	waitHealth(true)
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz after recovery: status %d", w.Code)
	}
}

// TestRouterRejectsBadInput covers the router-side validation edges.
func TestRouterRejectsBadInput(t *testing.T) {
	stub := newStubReplica(t, "r0")
	rt := newTestRouter(t, "", stub)

	if w := postQuery(t, rt, `{"unknown_field":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", w.Code)
	}
	if w := postQuery(t, rt, `not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing q: status %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/query?q=select+stars", nil)
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unparseable text query: status %d", w.Code)
	}
	if _, err := NewRouter(RouterOptions{}); err == nil {
		t.Fatal("router without replicas accepted")
	}
}
