package replica

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/obsv"
)

var (
	mRouterRequests = obsv.NewCounterVec("polygamy_router_requests_total",
		"Requests the router forwarded, by replica and outcome (ok, error).", "replica", "outcome")
	mRouterRetries = obsv.NewCounter("polygamy_router_retries_total",
		"Forward attempts retried on the next replica after a failure.")
	mRouterExhausted = obsv.NewCounter("polygamy_router_exhausted_total",
		"Requests that failed on every replica and returned 503.")
	mRouterHealthy = obsv.NewGaugeVec("polygamy_router_replica_healthy",
		"1 when the replica's last health probe succeeded.", "replica")
)

// ringVnodes is the number of virtual nodes per replica on the hash
// ring: enough that removing one replica moves only ~1/n of the
// signature space, keeping the other replicas' query caches hot.
const ringVnodes = 64

// RouterOptions configures a Router.
type RouterOptions struct {
	// Leader is the base URL writes (ingest, append, graph build) forward to.
	Leader string
	// Replicas are the base URLs queries fan out over.
	Replicas []string
	// HealthInterval is the cadence of the background health probes
	// (default 1s).
	HealthInterval time.Duration
	// HTTPClient overrides the backend transport (nil = a client with a
	// 5-minute timeout, matching polygamyd's slowest handler budget).
	HTTPClient *http.Client
}

type backend struct {
	url     string
	healthy atomic.Bool
}

type ringEntry struct {
	hash uint64
	idx  int // index into Router.backends
}

// Router is a stateless consistent-hash fan-out over a set of replica
// query servers: each canonical query signature has a home replica, so
// that replica's result cache and singleflight absorb repeats of the
// same query, while distinct signatures spread across the fleet. Writes
// (ingest, append, graph build) forward to the leader, whose snapshot
// re-save carries the result back to the replicas.
type Router struct {
	opts     RouterOptions
	hc       *http.Client
	mux      *http.ServeMux
	backends []*backend
	ring     []ringEntry
	rr       atomic.Uint64 // round-robin cursor for unsigned reads
	started  time.Time
}

// NewRouter builds a router over the given replicas.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("replica: router needs at least one replica URL")
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = time.Second
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	rt := &Router{opts: opts, hc: hc, mux: http.NewServeMux(), started: time.Now()}
	for i, u := range opts.Replicas {
		b := &backend{url: strings.TrimRight(u, "/")}
		b.healthy.Store(true) // optimistic until the first probe says otherwise
		rt.backends = append(rt.backends, b)
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", b.url, v)
			rt.ring = append(rt.ring, ringEntry{hash: h.Sum64(), idx: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })

	rt.mux.HandleFunc("POST /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("GET /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/graph/build", rt.handleWrite)
	rt.mux.HandleFunc("POST /v1/datasets", rt.handleWrite)
	rt.mux.HandleFunc("POST /v1/datasets/{name}/append", rt.handleWrite)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", obsv.Handler())
	rt.mux.HandleFunc("/", rt.handleRead)
	return rt, nil
}

// ServeHTTP gives every request an ID before routing it — the client's
// X-Request-ID, or a generated one — which backendRequest then carries to
// every backend the request touches.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("X-Request-ID") == "" {
		r.Header.Set("X-Request-ID", obsv.NewRequestID())
	}
	rt.mux.ServeHTTP(w, r)
}

// backendRequest builds the outbound leg of the inbound request r: it
// shares r's context, so a client that goes away cancels the backend call,
// and r's request ID, so the router's, the replica's and the leader's log
// lines for one client request can be joined (polygamyd adopts the header
// as its own request ID and echoes it in the response).
func backendRequest(r *http.Request, method, url string, body io.Reader, contentType string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(r.Context(), method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
	return req, nil
}

// Run probes replica health until ctx is cancelled.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		rt.probe(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (rt *Router) probe(ctx context.Context) {
	for _, b := range rt.backends {
		probeCtx, cancel := context.WithTimeout(ctx, rt.opts.HealthInterval)
		req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, b.url+"/healthz", nil)
		ok := false
		if err == nil {
			if resp, err := rt.hc.Do(req); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
		}
		cancel()
		was := b.healthy.Swap(ok)
		if was != ok {
			slog.Info("router: replica health changed", "replica", b.url, "healthy", ok)
		}
		g := 0.0
		if ok {
			g = 1
		}
		mRouterHealthy.With(b.url).Set(g)
	}
}

// order returns the backend preference order for a signature: the ring
// walk from the signature's hash point, healthy replicas first, each
// replica exactly once. An unhealthy replica still appears (at the end)
// — a probe may be stale, and trying it beats failing the client.
func (rt *Router) order(sig string) []*backend {
	h := fnv.New64a()
	h.Write([]byte(sig))
	point := h.Sum64()
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= point })
	var walk []*backend
	seen := make(map[int]bool, len(rt.backends))
	for n := 0; n < len(rt.ring) && len(walk) < len(rt.backends); n++ {
		e := rt.ring[(i+n)%len(rt.ring)]
		if !seen[e.idx] {
			seen[e.idx] = true
			walk = append(walk, rt.backends[e.idx])
		}
	}
	healthyFirst := make([]*backend, 0, len(walk))
	for _, b := range walk {
		if b.healthy.Load() {
			healthyFirst = append(healthyFirst, b)
		}
	}
	for _, b := range walk {
		if !b.healthy.Load() {
			healthyFirst = append(healthyFirst, b)
		}
	}
	return healthyFirst
}

// handleQuery routes a query by its canonical signature, so identical
// queries land on the same replica's memo and singleflight. It reads the
// request as polygamyd does (httpapi.ReadQuery) and answers what a replica
// would refuse itself: the textual form signs like its structured
// equivalent, so both forms share a home replica, and only a well-formed
// query is forwarded.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, body, _, ok := httpapi.ReadQuery(w, r, httpapi.MaxJSONBody)
	if !ok {
		return
	}
	rt.forwardOrdered(w, r, rt.order(q.Signature()), r.Method, r.URL.RequestURI(), body)
}

// handleRead forwards any other read to a healthy replica, round-robin.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.WriteJSON(w, http.StatusNotFound, httpapi.Error{Error: "unknown route"})
		return
	}
	n := len(rt.backends)
	start := int(rt.rr.Add(1)) % n
	var cands []*backend
	for i := 0; i < n; i++ {
		b := rt.backends[(start+i)%n]
		if b.healthy.Load() {
			cands = append(cands, b)
		}
	}
	for i := 0; i < n; i++ {
		b := rt.backends[(start+i)%n]
		if !b.healthy.Load() {
			cands = append(cands, b)
		}
	}
	rt.forwardOrdered(w, r, cands, http.MethodGet, r.URL.RequestURI(), nil)
}

// handleWrite forwards ingest, append and graph-build bodies to the leader
// verbatim.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	if rt.opts.Leader == "" {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable, httpapi.Error{Error: "router has no leader configured; writes are unavailable"})
		return
	}
	req, err := backendRequest(r, r.Method,
		strings.TrimRight(rt.opts.Leader, "/")+r.URL.RequestURI(), r.Body, r.Header.Get("Content-Type"))
	if err != nil {
		httpapi.WriteJSON(w, http.StatusInternalServerError, httpapi.Error{Error: err.Error()})
		return
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		httpapi.WriteJSON(w, http.StatusBadGateway, httpapi.Error{Error: "leader unreachable: " + err.Error()})
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replicas := make(map[string]bool, len(rt.backends))
	healthy := 0
	for _, b := range rt.backends {
		ok := b.healthy.Load()
		replicas[b.url] = ok
		if ok {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, status, map[string]any{
		"status":   map[bool]string{true: "ok", false: "degraded"}[healthy > 0],
		"uptime":   time.Since(rt.started).Round(time.Millisecond).String(),
		"replicas": replicas,
	})
}

// forwardOrdered sends the request down cands in order, retrying the next
// replica on transport errors and gateway-class failures. Client-fault
// statuses (4xx) are the replica's verdict on the request itself and
// forward as-is.
func (rt *Router) forwardOrdered(w http.ResponseWriter, r *http.Request, cands []*backend, method, path string, body []byte) {
	for i, b := range cands {
		if i > 0 {
			mRouterRetries.Inc()
		}
		var (
			rd          io.Reader
			contentType string
		)
		if body != nil {
			rd, contentType = bytes.NewReader(body), "application/json"
		}
		req, err := backendRequest(r, method, b.url+path, rd, contentType)
		if err != nil {
			httpapi.WriteJSON(w, http.StatusInternalServerError, httpapi.Error{Error: err.Error()})
			return
		}
		resp, err := rt.hc.Do(req)
		if err != nil {
			// Transport failure: the replica is gone or unreachable. Mark it
			// so signed traffic re-homes until a probe says otherwise.
			b.healthy.Store(false)
			mRouterRequests.With(b.url, "error").Inc()
			if r.Context().Err() != nil {
				return // client went away; nothing useful to write
			}
			continue
		}
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusGatewayTimeout {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			mRouterRequests.With(b.url, "error").Inc()
			continue
		}
		mRouterRequests.With(b.url, "ok").Inc()
		b.healthy.Store(true)
		copyResponse(w, resp)
		resp.Body.Close()
		return
	}
	mRouterExhausted.Inc()
	httpapi.WriteJSON(w, http.StatusServiceUnavailable,
		httpapi.Error{Error: "no replica could serve the request"})
}

// copyResponse relays a backend response to the client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
