package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/replica"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// The replication fixtures use the canonical seed+grid city (the form a
// follower can rebuild from the snapshot fingerprint seed plus its -grid
// flag) and a smaller corpus than the main server tests, since every
// follower bootstrap re-downloads and re-indexes it.
const (
	replSeed  = 9
	replGrid  = 8
	replHours = 24 * 30
)

func replCorpus() []*dataset.Dataset {
	rng := rand.New(rand.NewSource(21))
	wind := &dataset.Dataset{
		Name: "wind", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"speed"},
	}
	trips := &dataset.Dataset{
		Name: "trips", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"count"},
	}
	base := time.Date(2013, time.June, 1, 0, 0, 0, 0, time.UTC).Unix()
	for i := 0; i < replHours; i++ {
		w := 10 + rng.NormFloat64()*0.4
		c := 400 + rng.NormFloat64()*3
		if i%41 == 7 {
			w = 55 + rng.Float64()*10
			c = 20 + rng.Float64()*4
		}
		ts := base + int64(i)*3600
		wind.Tuples = append(wind.Tuples, dataset.Tuple{Region: 0, TS: ts, Values: []float64{w}})
		trips.Tuples = append(trips.Tuples, dataset.Tuple{Region: 0, TS: ts, Values: []float64{c}})
	}
	return []*dataset.Dataset{wind, trips}
}

func replFramework(t *testing.T) *core.Framework {
	t.Helper()
	city, err := spatial.Generate(spatial.GridConfig(replSeed, replGrid))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{City: city, Workers: 2, Seed: replSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range replCorpus() {
		if err := fw.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return fw
}

// replTier is a complete serving tier: a leader polygamyd with the
// snapshot surface enabled, nFollowers replica polygamyd processes that
// have completed their first sync, and a router over the followers.
type replTier struct {
	leaderFW  *core.Framework
	leaderSrv *server
	leader    *httptest.Server
	snapPath  string
	followers []*replica.Follower
	srvs      []*httptest.Server
	router    *httptest.Server
}

// answered reads how many forwards to follower i the router counted
// "ok": a response that follower served. The tier's servers share this
// process's registry, so per-follower counts come from the router's
// per-replica series.
func (tier *replTier) answered(t *testing.T, i int) float64 {
	t.Helper()
	return metricSample(t, tier.router.URL,
		`polygamy_router_requests_total{replica="`+tier.srvs[i].URL+`",outcome="ok"}`)
}

// answeredAll sums answered over every follower.
func (tier *replTier) answeredAll(t *testing.T) float64 {
	var sum float64
	for i := range tier.srvs {
		sum += tier.answered(t, i)
	}
	return sum
}

func newReplTier(t *testing.T, nFollowers int) *replTier {
	t.Helper()
	tier := &replTier{leaderFW: replFramework(t)}
	tier.snapPath = filepath.Join(t.TempDir(), "leader.snap")
	if err := tier.leaderFW.Save(tier.snapPath); err != nil {
		t.Fatal(err)
	}
	tier.leaderSrv = newServer(tier.leaderFW)
	tier.leaderSrv.snapshotPath = tier.snapPath
	tier.leaderSrv.enableLeader(replica.NewSource(tier.snapPath))
	tier.leader = httptest.NewServer(tier.leaderSrv)
	t.Cleanup(tier.leader.Close)

	var urls []string
	for i := 0; i < nFollowers; i++ {
		fol, err := replica.NewFollower(replica.FollowerOptions{
			Leader:     tier.leader.URL,
			Path:       filepath.Join(t.TempDir(), fmt.Sprintf("replica%d.snap", i)),
			Grid:       replGrid,
			Workers:    2,
			Poll:       10 * time.Millisecond,
			HTTPClient: &http.Client{Timeout: 5 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		if applied, err := fol.Sync(t.Context()); err != nil || !applied {
			t.Fatalf("follower %d first sync: applied=%v err=%v", i, applied, err)
		}
		rs := newReplicaServer(fol)
		hs := httptest.NewServer(rs)
		t.Cleanup(hs.Close)
		tier.followers = append(tier.followers, fol)
		tier.srvs = append(tier.srvs, hs)
		urls = append(urls, hs.URL)
	}
	rt, err := replica.NewRouter(replica.RouterOptions{
		Leader:     tier.leader.URL,
		Replicas:   urls,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	tier.router = httptest.NewServer(rt)
	t.Cleanup(tier.router.Close)
	return tier
}

// TestQueryRequestRefusedAlike sends each malformed query request to a
// polygamyd server and to a router in front of it. Both read a query
// through httpapi.ReadQuery, so both must answer the same status with a
// JSON error body, and the router must forward none of them.
func TestQueryRequestRefusedAlike(t *testing.T) {
	var reached atomic.Int64 // /v1/query requests the server saw
	s := newServer(replFramework(t))
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			reached.Add(1)
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(daemon.Close)
	rt, err := replica.NewRouter(replica.RouterOptions{
		Replicas:   []string{daemon.URL},
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt)
	t.Cleanup(router.Close)

	cases := []struct {
		name, method, target, body string
		want                       int
	}{
		{"unknown field", http.MethodPost, "/v1/query", `{"clause":{},"unknown_field":1}`, http.StatusBadRequest},
		{"not JSON", http.MethodPost, "/v1/query", `not json`, http.StatusBadRequest},
		{"over the cap", http.MethodPost, "/v1/query",
			`{"` + strings.Repeat("a", httpapi.MaxJSONBody) + `":1}`, http.StatusRequestEntityTooLarge},
		{"GET without q", http.MethodGet, "/v1/query", "", http.StatusBadRequest},
		{"text that does not parse", http.MethodGet, "/v1/query?q=select+stars", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		for _, door := range []struct{ name, url string }{{"server", daemon.URL}, {"router", router.URL}} {
			req, err := http.NewRequest(tc.method, door.url+tc.target, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, door.name, err)
			}
			var e httpapi.Error
			decodeErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s via %s: status %d, want %d", tc.name, door.name, resp.StatusCode, tc.want)
			}
			if decodeErr != nil || e.Error == "" {
				t.Errorf("%s via %s: body is not a JSON error (%v, %+v)", tc.name, door.name, decodeErr, e)
			}
		}
	}
	// Only the requests sent to the server directly reached it.
	if n := reached.Load(); n != int64(len(cases)) {
		t.Errorf("server saw %d query requests, want the %d sent to it directly", n, len(cases))
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestReplicatedTierEndToEnd wires the full topology — leader, two
// synced followers, router — and walks the serving contract: routed
// queries, read-only followers, replica status, a routed graph build on
// the leader, and snapshot-shipped graph propagation to the followers.
func TestReplicatedTierEndToEnd(t *testing.T) {
	tier := newReplTier(t, 2)
	client := tier.router.Client()

	// Routed structured query answers with relationships computed on a
	// follower (the leader serves no /v1/query through this router).
	var qr httpapi.QueryResponse
	body := `{"sources":["wind"],"targets":["trips"],"clause":{"permutations":60}}`
	queriesBefore := metricSample(t, tier.router.URL, "polygamy_queries_total")
	answeredBefore := tier.answeredAll(t)
	resp, err := client.Post(tier.router.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(qr.Relationships) == 0 {
		t.Fatal("routed query found no relationships in the planted corpus")
	}
	// The query was evaluated once, and a follower (not the leader)
	// answered it.
	if got := metricSample(t, tier.router.URL, "polygamy_queries_total") - queriesBefore; got != 1 {
		t.Fatalf("process query count rose by %v, want 1", got)
	}
	if got := tier.answeredAll(t) - answeredBefore; got != 1 {
		t.Fatalf("follower answers sum to %v, want 1", got)
	}

	// The textual form routes too.
	q := "find relationships between wind and trips where permutations = 60"
	if code := getJSON(t, tier.router.URL+"/v1/query?q="+strings.ReplaceAll(q, " ", "%20"), nil); code != http.StatusOK {
		t.Fatalf("routed text query: status %d", code)
	}

	// Followers are read-only: direct writes are refused with 403.
	for i, hs := range tier.srvs {
		resp, err := http.Post(hs.URL+"/v1/datasets", "text/csv", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("follower %d accepted a write: status %d", i, resp.StatusCode)
		}
	}

	// Replica status and stats surfaces.
	var st replica.FollowerStatus
	if code := getJSON(t, tier.srvs[0].URL+"/v1/replica/status", &st); code != http.StatusOK {
		t.Fatalf("replica status: %d", code)
	}
	if st.Epoch != 1 || st.Leader != tier.leader.URL {
		t.Fatalf("replica status: %+v", st)
	}
	var stats map[string]any
	if code := getJSON(t, tier.srvs[0].URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if _, ok := stats["replica"]; !ok {
		t.Fatalf("follower stats missing the replica block: %v", stats)
	}

	// A graph build through the router is a write: it reaches the leader,
	// which builds and re-saves its snapshot.
	buildsBefore := metricSample(t, tier.router.URL, "polygamy_graph_builds_total")
	resp, err = client.Post(tier.router.URL+"/v1/graph/build", "application/json",
		strings.NewReader(`{"clause":{"permutations":60}}`))
	if err != nil {
		t.Fatal(err)
	}
	buildBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed graph build: status %d: %s", resp.StatusCode, buildBody)
	}
	// Followers cannot build, so the one build in the process is the
	// leader's.
	if got := metricSample(t, tier.router.URL, "polygamy_graph_builds_total") - buildsBefore; got != 1 {
		t.Fatalf("leader counted %v graph builds, want 1", got)
	}
	g, ok := tier.leaderFW.RelGraph()
	if !ok {
		t.Fatal("leader has no graph after the routed build")
	}

	// The leader's graph matches a local build under the same clause.
	localFW := replFramework(t)
	if _, err := localFW.BuildGraph(core.Clause{Permutations: 60}); err != nil {
		t.Fatal(err)
	}
	lg, _ := localFW.RelGraph()
	if !g.Equal(lg) {
		t.Fatal("leader's graph differs from the local build")
	}

	// The re-saved snapshot ships the graph to the followers on their
	// next poll, without restarting anything.
	for i, fol := range tier.followers {
		applied, err := fol.Sync(t.Context())
		if err != nil || !applied {
			t.Fatalf("follower %d post-build sync: applied=%v err=%v", i, applied, err)
		}
		if _, ok := fol.Framework().RelGraph(); !ok {
			t.Fatalf("follower %d epoch is missing the shipped graph", i)
		}
		if code := getJSON(t, tier.srvs[i].URL+"/v1/graph/stats", nil); code != http.StatusOK {
			t.Fatalf("follower %d graph stats: %d", i, code)
		}
	}

	// Building directly on a follower stays forbidden.
	resp, err = http.Post(tier.srvs[0].URL+"/v1/graph/build", "application/json",
		strings.NewReader(`{"clause":{"permutations":60}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower accepted a local graph build: %d", resp.StatusCode)
	}
}

// TestRouterFailoverStorm is satellite #2: a query storm runs through
// the router while one replica is killed mid-flight. Clients must see
// zero hard errors (only 200s, plus the 429/503 back-pressure statuses),
// and the killed replica's signatures re-home onto the survivor (the
// survivor's answered count rises for signatures it never served before
// the kill).
func TestRouterFailoverStorm(t *testing.T) {
	tier := newReplTier(t, 2)
	client := tier.router.Client()

	// Find query signatures homed on follower 0 (the victim) by probing
	// one variant per permutation count. Probing warms only the victim's
	// cache, so the survivor still evaluates them fresh after failover.
	var victimBodies []string
	for p := 100; p < 160 && len(victimBodies) < 3; p++ {
		body := fmt.Sprintf(`{"sources":["wind"],"targets":["trips"],"clause":{"permutations":%d}}`, p)
		before := tier.answered(t, 0)
		resp, err := client.Post(tier.router.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe %d: status %d", p, resp.StatusCode)
		}
		if tier.answered(t, 0) > before {
			victimBodies = append(victimBodies, body)
		}
	}
	if len(victimBodies) == 0 {
		t.Fatal("no probed signature homed on follower 0")
	}

	var badStatus atomic.Int64
	var transportErr atomic.Int64
	var okAfterKill atomic.Int64
	killed := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, body := range victimBodies {
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := client.Post(tier.router.URL+"/v1/query", "application/json", strings.NewReader(body))
					if err != nil {
						transportErr.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						select {
						case <-killed:
							okAfterKill.Add(1)
						default:
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						// Back-pressure is an acceptable answer mid-failover.
					default:
						badStatus.Add(1)
					}
				}
			}(body)
		}
	}

	time.Sleep(100 * time.Millisecond) // let the storm establish on the victim
	// Every storm signature is homed on the victim, so whatever the
	// survivor serves from here on is redistributed traffic.
	survivorBefore := tier.answered(t, 1)
	tier.srvs[0].CloseClientConnections()
	tier.srvs[0].Close() // hard kill: in-flight requests die on the wire
	close(killed)

	deadline := time.Now().Add(20 * time.Second)
	for tier.answered(t, 1) == survivorBefore || okAfterKill.Load() < 20 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n := badStatus.Load(); n != 0 {
		t.Fatalf("%d client requests failed with a non-429/503 error status", n)
	}
	if n := transportErr.Load(); n != 0 {
		t.Fatalf("%d client requests failed at the transport (router leaked the replica death)", n)
	}
	if okAfterKill.Load() == 0 {
		t.Fatal("no request succeeded after the replica was killed")
	}
	if tier.answered(t, 1) == survivorBefore {
		t.Fatal("survivor's answered count never moved: the victim's signatures were not redistributed to it")
	}
}
