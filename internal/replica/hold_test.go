package replica

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
)

// holdFixture is a leader whose Source the test holds, so it can announce
// publishes, behind a handler that reports each manifest request as it
// arrives and as it is answered.
type holdFixture struct {
	fw       *core.Framework
	path     string
	src      *Source
	leader   *Leader
	handler  http.Handler
	entered  chan struct{} // one value per manifest request arriving
	answered chan struct{} // one value per manifest request answered
	requests atomic.Int64
}

func newHoldFixture(t testing.TB, wrap func(http.Handler) http.Handler) *holdFixture {
	t.Helper()
	hf := &holdFixture{
		fw:   leaderFramework(t, 0),
		path: filepath.Join(t.TempDir(), "leader.snap"),
		// Buffered past the request count of any test here, so no signal
		// a test waits for is dropped.
		entered:  make(chan struct{}, 1024),
		answered: make(chan struct{}, 1024),
	}
	if err := hf.fw.Save(hf.path); err != nil {
		t.Fatal(err)
	}
	hf.src = NewSource(hf.path)
	hf.leader = NewLeader(hf.src)
	var h http.Handler = hf.leader
	if wrap != nil {
		h = wrap(h)
	}
	signal := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default: // a test that stopped reading must not block the handler
		}
	}
	hf.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/snapshot/manifest" {
			h.ServeHTTP(w, r)
			return
		}
		hf.requests.Add(1)
		signal(hf.entered)
		h.ServeHTTP(w, r)
		signal(hf.answered)
	})
	return hf
}

// publish writes a changed snapshot (the graph section appears) and tells
// the source, as polygamyd's saveSnapshot does.
func (hf *holdFixture) publish(t testing.TB) {
	t.Helper()
	if _, err := hf.fw.BuildGraph(core.Clause{Permutations: 80}); err != nil {
		t.Fatal(err)
	}
	if err := hf.fw.Save(hf.path); err != nil {
		t.Fatal(err)
	}
	hf.src.Notify()
}

func (hf *holdFixture) serve(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(hf.handler)
	t.Cleanup(srv.Close)
	return srv
}

// holdClient is a client on its own transport, so a test can drop its idle
// connections and count goroutines without other tests' traffic.
func holdClient(t testing.TB, base string) (*Client, *http.Transport) {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c, err := NewClient(base, &http.Client{Transport: tr, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c, tr
}

func waitFor(t testing.TB, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// settleGoroutines waits until the goroutine count is back to base: a
// hold that ended left nothing running.
func settleGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the hold", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type manifestReply struct {
	info        ManifestInfo
	notModified bool
	err         error
	at          time.Time
}

func askManifest(ctx context.Context, c *Client, etag string, wait time.Duration) <-chan manifestReply {
	out := make(chan manifestReply, 1)
	go func() {
		info, nm, err := c.Manifest(ctx, etag, wait)
		out <- manifestReply{info, nm, err, time.Now()}
	}()
	return out
}

func currentETag(t testing.TB, src *Source) string {
	t.Helper()
	_, etag, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return etag
}

// TestManifestHoldAnswersOnPublish: a held request with a 2 s wait
// answers 200 with the new manifest within 50 ms of the publish; an
// announced re-save of the same bytes keeps it held.
func TestManifestHoldAnswersOnPublish(t *testing.T) {
	hf := newHoldFixture(t, nil)
	srv := hf.serve(t)
	c, _ := holdClient(t, srv.URL)
	etag := currentETag(t, hf.src)
	stillHeld := func(reply <-chan manifestReply, what string) {
		t.Helper()
		select {
		case r := <-reply:
			t.Fatalf("answered %s: %+v", what, r)
		case <-time.After(100 * time.Millisecond):
		}
	}

	reply := askManifest(context.Background(), c, etag, 2*time.Second)
	waitFor(t, hf.entered, "the manifest request")
	if err := hf.fw.Save(hf.path); err != nil {
		t.Fatal(err)
	}
	hf.src.Notify()
	stillHeld(reply, "on a publish of the same snapshot")
	if _, err := hf.fw.BuildGraph(core.Clause{Permutations: 80}); err != nil {
		t.Fatal(err)
	}
	if err := hf.fw.Save(hf.path); err != nil {
		t.Fatal(err)
	}
	// The hold watches no file: the request is still held after the save.
	stillHeld(reply, "before the publish was announced")
	t0 := time.Now()
	hf.src.Notify()
	r := <-reply
	if r.err != nil || r.notModified {
		t.Fatalf("held request after publish: notModified=%v err=%v", r.notModified, r.err)
	}
	if r.info.ETag == etag {
		t.Fatal("answered with the old manifest")
	}
	if d := r.at.Sub(t0); d > 50*time.Millisecond {
		t.Fatalf("answered %v after the publish, want within 50ms", d)
	}
}

// TestManifestHoldTimesOut: with no publish the hold runs its wait and
// answers 304, and the unchanged snapshot is still parsed once.
func TestManifestHoldTimesOut(t *testing.T) {
	hf := newHoldFixture(t, nil)
	srv := hf.serve(t)
	c, _ := holdClient(t, srv.URL)
	etag := currentETag(t, hf.src)

	const wait = 150 * time.Millisecond
	t0 := time.Now()
	_, nm, err := c.Manifest(context.Background(), etag, wait)
	if err != nil || !nm {
		t.Fatalf("held request without a publish: notModified=%v err=%v", nm, err)
	}
	if d := time.Since(t0); d < wait {
		t.Fatalf("answered after %v, before its %v wait ran out", d, wait)
	}
	if got := hf.src.Parses(); got != 1 {
		t.Fatalf("parses = %d, want 1", got)
	}
	// A mismatched tag is answered at once, wait or not.
	if _, nm, err := c.Manifest(context.Background(), `"dp-feedfacecafebeef"`, time.Minute); err != nil || nm {
		t.Fatalf("stale tag with a wait: notModified=%v err=%v", nm, err)
	}
}

// TestManifestHoldRejectsBadWait: a wait that is not a duration is a 400.
func TestManifestHoldRejectsBadWait(t *testing.T) {
	hf := newHoldFixture(t, nil)
	for _, q := range []string{"wait=soon", "wait=-1s"} {
		w := httptest.NewRecorder()
		hf.leader.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/snapshot/manifest?"+q, nil))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, w.Code)
		}
	}
}

// TestManifestHoldEndsOnHangUp: a client that gives up ends the hold at
// once, and the goroutines it used are gone afterwards.
func TestManifestHoldEndsOnHangUp(t *testing.T) {
	hf := newHoldFixture(t, nil)
	srv := hf.serve(t)
	c, tr := holdClient(t, srv.URL)
	etag := currentETag(t, hf.src)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	reply := askManifest(ctx, c, etag, 20*time.Second)
	waitFor(t, hf.entered, "the manifest request")
	t0 := time.Now()
	cancel()
	if r := <-reply; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("hung-up request: err = %v", r.err)
	}
	waitFor(t, hf.answered, "the held handler to return")
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("hold outlived the hang-up by %v", d)
	}
	tr.CloseIdleConnections()
	settleGoroutines(t, base)
}

// TestManifestHoldEndsOnShutdown: closing the leader, as polygamyd does
// from http.Server.RegisterOnShutdown, answers a held request at once, so
// Shutdown drains without waiting out the hold; later requests are not
// held.
func TestManifestHoldEndsOnShutdown(t *testing.T) {
	hf := newHoldFixture(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: hf.handler}
	hs.RegisterOnShutdown(hf.leader.Close)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c, tr := holdClient(t, "http://"+ln.Addr().String())
	etag := currentETag(t, hf.src)
	base := runtime.NumGoroutine()

	reply := askManifest(context.Background(), c, etag, 20*time.Second)
	waitFor(t, hf.entered, "the manifest request")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("Shutdown took %v with a request held", d)
	}
	if r := <-reply; r.err != nil || !r.notModified {
		t.Fatalf("held request at shutdown: notModified=%v err=%v", r.notModified, r.err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	tr.CloseIdleConnections()
	settleGoroutines(t, base-1) // base counted the Serve goroutine

	// A closed leader still answers, without holding.
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/snapshot/manifest?wait=20s", nil)
	req.Header.Set("If-None-Match", etag)
	t0 = time.Now()
	hf.leader.ServeHTTP(w, req)
	if w.Code != http.StatusNotModified || time.Since(t0) > 2*time.Second {
		t.Fatalf("closed leader: status %d after %v", w.Code, time.Since(t0))
	}
}

// runFollower starts Run on a follower of leader with the given Poll; the
// test's cleanup stops it and waits for Run to return.
func runFollower(t testing.TB, leader string, poll time.Duration) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		Leader:     leader,
		Path:       filepath.Join(t.TempDir(), "replica.snap"),
		Grid:       testGrid,
		Workers:    2,
		Poll:       poll,
		HTTPClient: &http.Client{Timeout: 2*poll + 5*time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
	return f
}

// TestFollowerRunAppliesAtPublish: Run's held request makes a publish
// visible long before the next Poll, and Status answers while the request
// is held.
func TestFollowerRunAppliesAtPublish(t *testing.T) {
	hf := newHoldFixture(t, nil)
	srv := hf.serve(t)
	const poll = 10 * time.Second
	f := runFollower(t, srv.URL, poll)

	waitFor(t, hf.entered, "the first manifest request")
	waitFor(t, hf.answered, "the first manifest answer")
	waitFor(t, hf.entered, "the held manifest request")
	status := make(chan FollowerStatus, 1)
	go func() { status <- f.Status() }()
	select {
	case st := <-status:
		if st.Epoch != 1 {
			t.Fatalf("epoch %d while held, want 1", st.Epoch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Status blocked on a held manifest request")
	}

	t0 := time.Now()
	hf.publish(t)
	for f.Status().Epoch < 2 {
		if time.Since(t0) > poll/2 {
			t.Fatalf("publish not applied after %v (poll %v)", time.Since(t0), poll)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := f.Framework().RelGraph(); !ok {
		t.Fatal("the applied epoch lacks the published graph")
	}
}

// TestFollowerRunPacesEarlyAnswers: against a leader that answers 304 at
// once (it does not hold), Run sends at most one manifest request per
// Poll.
func TestFollowerRunPacesEarlyAnswers(t *testing.T) {
	hf := newHoldFixture(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.URL.RawQuery = "" // drop the wait: answer at once
			h.ServeHTTP(w, r)
		})
	})
	srv := hf.serve(t)
	const poll = 50 * time.Millisecond
	f := runFollower(t, srv.URL, poll)
	readyCtx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	if err := f.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}

	n0, t0 := hf.requests.Load(), time.Now()
	time.Sleep(10 * poll)
	n, elapsed := hf.requests.Load()-n0, time.Since(t0)
	if limit := int64(elapsed/poll) + 1; n > limit {
		t.Fatalf("%d manifest requests in %v at poll %v, want at most %d", n, elapsed, poll, limit)
	}
	if n < 2 {
		t.Fatalf("%d manifest requests in %v: the follower stopped asking", n, elapsed)
	}
}

// TestSyncStagesMoveOncePerSync: an applied sync observes each stage once,
// an unchanged one only wait, a failed one none.
func TestSyncStagesMoveOncePerSync(t *testing.T) {
	stages := []string{"wait", "fetch", "write", "open"}
	counts := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, st := range stages {
			out[st] = mSyncStage.With(st).Count()
		}
		return out
	}
	check := func(before map[string]uint64, want map[string]uint64, what string) {
		t.Helper()
		after := counts()
		for _, st := range stages {
			if got := after[st] - before[st]; got != want[st] {
				t.Errorf("%s: stage %s moved by %d, want %d", what, st, got, want[st])
			}
		}
	}
	var broken atomic.Bool
	hf := newHoldFixture(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if broken.Load() {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	srv := hf.serve(t)
	f := newTestFollower(t, &leaderFixture{srv: srv})

	before := counts()
	mustSync(t, f)
	check(before, map[string]uint64{"wait": 1, "fetch": 1, "write": 1, "open": 1}, "applied sync")

	before = counts()
	if applied, err := f.Sync(context.Background()); err != nil || applied {
		t.Fatalf("unchanged sync: applied=%v err=%v", applied, err)
	}
	check(before, map[string]uint64{"wait": 1}, "unchanged sync")

	broken.Store(true)
	before = counts()
	if _, err := f.Sync(context.Background()); err == nil {
		t.Fatal("sync against a failing leader succeeded")
	}
	check(before, map[string]uint64{}, "failed sync")

	broken.Store(false)
	hf.publish(t)
	before = counts()
	mustSync(t, f)
	check(before, map[string]uint64{"wait": 1, "fetch": 1, "write": 1, "open": 1}, "second applied sync")
}
