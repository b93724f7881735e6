package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/store"
)

// countingProxy wraps a leader handler and tallies replication traffic:
// requests by path prefix and section payload bytes actually served. A sync
// needs nothing but the manifest and sections, so any other request fails
// the test.
type countingProxy struct {
	t        testing.TB
	inner    http.Handler
	manifest atomic.Int64
	sections atomic.Int64
	bytes    atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (cw countingWriter) Write(b []byte) (int, error) {
	cw.n.Add(int64(len(b)))
	return cw.ResponseWriter.Write(b)
}

func (p *countingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/snapshot/manifest":
		p.manifest.Add(1)
		p.inner.ServeHTTP(w, r)
	case len(r.URL.Path) > len("/v1/snapshot/sections/") && r.URL.Path[:len("/v1/snapshot/sections/")] == "/v1/snapshot/sections/":
		p.sections.Add(1)
		p.inner.ServeHTTP(countingWriter{w, &p.bytes}, r)
	default:
		p.t.Errorf("follower requested %s %s; a sync needs only the manifest and sections", r.Method, r.URL.Path)
		http.NotFound(w, r)
	}
}

// TestFollowerFirstSyncServesLeaderResults is the basic shipping path: a
// follower bootstraps from the leader's snapshot and answers the reference
// query identically.
func TestFollowerFirstSyncServesLeaderResults(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	f := newTestFollower(t, lf)
	if f.Framework() != nil {
		t.Fatal("follower serves a framework before any sync")
	}
	mustSync(t, f)
	fw := f.Framework()
	if fw == nil {
		t.Fatal("no framework after sync")
	}
	want := queryResults(t, leaderFW)
	got := queryResults(t, fw)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("follower answers differ from leader: got %d relationships, want %d", len(got), len(want))
	}
	st := f.Status()
	if st.Epoch != 1 || st.Syncs != 1 || st.LastError != "" {
		t.Fatalf("status after first sync: %+v", st)
	}
	if st.SectionsFetched == 0 || st.BytesFetched == 0 {
		t.Fatalf("first sync should fetch sections: %+v", st)
	}
}

// TestFollowerUnchangedSnapshotCostsOneConditionalRequest pins the
// ETag/fingerprint short-circuit: while the leader's snapshot is
// unchanged, a poll is exactly one conditional manifest request — no
// section bytes, and no manifest re-parse on the leader
// (store.ReadManifest is stat-cached).
func TestFollowerUnchangedSnapshotCostsOneConditionalRequest(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	proxy := &countingProxy{t: t}
	lf := newLeaderFixture(t, leaderFW, func(h http.Handler) http.Handler {
		proxy.inner = h
		return proxy
	})
	src := NewSource(lf.path) // mirror of the handler's source for parse counting
	if _, _, err := src.Manifest(); err != nil {
		t.Fatal(err)
	}
	f := newTestFollower(t, lf)
	mustSync(t, f)

	sectionsAfterFirst := proxy.sections.Load()
	bytesAfterFirst := proxy.bytes.Load()
	if sectionsAfterFirst == 0 {
		t.Fatal("first sync should transfer sections")
	}

	for i := 0; i < 5; i++ {
		applied, err := f.Sync(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatal("unchanged snapshot must not re-apply")
		}
	}
	if got := proxy.sections.Load(); got != sectionsAfterFirst {
		t.Fatalf("polling transferred %d extra section requests", got-sectionsAfterFirst)
	}
	if got := proxy.bytes.Load(); got != bytesAfterFirst {
		t.Fatalf("polling transferred %d extra section bytes", got-bytesAfterFirst)
	}
	if got := proxy.manifest.Load(); got < 6 {
		t.Fatalf("expected one conditional manifest request per poll, saw %d total", got)
	}
	// Leader-side short-circuit: polling the source for every one of those
	// requests parsed the manifest exactly once.
	for i := 0; i < 5; i++ {
		if _, _, err := src.Manifest(); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.Parses(); got != 1 {
		t.Fatalf("unchanged snapshot parsed %d times, want 1", got)
	}
	if st := f.Status(); st.Noops != 5 {
		t.Fatalf("noops = %d, want 5", st.Noops)
	}
}

// TestFollowerDeltaPullReusesUnchangedSections: when only the graph
// section appears (index unchanged), the follower transfers just the new
// section and reuses the index bytes from its local container.
func TestFollowerDeltaPullReusesUnchangedSections(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	proxy := &countingProxy{t: t}
	lf := newLeaderFixture(t, leaderFW, func(h http.Handler) http.Handler {
		proxy.inner = h
		return proxy
	})
	f := newTestFollower(t, lf)
	mustSync(t, f)
	if st := f.Status(); st.SectionsReused != 0 {
		t.Fatalf("first sync reused %d sections from an empty container", st.SectionsReused)
	}

	// Leader builds the graph and re-saves: the index section's bytes are
	// unchanged, the graph section is new.
	if _, err := leaderFW.BuildGraph(core.Clause{Permutations: 80}); err != nil {
		t.Fatal(err)
	}
	if err := leaderFW.Save(lf.path); err != nil {
		t.Fatal(err)
	}
	before := proxy.bytes.Load()
	mustSync(t, f)
	st := f.Status()
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", st.Epoch)
	}
	if st.SectionsReused == 0 {
		t.Fatal("second sync should reuse the unchanged index section")
	}
	if _, ok := f.Framework().RelGraph(); !ok {
		t.Fatal("follower did not pick up the shipped graph")
	}
	// The delta should be roughly the graph section, not the whole
	// container: assert we moved fewer bytes than the full first transfer.
	if delta := proxy.bytes.Load() - before; delta <= 0 || delta >= before {
		t.Fatalf("delta pull moved %d bytes (full container was %d)", delta, before)
	}
}

// TestFollowerRestartReusesDurableCopy: a follower started on another's
// Path reuses every section of the durable copy the leader still ships on
// its first sync, and fetches only the rest.
func TestFollowerRestartReusesDurableCopy(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	first := newTestFollower(t, lf)
	mustSync(t, first)

	// The graph section is new, the index section unchanged.
	if _, err := leaderFW.BuildGraph(core.Clause{Permutations: 80}); err != nil {
		t.Fatal(err)
	}
	if err := leaderFW.Save(lf.path); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewFollower(FollowerOptions{
		Leader: lf.srv.URL, Path: first.opts.Path, Grid: testGrid, Workers: 2,
		HTTPClient: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, restarted)
	if st := restarted.Status(); st.SectionsReused != 1 || st.SectionsFetched != 1 {
		t.Fatalf("first sync on a durable copy reused %d and fetched %d sections, want 1 and 1", st.SectionsReused, st.SectionsFetched)
	}
	if _, ok := restarted.Framework().RelGraph(); !ok {
		t.Fatal("restarted follower did not pick up the shipped graph")
	}
	if want, got := queryResults(t, leaderFW), queryResults(t, restarted.Framework()); !reflect.DeepEqual(want, got) {
		t.Fatal("restarted follower answers differ from the leader")
	}
}

// TestFollowerWithoutPathWritesNothing: with no Path, a follower syncs and
// serves from memory and leaves no file behind, in the temp directory or
// the working one.
func TestFollowerWithoutPathWritesNothing(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	t.Chdir(dir)
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	f, err := NewFollower(FollowerOptions{
		Leader: lf.srv.URL, Grid: testGrid, Workers: 2,
		HTTPClient: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSync(t, f)
	if want, got := queryResults(t, leaderFW), queryResults(t, f.Framework()); !reflect.DeepEqual(want, got) {
		t.Fatal("path-less follower answers differ from the leader")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("path-less follower left %d entries (err %v)", len(entries), err)
	}
}

// TestFollowerEpochsLeaveNoMapping: an epoch is opened from the bytes the
// follower verified, not from its durable copy, so however many epochs it
// applies the process maps no version of its Path — a superseded epoch is
// heap the GC collects, not a deleted file held open until exit.
func TestFollowerEpochsLeaveNoMapping(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps on this platform")
	}
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	f := newTestFollower(t, lf)
	mustSync(t, f)
	for i := 0; i < 6; i++ {
		if _, err := leaderFW.BuildGraph(core.Clause{Permutations: 60 + i*8}); err != nil {
			t.Fatal(err)
		}
		if err := leaderFW.Save(lf.path); err != nil {
			t.Fatal(err)
		}
		// A fresh mtime per re-save: the leader keys its manifest cache on
		// size and mtime.
		stamp := time.Now().Add(time.Duration(i+1) * time.Second)
		if err := os.Chtimes(lf.path, stamp, stamp); err != nil {
			t.Fatal(err)
		}
		mustSync(t, f)
	}
	if st := f.Status(); st.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", st.Epoch)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(maps, []byte(f.opts.Path)); n != 0 {
		t.Fatalf("after 7 epochs the process holds %d mappings of %s", n, f.opts.Path)
	}
}

// TestFollowerCorpusGrowthResyncsDatasets: a leader-side ingest that adds
// a data set (changing the fingerprint) makes the follower swap an epoch
// that covers it, from the manifest and sections alone — no raw data set
// crosses the wire.
func TestFollowerCorpusGrowthResyncsDatasets(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	proxy := &countingProxy{t: t}
	lf := newLeaderFixture(t, leaderFW, func(h http.Handler) http.Handler {
		proxy.inner = h
		return proxy
	})
	f := newTestFollower(t, lf)
	mustSync(t, f)
	firstFW := f.Framework()

	// Grow the leader corpus within the existing time range, then re-save.
	extra := testDatasets(0)[0].Filter("gusts", func(dataset.Tuple) bool { return true })
	if _, err := leaderFW.IngestDataset(extra); err != nil {
		t.Fatal(err)
	}
	if err := leaderFW.Save(lf.path); err != nil {
		t.Fatal(err)
	}
	mustSync(t, f)
	fw := f.Framework()
	if fw == firstFW {
		t.Fatal("epoch did not swap after corpus growth")
	}
	if got := len(fw.Datasets()); got != 3 {
		t.Fatalf("follower corpus has %d data sets, want 3", got)
	}
	if _, err := fw.IngestDataset(extra.Filter("gusts2", func(dataset.Tuple) bool { return true })); err == nil {
		t.Fatal("a follower's framework, which holds no raw data, accepted an ingest")
	}
	// The swapped-out epoch keeps answering: in-flight queries against the
	// old framework must not be invalidated by the swap.
	if rels := queryResults(t, firstFW); len(rels) == 0 {
		t.Fatal("previous epoch stopped answering after swap")
	}
}

// TestFollowerSupersededEpochKeepsAnswering: a superseded epoch is heap
// that whoever still holds it keeps alive. A framework captured at epoch 1
// must, five epochs on, repeat its cached answer byte for byte and answer
// a clause it has never seen — which reads its index sections — exactly
// as the leader does.
func TestFollowerSupersededEpochKeepsAnswering(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	f := newTestFollower(t, lf)
	mustSync(t, f)
	first := f.Framework()
	answer := func(fw *core.Framework, perms int) []byte {
		rels, _, err := fw.Query(core.Query{Clause: core.Clause{Permutations: perms}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rels) == 0 {
			t.Fatal("query returned no relationship")
		}
		blob, err := json.Marshal(rels)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	before := answer(first, 80)
	for i := 0; i < 5; i++ {
		if _, err := leaderFW.BuildGraph(core.Clause{Permutations: 60 + i*8}); err != nil {
			t.Fatal(err)
		}
		if err := leaderFW.Save(lf.path); err != nil {
			t.Fatal(err)
		}
		// The leader keys its manifest cache on size and mtime; give each
		// re-save an mtime of its own so none hides inside one clock tick.
		stamp := time.Now().Add(time.Duration(i+1) * time.Second)
		if err := os.Chtimes(lf.path, stamp, stamp); err != nil {
			t.Fatal(err)
		}
		mustSync(t, f)
	}
	if f.Framework() == first || f.Status().Epoch != 6 {
		t.Fatalf("epoch = %d, want 6 and a new framework", f.Status().Epoch)
	}
	if got := answer(first, 80); !bytes.Equal(got, before) {
		t.Fatal("epoch-1 framework repeats its cached answer differently after 5 swaps")
	}
	if got, want := answer(first, 96), answer(leaderFW, 96); !bytes.Equal(got, want) {
		t.Fatal("epoch-1 framework answers a new clause differently from the leader after 5 swaps")
	}
}

// TestFollowerEpochSwapDoesNotDropInFlightQueries runs queries
// continuously while epochs swap underneath, asserting no query ever
// fails — the atomic pointer swap plus never-Close discipline in action.
func TestFollowerEpochSwapDoesNotDropInFlightQueries(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	f := newTestFollower(t, lf)
	mustSync(t, f)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fw := f.Framework()
				// Vary the clause so queries do real work instead of all
				// hitting one cache entry.
				_, _, err := fw.Query(core.Query{Clause: core.Clause{Permutations: 40 + (i%3)*8 + w}})
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	// Swap several epochs mid-storm by alternating the leader's graph
	// state (each re-save changes the manifest).
	for i := 0; i < 3; i++ {
		if _, err := leaderFW.BuildGraph(core.Clause{Permutations: 80 + i*8}); err != nil {
			t.Fatal(err)
		}
		if err := leaderFW.Save(lf.path); err != nil {
			t.Fatal(err)
		}
		mustSync(t, f)
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("query failed during epoch swaps: %v", err)
	default:
	}
	if st := f.Status(); st.Epoch != 4 {
		t.Fatalf("epoch = %d, want 4", st.Epoch)
	}
}

func TestBackoffDelay(t *testing.T) {
	base, max := 2*time.Second, 30*time.Second
	if d := backoffDelay(base, 0, max); d != base {
		t.Fatalf("steady-state delay = %v, want %v", d, base)
	}
	if d := backoffDelay(base, 1, max); d != 4*time.Second {
		t.Fatalf("after 1 failure = %v, want 4s", d)
	}
	if d := backoffDelay(base, 2, max); d != 8*time.Second {
		t.Fatalf("after 2 failures = %v, want 8s", d)
	}
	if d := backoffDelay(base, 10, max); d != max {
		t.Fatalf("backoff uncapped: %v", d)
	}
	if d := backoffDelay(time.Minute, 1, 30*time.Second); d != 30*time.Second {
		t.Fatalf("base above max not clamped: %v", d)
	}
}

func TestNewFollowerValidation(t *testing.T) {
	if _, err := NewFollower(FollowerOptions{Leader: "http://x", Path: ""}); err != nil {
		t.Fatalf("empty path (no durable copy) refused: %v", err)
	}
	if _, err := NewFollower(FollowerOptions{Leader: "not a url", Path: "p"}); err == nil {
		t.Fatal("relative leader URL accepted")
	}
}

// TestFollowerDefaultClientTimeout: a follower given no HTTP client talks
// to its leader through one whose timeout exceeds Poll, the longest a held
// manifest request waits, so a stalled leader fails the sync instead of
// wedging Run.
func TestFollowerDefaultClientTimeout(t *testing.T) {
	for _, poll := range []time.Duration{0, 10 * time.Second, 10 * time.Minute} {
		f, err := NewFollower(FollowerOptions{Leader: "http://x", Path: "p", Poll: poll})
		if err != nil {
			t.Fatal(err)
		}
		if to := f.client.hc.Timeout; to <= f.opts.Poll {
			t.Errorf("Poll %v: default client timeout %v, want above Poll", f.opts.Poll, to)
		}
	}
}

// TestFollowerRunAndWaitReady drives the production loop briefly: Run
// applies the first epoch, WaitReady observes it, cancellation stops the
// loop.
func TestFollowerRunAndWaitReady(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, nil)
	f := newTestFollower(t, lf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()
	readyCtx, rcancel := context.WithTimeout(ctx, 30*time.Second)
	defer rcancel()
	if err := f.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

// TestManifestETag pins the tag's sensitivity: stable across identical
// manifests, different on any replication-relevant change.
func TestManifestETag(t *testing.T) {
	m := store.Manifest{
		FormatVersion: store.FormatVersion,
		Fingerprint:   store.Fingerprint{Seed: 5, MinTS: 1, MaxTS: 2, Datasets: []string{"a", "b"}},
		ClauseSig:     "sig",
		Sections: []store.SectionInfo{
			{Name: "index", Length: 10, CRC: 0xAB},
		},
	}
	base := ManifestETag(m)
	if base != ManifestETag(m) {
		t.Fatal("etag not deterministic")
	}
	mutations := []func(*store.Manifest){
		func(m *store.Manifest) { m.Fingerprint.Seed = 6 },
		func(m *store.Manifest) { m.Fingerprint.MaxTS = 9 },
		func(m *store.Manifest) { m.Fingerprint.Datasets = []string{"a", "c"} },
		func(m *store.Manifest) { m.ClauseSig = "other" },
		func(m *store.Manifest) { m.Sections[0].CRC = 0xCD },
		func(m *store.Manifest) { m.Sections[0].Length = 11 },
		func(m *store.Manifest) { m.Sections = append(m.Sections, store.SectionInfo{Name: "graph"}) },
	}
	for i, mutate := range mutations {
		mm := m
		mm.Fingerprint.Datasets = append([]string{}, m.Fingerprint.Datasets...)
		mm.Sections = append([]store.SectionInfo{}, m.Sections...)
		mutate(&mm)
		if ManifestETag(mm) == base {
			t.Errorf("mutation %d did not change the etag", i)
		}
	}
}
