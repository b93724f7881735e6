package replica

import (
	"context"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
)

// faultProxy sits between a follower and the real leader handler and
// injects one failure mode at a time on the section endpoint. mode 0 is
// pass-through; swap modes with arm().
type faultProxy struct {
	inner http.Handler
	mode  atomic.Int32
	hits  atomic.Int64 // requests that had a fault applied
}

const (
	faultNone      = iota
	faultTruncate  // full Content-Length, half the body, then cut
	faultCorrupt   // full body with flipped bytes (CRC mismatch)
	faultServerErr // plain 500
	faultStall     // headers then silence past the client timeout
	faultStaleEtag // rewrite the follower's If-Match to a bogus tag (412)
	faultBadLength // short body with a matching short Content-Length
	faultLongBody  // one byte past the section with a matching Content-Length
)

func (p *faultProxy) arm(mode int32) { p.mode.Store(mode) }

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mode := p.mode.Load()
	if mode == faultNone || !strings.HasPrefix(r.URL.Path, "/v1/snapshot/sections/") {
		p.inner.ServeHTTP(w, r)
		return
	}
	p.hits.Add(1)
	switch mode {
	case faultServerErr:
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	case faultStall:
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		// Longer than the 2s test client timeout; the handler returns when
		// the client gives up and the server closes the connection.
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
		return
	case faultStaleEtag:
		r.Header.Set("If-Match", `"dp-00000000deadbeef"`)
		p.inner.ServeHTTP(w, r)
		return
	}
	// Body-mangling modes: capture the real response, then distort it.
	rec := &captureWriter{header: http.Header{}}
	p.inner.ServeHTTP(rec, r)
	if rec.status != 0 && rec.status != http.StatusOK {
		w.WriteHeader(rec.status)
		return
	}
	body := rec.body
	switch mode {
	case faultTruncate:
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		w.Write(body[:len(body)/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // cut the connection mid-body
	case faultCorrupt:
		for i := range body {
			body[i] ^= 0x5A
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	case faultBadLength:
		half := body[:len(body)/2]
		w.Header().Set("Content-Length", strconv.Itoa(len(half)))
		w.WriteHeader(http.StatusOK)
		w.Write(half)
	case faultLongBody:
		long := append(body, 0)
		w.Header().Set("Content-Length", strconv.Itoa(len(long)))
		w.WriteHeader(http.StatusOK)
		w.Write(long)
	}
}

type captureWriter struct {
	header http.Header
	body   []byte
	status int
}

func (c *captureWriter) Header() http.Header { return c.header }
func (c *captureWriter) WriteHeader(s int)   { c.status = s }
func (c *captureWriter) Write(b []byte) (int, error) {
	c.body = append(c.body, b...)
	return len(b), nil
}

// TestFollowerSurvivesSectionFaults is satellite #1's core assertion: for
// every section-level failure mode, a sync attempt fails cleanly — the
// serving framework pointer, epoch, and query answers are untouched (no
// torn epoch) — and once the fault clears, one sync applies one epoch.
func TestFollowerSurvivesSectionFaults(t *testing.T) {
	faults := []struct {
		name string
		mode int32
	}{
		{"truncated body", faultTruncate},
		{"corrupted bytes", faultCorrupt},
		{"http 500", faultServerErr},
		{"stalled read", faultStall},
		{"stale manifest etag", faultStaleEtag},
		{"short content-length", faultBadLength},
		{"over-long body", faultLongBody},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			t.Parallel()
			leaderFW := leaderFramework(t, 0)
			proxy := &faultProxy{}
			lf := newLeaderFixture(t, leaderFW, func(h http.Handler) http.Handler {
				proxy.inner = h
				return proxy
			})
			f := newTestFollower(t, lf)
			mustSync(t, f)
			baseline := queryResults(t, f.Framework())
			beforeFW := f.Framework()
			beforeStatus := f.Status()

			// Change the leader snapshot so the next sync has sections to
			// pull, then arm the fault.
			if _, err := leaderFW.BuildGraph(core.Clause{Permutations: 80}); err != nil {
				t.Fatal(err)
			}
			if err := leaderFW.Save(lf.path); err != nil {
				t.Fatal(err)
			}
			proxy.arm(fault.mode)

			for attempt := 1; attempt <= 2; attempt++ {
				applied, err := f.Sync(context.Background())
				if err == nil || applied {
					t.Fatalf("attempt %d: faulty sync reported success (applied=%v)", attempt, applied)
				}
				if f.Framework() != beforeFW {
					t.Fatal("torn epoch: framework swapped despite failed sync")
				}
				st := f.Status()
				if st.Epoch != beforeStatus.Epoch {
					t.Fatalf("epoch moved to %d during failed sync", st.Epoch)
				}
				if st.ConsecutiveFailures != attempt {
					t.Fatalf("consecutive failures = %d after attempt %d", st.ConsecutiveFailures, attempt)
				}
				if st.LastError == "" {
					t.Fatal("status does not surface the sync error")
				}
				if got := queryResults(t, f.Framework()); !reflect.DeepEqual(got, baseline) {
					t.Fatal("query answers changed under a failed sync")
				}
			}
			if proxy.hits.Load() == 0 {
				t.Fatal("fault was never exercised")
			}

			// Fault clears: the very next sync applies exactly one epoch.
			proxy.arm(faultNone)
			mustSync(t, f)
			st := f.Status()
			if st.Epoch != beforeStatus.Epoch+1 {
				t.Fatalf("recovery applied epoch %d, want %d", st.Epoch, beforeStatus.Epoch+1)
			}
			if st.ConsecutiveFailures != 0 {
				t.Fatalf("failure streak not reset: %d", st.ConsecutiveFailures)
			}
			if _, ok := f.Framework().RelGraph(); !ok {
				t.Fatal("recovered epoch is missing the shipped graph")
			}
		})
	}
}

// TestFollowerManifestFaults: manifest-level failures (500s, garbage
// bodies) also leave the serving epoch untouched.
func TestFollowerManifestFaults(t *testing.T) {
	var mode atomic.Int32
	leaderFW := leaderFramework(t, 0)
	lf := newLeaderFixture(t, leaderFW, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/snapshot/manifest" {
				switch mode.Load() {
				case 1:
					http.Error(w, "injected", http.StatusInternalServerError)
					return
				case 2:
					w.Header().Set("Etag", `"dp-1111222233334444"`)
					w.Write([]byte("this is not gob"))
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	f := newTestFollower(t, lf)
	mustSync(t, f)
	before := f.Framework()

	for m := int32(1); m <= 2; m++ {
		mode.Store(m)
		applied, err := f.Sync(context.Background())
		if err == nil || applied {
			t.Fatalf("mode %d: manifest fault not detected (applied=%v err=%v)", m, applied, err)
		}
		if f.Framework() != before {
			t.Fatalf("mode %d: epoch swapped on manifest fault", m)
		}
	}
	mode.Store(0)
	applied, err := f.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("unchanged snapshot applied after recovery")
	}
	if st := f.Status(); st.ConsecutiveFailures != 0 {
		t.Fatalf("failure streak survives recovery: %d", st.ConsecutiveFailures)
	}
}

// TestFollowerRunRetriesWithBackoff drives the Run loop against a leader
// that fails every section fetch for a while, then recovers: the loop
// must keep retrying (spaced out, not hot) and converge once healthy.
func TestFollowerRunRetriesWithBackoff(t *testing.T) {
	leaderFW := leaderFramework(t, 0)
	proxy := &faultProxy{}
	lf := newLeaderFixture(t, leaderFW, func(h http.Handler) http.Handler {
		proxy.inner = h
		return proxy
	})
	proxy.arm(faultServerErr)
	f := newTestFollower(t, lf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { f.Run(ctx); close(done) }()

	// Let it fail a few times, verifying the streak grows.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := f.Status(); st.ConsecutiveFailures >= 2 {
			if st.Epoch != 0 {
				t.Fatal("epoch advanced while every section fetch failed")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stopped retrying: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	failedAttempts := proxy.hits.Load()
	proxy.arm(faultNone)
	readyCtx, rcancel := context.WithTimeout(ctx, 30*time.Second)
	defer rcancel()
	if err := f.WaitReady(readyCtx); err != nil {
		t.Fatalf("follower never recovered (after %d failed fetches): %v", failedAttempts, err)
	}
	if st := f.Status(); st.Epoch != 1 || st.ConsecutiveFailures != 0 {
		t.Fatalf("recovered status: %+v", st)
	}
	cancel()
	<-done
}
