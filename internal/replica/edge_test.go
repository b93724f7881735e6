package replica

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/store"
)

func TestCorpusEqual(t *testing.T) {
	base := store.Fingerprint{Seed: 5, MinTS: 1, MaxTS: 2, Datasets: []string{"a", "b"}}
	if !corpusEqual(base, base) {
		t.Fatal("identical fingerprints unequal")
	}
	cases := []store.Fingerprint{
		{Seed: 6, MinTS: 1, MaxTS: 2, Datasets: []string{"a", "b"}},
		{Seed: 5, MinTS: 0, MaxTS: 2, Datasets: []string{"a", "b"}},
		{Seed: 5, MinTS: 1, MaxTS: 3, Datasets: []string{"a", "b"}},
		{Seed: 5, MinTS: 1, MaxTS: 2, Datasets: []string{"a"}},
		{Seed: 5, MinTS: 1, MaxTS: 2, Datasets: []string{"a", "c"}},
	}
	for i, c := range cases {
		if corpusEqual(base, c) {
			t.Errorf("case %d compared equal", i)
		}
	}
}

// TestClientDatasetMisbehavingLeader: a leader serving the wrong data set
// or a non-CSV body is rejected by the typed client.
func TestClientDatasetMisbehavingLeader(t *testing.T) {
	fw := leaderFramework(t, 0)
	lf := newLeaderFixture(t, fw, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasSuffix(r.URL.Path, "/swapped"):
				// Answer the request for "swapped" with the real "wind" CSV.
				r2 := r.Clone(r.Context())
				r2.URL.Path = "/v1/snapshot/datasets/wind"
				h.ServeHTTP(w, r2)
			case strings.HasSuffix(r.URL.Path, "/garbled"):
				w.Header().Set("Content-Type", "text/csv")
				w.Write([]byte("not,a,canonical\ncsv;;;header"))
			default:
				h.ServeHTTP(w, r)
			}
		})
	})
	c, err := NewClient(lf.srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dataset(context.Background(), "swapped"); err == nil {
		t.Fatal("name mismatch accepted")
	}
	if _, err := c.Dataset(context.Background(), "garbled"); err == nil {
		t.Fatal("garbage CSV accepted")
	}
}

// TestRouterUnknownRoutes: non-GET unknown paths 404 with the uniform
// error body instead of forwarding anywhere.
func TestRouterUnknownRoutes(t *testing.T) {
	stub := newStubReplica(t, "r0")
	rt := newTestRouter(t, "", stub)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/anything", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown route: status %d, want 404", w.Code)
	}
}

// TestRouterWriteLeaderUnreachable: a configured-but-dead leader turns
// writes into 502, not hangs or panics.
func TestRouterWriteLeaderUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	stub := newStubReplica(t, "r0")
	rt := newTestRouter(t, dead.URL, stub)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader("x")))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("dead leader write: status %d, want 502", w.Code)
	}
	// Graph builds are writes too, and hit the same wall.
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graph/build", strings.NewReader(`{}`)))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("dead leader graph build: status %d, want 502", w.Code)
	}
}
