package replica

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

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
