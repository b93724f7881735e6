package replica

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/store"
)

// testClient bounds every request a test makes to a leader fixture.
var testClient = &http.Client{Timeout: time.Minute}

func TestNewClientValidation(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/relative/path", "host:port"} {
		if _, err := NewClient(bad, testClient); err == nil {
			t.Errorf("NewClient(%q) accepted", bad)
		}
	}
	if _, err := NewClient("http://leader:8571", nil); err == nil {
		t.Error("NewClient accepted a nil HTTP client")
	}
	c, err := NewClient("http://leader:8571/", testClient)
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://leader:8571" {
		t.Fatalf("base = %q, trailing slash kept", c.base)
	}
}

// TestLeaderEndpoints exercises the leader handler directly against a
// real snapshot: 304s, 412s, missing sections.
func TestLeaderEndpoints(t *testing.T) {
	fw := leaderFramework(t, 0)
	lf := newLeaderFixture(t, fw, nil)
	c, err := NewClient(lf.srv.URL, testClient)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	info, notMod, err := c.Manifest(ctx, "", 0)
	if err != nil || notMod {
		t.Fatalf("first manifest: notMod=%v err=%v", notMod, err)
	}
	if info.ETag == "" || len(info.Manifest.Sections) == 0 {
		t.Fatalf("thin manifest: %+v", info)
	}
	if _, notMod, err := c.Manifest(ctx, info.ETag, 0); err != nil || !notMod {
		t.Fatalf("conditional poll: notMod=%v err=%v", notMod, err)
	}
	// A stale etag gets a full manifest again.
	if _, notMod, err := c.Manifest(ctx, `"dp-feedfacecafebeef"`, 0); err != nil || notMod {
		t.Fatalf("stale etag poll: notMod=%v err=%v", notMod, err)
	}

	// Sections: pinned fetch succeeds, wrong pin 412s, unknown name 404s.
	sec := info.Manifest.Sections[0]
	if _, err := c.Section(ctx, info.ETag, sec); err != nil {
		t.Fatalf("pinned section fetch: %v", err)
	}
	if _, err := c.Section(ctx, `"dp-0000000000000000"`, sec); err == nil {
		t.Fatal("stale If-Match did not 412")
	}
	if _, err := c.Section(ctx, info.ETag, store.SectionInfo{Name: "no-such-section"}); err == nil {
		t.Fatal("unknown section did not 404")
	}
	// A manifest entry lying about length or CRC fails the client check.
	lying := sec
	lying.Length++
	if _, err := c.Section(ctx, info.ETag, lying); err == nil {
		t.Fatal("length mismatch accepted")
	}
	lying = sec
	lying.CRC ^= 0xFFFF
	if _, err := c.Section(ctx, info.ETag, lying); err == nil {
		t.Fatal("checksum mismatch accepted")
	}
}

// TestLeaderWithoutSnapshot: endpoints answer 503 (not panic) when the
// container does not exist yet.
func TestLeaderWithoutSnapshot(t *testing.T) {
	l := NewLeader(NewSource("/nonexistent/leader.snap"))

	for _, path := range []string{"/v1/snapshot/manifest", "/v1/snapshot/sections/index"} {
		w := httptest.NewRecorder()
		l.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, w.Code)
		}
	}
}

// TestSourceReparsesOnRotation: the stat cache invalidates when a new
// snapshot lands at the same path.
func TestSourceReparsesOnRotation(t *testing.T) {
	fw := leaderFramework(t, 0)
	lf := newLeaderFixture(t, fw, nil)
	src := NewSource(lf.path)
	_, etag1, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, etag, err := src.Manifest(); err != nil || etag != etag1 {
			t.Fatalf("stable snapshot: etag %q err %v", etag, err)
		}
	}
	if src.Parses() != 1 {
		t.Fatalf("parses = %d before rotation", src.Parses())
	}
	if _, err := fw.BuildGraph(core.Clause{Permutations: 80}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Save(lf.path); err != nil {
		t.Fatal(err)
	}
	_, etag2, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if etag2 == etag1 {
		t.Fatal("rotation did not change the etag")
	}
	if src.Parses() != 2 {
		t.Fatalf("parses = %d after rotation, want 2", src.Parses())
	}
}

// TestClientSectionSizedRead: Section reads exactly the manifest's length,
// with or without a Content-Length, and rejects one byte short or long
// before the checksum.
func TestClientSectionSizedRead(t *testing.T) {
	payload := []byte("section payload of a known length")
	want := store.SectionInfo{Name: "index", Length: int64(len(payload)), CRC: store.Checksum(payload)}
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool // no Content-Length: the body's end is the only bound
		ok      bool
	}{
		{"exact", payload, false, true},
		{"exact chunked", payload, true, true},
		{"one byte long", append(append([]byte{}, payload...), 'x'), false, false},
		{"one byte long chunked", append(append([]byte{}, payload...), 'x'), true, false},
		{"one byte short", payload[:len(payload)-1], false, false},
		{"one byte short chunked", payload[:len(payload)-1], true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !tc.chunked {
					w.Header().Set("Content-Length", strconv.Itoa(len(tc.body)))
				}
				w.WriteHeader(http.StatusOK)
				w.(http.Flusher).Flush() // headers out before the body: no length is derived
				w.Write(tc.body)
			}))
			defer srv.Close()
			c, err := NewClient(srv.URL, testClient)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Section(context.Background(), "", want)
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && !bytes.Equal(got, payload) {
				t.Fatalf("got %q", got)
			}
			if !tc.ok && strings.Contains(err.Error(), "checksum") {
				t.Fatalf("a wrong length reached the checksum: %v", err)
			}
		})
	}
	if _, err := (&Client{base: "http://unused", hc: http.DefaultClient}).Section(context.Background(), "",
		store.SectionInfo{Name: "index", Length: maxSectionBytes + 1}); err == nil {
		t.Fatal("a manifest length past maxSectionBytes was accepted")
	}
}
