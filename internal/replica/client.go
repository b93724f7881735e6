package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/urbandata/datapolygamy/internal/store"
)

// maxSectionBytes bounds a single section download (and the manifest
// body): a lying or corrupted leader cannot make a follower buffer an
// absurd allocation. Snapshots store derived state only, so real
// sections are orders of magnitude smaller.
const maxSectionBytes = 1 << 30

// Client is the follower side of the snapshot-shipping protocol: typed,
// integrity-checked access to a leader's /v1/snapshot/ endpoints.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient talks to the leader at base (e.g. "http://leader:8571")
// through hc, which must carry a Timeout above the longest Manifest wait:
// a leader that stalls mid-section then fails the sync instead of wedging
// it. NewFollower builds one sized for its Poll.
func NewClient(base string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("replica: leader URL %q: %w", base, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replica: leader URL %q must be absolute", base)
	}
	if hc == nil {
		return nil, fmt.Errorf("replica: leader %q needs an HTTP client", base)
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}, nil
}

// transferMargin is how long a request to the leader may take beyond the
// time the leader holds it on purpose: a section of up to maxSectionBytes
// must arrive within it. It matches the router's default backend timeout.
const transferMargin = 5 * time.Minute

// errorBody extracts the JSON error payload from a non-2xx response.
func errorBody(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("replica: leader answered %s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// Manifest fetches the leader's current snapshot manifest. With a
// non-empty etag from a previous call, the request is conditional:
// notModified reports the 304 case, where the leader transferred no
// manifest (and the follower will transfer no section bytes). A positive
// wait asks the leader to hold a conditional request for up to that long,
// answering as soon as it publishes a new snapshot; the HTTP client's
// timeout must exceed it.
func (c *Client) Manifest(ctx context.Context, etag string, wait time.Duration) (info ManifestInfo, notModified bool, err error) {
	u := c.base + "/v1/snapshot/manifest"
	if etag != "" && wait > 0 {
		u += "?wait=" + url.QueryEscape(wait.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return info, false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return info, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return info, true, nil
	case http.StatusOK:
	default:
		return info, false, errorBody(resp)
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxSectionBytes))
	if err := dec.Decode(&info); err != nil {
		return info, false, fmt.Errorf("replica: decoding manifest: %w", err)
	}
	if info.ETag == "" || len(info.Manifest.Sections) == 0 {
		return info, false, fmt.Errorf("replica: leader served an empty manifest")
	}
	return info, false, nil
}

// Section downloads one section's payload, pinned with If-Match to the
// manifest the caller is applying, and verifies the bytes against that
// manifest entry's length and CRC. The body is read once, into one buffer
// of the manifest's length: a Content-Length that disagrees with it, or a
// body one byte short or long, fails before the checksum. A snapshot that
// rotated on the leader mid-sync surfaces as an error here (412 or
// checksum mismatch), never as silently mixed epochs.
func (c *Client) Section(ctx context.Context, etag string, want store.SectionInfo) ([]byte, error) {
	if want.Length < 0 || want.Length > maxSectionBytes {
		return nil, fmt.Errorf("replica: section %q: manifest length %d out of range", want.Name, want.Length)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/snapshot/sections/"+url.PathEscape(want.Name), nil)
	if err != nil {
		return nil, err
	}
	if etag != "" {
		req.Header.Set("If-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorBody(resp)
	}
	if resp.ContentLength >= 0 && resp.ContentLength != want.Length {
		return nil, fmt.Errorf("replica: section %q: leader sends %d bytes, manifest says %d",
			want.Name, resp.ContentLength, want.Length)
	}
	data := make([]byte, want.Length)
	if n, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, fmt.Errorf("replica: downloading section %q: got %d of %d bytes: %w",
			want.Name, n, want.Length, err)
	}
	var extra [1]byte
	switch n, err := io.ReadFull(resp.Body, extra[:]); {
	case n > 0:
		return nil, fmt.Errorf("replica: section %q: body runs past the manifest's %d bytes", want.Name, want.Length)
	case err != io.EOF:
		return nil, fmt.Errorf("replica: downloading section %q: %w", want.Name, err)
	}
	if crc := store.Checksum(data); crc != want.CRC {
		return nil, fmt.Errorf("replica: section %q: checksum %08x does not match manifest %08x",
			want.Name, crc, want.CRC)
	}
	return data, nil
}
