package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// noiseDataset builds a baseline-noise data set over the test corpus
// window (so ingesting it never extends the time range).
func noiseDataset(name string, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{
		Name: name, SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"level"},
	}
	for i := 0; i < testCorpusHours; i++ {
		d.Tuples = append(d.Tuples, dataset.Tuple{
			Region: 0,
			TS:     testCorpusStart.Add(time.Duration(i) * time.Hour).Unix(),
			Values: []float64{25 + rng.NormFloat64()},
		})
	}
	return d
}

func csvBody(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postIngest posts one CSV data set and returns the accepted job ID.
func postIngest(t *testing.T, client *http.Client, base string, body []byte) string {
	t.Helper()
	resp, err := client.Post(base+"/v1/datasets", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Job jobWire `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Job.ID == "" || out.Job.Kind != "ingest" {
		t.Fatalf("accepted job = %+v", out.Job)
	}
	return out.Job.ID
}

// waitJob polls /v1/jobs/{id} until the job is terminal.
func waitJob(t *testing.T, client *http.Client, base, id string) jobWire {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j jobWire
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == "done" || j.Status == "failed" {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 2m", id, j.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerIngestEquivalence is the serving-layer acceptance criterion:
// POST /v1/datasets on a live server yields query and graph results
// byte-identical to a from-scratch build that included the data set.
func TestServerIngestEquivalence(t *testing.T) {
	queryBody := queryRequest{Clause: clauseRequest{Permutations: 100}}
	graphBody := []byte(`{"clause":{"permutations":100}}`)

	// Reference: a server over the corpus built from scratch with noise
	// included.
	scratch := httptest.NewServer(newServer(testFrameworkWith(t, noiseDataset("noise", 77))))
	defer scratch.Close()
	if resp, err := scratch.Client().Post(scratch.URL+"/v1/graph/build", "application/json", bytes.NewReader(graphBody)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Live server: two data sets, graph built, then noise ingested at
	// runtime (with a snapshot configured, so the job re-saves it).
	live := newServer(testFramework(t))
	live.snapshotPath = filepath.Join(t.TempDir(), "live.snap")
	srv := httptest.NewServer(live)
	defer srv.Close()
	client := srv.Client()
	if resp, err := client.Post(srv.URL+"/v1/graph/build", "application/json", bytes.NewReader(graphBody)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	id := postIngest(t, client, srv.URL, csvBody(t, noiseDataset("noise", 77)))
	job := waitJob(t, client, srv.URL, id)
	if job.Status != "done" {
		t.Fatalf("ingest job failed: %s", job.Error)
	}
	if job.Result["snapshot"] != live.snapshotPath {
		t.Errorf("job result = %v, want snapshot re-save recorded", job.Result)
	}
	if job.Result["graphPairsComputed"] != float64(2) {
		t.Errorf("graph refresh computed %v pairs, want 2 (incremental)", job.Result["graphPairsComputed"])
	}

	// The data set listing includes the ingested set with indexed functions.
	resp, err := client.Get(srv.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		Datasets []struct {
			Name      string `json:"name"`
			Functions int    `json:"functions"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ds.Datasets) != 3 || ds.Datasets[2].Name != "noise" || ds.Datasets[2].Functions == 0 {
		t.Fatalf("datasets after ingest = %+v", ds)
	}

	// Query parity: identical relationships, wire-field for wire-field.
	want, code := postQuery(t, scratch.Client(), scratch.URL, queryBody)
	if code != http.StatusOK {
		t.Fatalf("scratch query status %d", code)
	}
	got, code := postQuery(t, client, srv.URL, queryBody)
	if code != http.StatusOK {
		t.Fatalf("live query status %d", code)
	}
	if len(got.Relationships) == 0 {
		t.Fatal("live server found no relationships")
	}
	if fmt.Sprintf("%+v", got.Relationships) != fmt.Sprintf("%+v", want.Relationships) {
		t.Fatalf("relationships differ:\n scratch %+v\n ingest  %+v", want.Relationships, got.Relationships)
	}

	// Graph parity over the wire.
	edges := func(base string, c *http.Client) string {
		resp, err := c.Get(base + "/v1/graph/top?k=1000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if got, want := edges(srv.URL, client), edges(scratch.URL, scratch.Client()); got != want {
		t.Fatalf("graph edges differ:\n scratch %s\n ingest  %s", want, got)
	}

	// The re-saved snapshot warm-starts a fresh framework with all three
	// data sets.
	reopened, err := core.Open(live.snapshotPath, core.OpenOptions{
		Options:  core.Options{City: mustCity(t), Workers: 4, Seed: 5},
		Datasets: append(testCorpus(t), noiseDataset("noise", 77)),
	})
	if err != nil {
		t.Fatalf("re-saved snapshot unusable: %v", err)
	}
	if !reopened.Indexed() {
		t.Error("reopened framework not indexed")
	}
	if _, ok := reopened.RelGraph(); !ok {
		t.Error("reopened framework lost the graph")
	}

	// A server that never saw a graph build of its own — the graph came
	// with the snapshot — still refreshes it under the clause it was built
	// with: an ingestion computes only the new data set's three pairs. (A
	// refresh under any other clause would discard the candidate cache and
	// recompute all six.)
	warm := httptest.NewServer(newServer(reopened))
	defer warm.Close()
	id = postIngest(t, warm.Client(), warm.URL, csvBody(t, noiseDataset("noise2", 78)))
	if job := waitJob(t, warm.Client(), warm.URL, id); job.Status != "done" || job.Result["graphPairsComputed"] != float64(3) {
		t.Errorf("ingest after a warm start: status %s (%s), computed %v pairs, want 3",
			job.Status, job.Error, job.Result["graphPairsComputed"])
	}
}

func mustCity(t *testing.T) *spatial.CityMap {
	t.Helper()
	city, err := spatial.Generate(spatial.Config{Seed: 3, GridW: 24, GridH: 24, Neighborhoods: 8, ZipCodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestServerIngestRejectsBadBodies(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	// Malformed CSV.
	resp, err := client.Post(srv.URL+"/v1/datasets", "text/csv", strings.NewReader("definitely,not\na,dataset"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed CSV: status %d, want 400", resp.StatusCode)
	}

	// Duplicate data set name fails as a job, not a request.
	id := postIngest(t, client, srv.URL, csvBody(t, func() *dataset.Dataset {
		d := noiseDataset("wind", 1)
		return d
	}()))
	job := waitJob(t, client, srv.URL, id)
	if job.Status != "failed" || !strings.Contains(job.Error, "duplicate") {
		t.Errorf("duplicate ingest job = %+v", job)
	}

	// Unknown job is a 404.
	resp, err = client.Get(srv.URL + "/v1/jobs/job-404404")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// The jobs listing shows the failed job, newest first.
	resp, err = client.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobWire `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Errorf("jobs listing = %+v", list.Jobs)
	}
}

// TestServerBodyLimits drives the MaxBytesReader satellite: every POST
// endpoint rejects an oversized body with 413 and a JSON error.
func TestServerBodyLimits(t *testing.T) {
	s := newServer(testFramework(t))
	s.maxJSONBody = 64
	s.maxIngestBody = 128
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	// Syntactically plausible payloads whose first token already spans the
	// limit, so the size cap — not a syntax or unknown-field error — is
	// what trips.
	oversizedJSON := []byte(`{"` + strings.Repeat("a", 4096) + `":1}`)
	oversizedCSV := bytes.Repeat([]byte("x"), 4096)
	for path, oversized := range map[string][]byte{
		"/v1/query":       oversizedJSON,
		"/v1/graph/build": oversizedJSON,
		"/v1/datasets":    oversizedCSV,
	} {
		resp, err := client.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(oversized))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: 413 body is not JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s: error %q does not mention the limit", path, e.Error)
		}
	}

	// Within-limit requests still work.
	if _, code := postQuery(t, client, srv.URL, queryRequest{Clause: clauseRequest{Permutations: 20}}); code != http.StatusOK {
		t.Errorf("small query after limit setup: status %d", code)
	}
}
