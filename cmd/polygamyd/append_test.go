package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// windSlice builds an append slice for the corpus "wind" data set covering
// hours [from, from+n) past the corpus start.
func windSlice(seed int64, from, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{
		Name: "wind", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"speed"},
	}
	for i := from; i < from+n; i++ {
		v := 10 + rng.NormFloat64()*0.4
		if i%53 == 0 {
			v = 55 + rng.Float64()*10
		}
		d.Tuples = append(d.Tuples, dataset.Tuple{
			Region: 0,
			TS:     testCorpusStart.Add(time.Duration(i) * time.Hour).Unix(),
			Values: []float64{v},
		})
	}
	return d
}

// postAppend posts one CSV slice to /v1/datasets/{name}/append and returns
// the accepted job ID.
func postAppend(t *testing.T, client *http.Client, base, name string, body []byte) string {
	t.Helper()
	resp, err := client.Post(base+"/v1/datasets/"+name+"/append", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append status = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Job jobWire `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Job.ID == "" || out.Job.Kind != "append" {
		t.Fatalf("accepted job = %+v", out.Job)
	}
	return out.Job.ID
}

// serverStats reads /v1/stats.
func serverStats(t *testing.T, client *http.Client, base string) map[string]any {
	t.Helper()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerAppendEquivalence is the serving-layer acceptance criterion of
// the append path: POST /v1/datasets/{name}/append on a live server extends
// the corpus time range WITHOUT the server ever dropping its graph (the
// rebuild counter stays put), and query and graph results are
// byte-identical to a from-scratch build over the merged corpus.
func TestServerAppendEquivalence(t *testing.T) {
	queryBody := queryRequest{Clause: clauseRequest{Permutations: 100}}
	graphBody := []byte(`{"clause":{"permutations":100}}`)
	slice := windSlice(301, testCorpusHours, 72) // extends the corpus by 3 days

	// Reference: a server over the merged corpus built from scratch (same
	// tuple order the append produces: old tuples, then the slice).
	merged := testCorpus(t)
	merged[0].Tuples = append(merged[0].Tuples, slice.Tuples...)
	scratchFW, err := core.New(core.Options{City: mustCity(t), Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range merged {
		if err := scratchFW.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := scratchFW.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	scratch := httptest.NewServer(newServer(scratchFW))
	defer scratch.Close()
	if resp, err := scratch.Client().Post(scratch.URL+"/v1/graph/build", "application/json", bytes.NewReader(graphBody)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Live server: graph built over the base corpus, then the slice
	// appended at runtime.
	live := newServer(testFramework(t))
	srv := httptest.NewServer(live)
	defer srv.Close()
	client := srv.Client()
	if resp, err := client.Post(srv.URL+"/v1/graph/build", "application/json", bytes.NewReader(graphBody)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rebuildsBefore := serverStats(t, client, srv.URL)["rebuilds"]
	const accepted = `polygamy_http_requests_total{route="POST /v1/datasets/{name}/append",code="202"}`
	acceptedBefore := metricSample(t, srv.URL, accepted)

	id := postAppend(t, client, srv.URL, "wind", csvBody(t, slice))
	job := waitJob(t, client, srv.URL, id)
	if job.Status != "done" {
		t.Fatalf("append job failed: %s", job.Error)
	}
	if job.Result["fellBack"] != false {
		t.Errorf("append fell back to a full rebuild: %v", job.Result)
	}
	if job.Result["extended"] != true {
		t.Errorf("append did not report a range extension: %v", job.Result)
	}

	// The graph survived the range extension: no derived-state discard
	// happened, and the refresh only re-tested affected pairs.
	st := serverStats(t, client, srv.URL)
	if st["rebuilds"] != rebuildsBefore {
		t.Errorf("rebuilds went %v -> %v: the server dropped its derived state", rebuildsBefore, st["rebuilds"])
	}
	if got := metricSample(t, srv.URL, accepted) - acceptedBefore; got != 1 {
		t.Errorf("accepted append jobs rose by %v, want 1", got)
	}
	if _, ok := job.Result["graphPairsComputed"]; !ok {
		t.Errorf("append job did not refresh the graph: %v", job.Result)
	}

	// Query parity with the from-scratch server, wire-field for wire-field.
	want, code := postQuery(t, scratch.Client(), scratch.URL, queryBody)
	if code != http.StatusOK {
		t.Fatalf("scratch query status %d", code)
	}
	got, code := postQuery(t, client, srv.URL, queryBody)
	if code != http.StatusOK {
		t.Fatalf("live query status %d", code)
	}
	if len(got.Relationships) == 0 {
		t.Fatal("live server found no relationships after append")
	}
	if fmt.Sprintf("%+v", got.Relationships) != fmt.Sprintf("%+v", want.Relationships) {
		t.Fatalf("relationships differ:\n scratch %+v\n append  %+v", want.Relationships, got.Relationships)
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
		t.Fatalf("graph edges differ:\n scratch %s\n append  %s", want, got)
	}

	// Windowed queries flow through the text surface: restricting to the
	// base window must parse and answer.
	resp, err := client.Get(srv.URL + "/v1/query?q=" +
		"find+relationships+between+wind+and+trips+between+2012-01-01+and+2012-06-30+where+permutations+%3d+100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("windowed text query status = %d, want 200", resp.StatusCode)
	}
}

func TestServerAppendRejectsBadTargets(t *testing.T) {
	srv := httptest.NewServer(newServer(testFramework(t)))
	defer srv.Close()
	client := srv.Client()

	// Unknown data set is a 404 at request time, not a failed job.
	resp, err := client.Post(srv.URL+"/v1/datasets/nope/append", "text/csv",
		bytes.NewReader(csvBody(t, windSlice(1, testCorpusHours, 4))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset append: status %d, want 404", resp.StatusCode)
	}

	// A slice whose schema disagrees with the target fails as a job.
	bad := windSlice(2, testCorpusHours, 4)
	bad.Attrs = []string{"gusts"}
	id := postAppend(t, client, srv.URL, "wind", csvBody(t, bad))
	job := waitJob(t, client, srv.URL, id)
	if job.Status != "failed" {
		t.Errorf("schema-mismatched append job = %+v", job)
	}
}
