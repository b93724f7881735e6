package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// writeCorpus creates two related CSV data sets in dir.
func writeCorpus(t *testing.T, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	start := time.Date(2012, time.March, 1, 0, 0, 0, 0, time.UTC).Unix()
	hours := 24 * 7 * 30
	events := map[int]bool{}
	for len(events) < 100 {
		events[rng.Intn(hours)] = true
	}
	mk := func(name string, up bool) *dataset.Dataset {
		d := &dataset.Dataset{
			Name: name, SpatialRes: spatial.City, TemporalRes: temporal.Hour,
			Attrs: []string{"v"},
		}
		for i := 0; i < hours; i++ {
			v := 100 + rng.NormFloat64()
			if events[i] {
				if up {
					v = 200
				} else {
					v = 10
				}
			}
			d.Tuples = append(d.Tuples, dataset.Tuple{Region: 0, TS: start + int64(i)*3600, Values: []float64{v}})
		}
		return d
	}
	for _, d := range []*dataset.Dataset{mk("alpha", true), mk("beta", false)} {
		f, err := os.Create(filepath.Join(dir, d.Name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := dataset.WriteCSV(f, d); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// baseOptions returns the CLI options shared by the end-to-end tests.
func baseOptions(dir string) cliOptions {
	return cliOptions{
		dataDir: dir, perms: 150, alpha: 0.05, seed: 1, grid: 24, workers: 4,
		stdout: io.Discard,
	}
}

func TestPolygamyCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	o := baseOptions(dir)
	o.sources, o.minScore, o.stats = "alpha", 0.2, true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestPolygamyCLITextualQuery(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	o := baseOptions(dir)
	o.queryStr = "find relationships between alpha and beta where score >= 0.2 and permutations = 100 at (hour, city)"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o.queryStr = "gibberish query"
	if err := run(o); err == nil {
		t.Error("expected parse error for gibberish query")
	}
}

func TestPolygamyCLIWindowedQuery(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	o := baseOptions(dir)
	// The corpus starts 2012-03-01 and runs 30 weeks; window the middle.
	o.queryStr = "find relationships between alpha and beta between 2012-04-01 and 2012-07-01 where score >= 0.2 and permutations = 100"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// A window past the corpus is an empty evaluation, not an error.
	o.queryStr = "find relationships between alpha and beta between 2031-01-01 and 2031-02-01"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestPolygamyCLIJSONOutput(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	var buf bytes.Buffer
	o := baseOptions(dir)
	o.jsonOut, o.minScore, o.stdout = true, 0.2, &buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Relationships []struct {
			Dataset1 string  `json:"dataset1"`
			Score    float64 `json:"score"`
			Class    string  `json:"class"`
		} `json:"relationships"`
		Stats struct {
			PairsConsidered int `json:"pairsConsidered"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Relationships) == 0 || doc.Stats.PairsConsidered == 0 {
		t.Errorf("JSON doc = %+v", doc)
	}
	if doc.Relationships[0].Class == "" {
		t.Error("relationship class not spelled out")
	}
}

// TestPolygamyCLICorrection runs the CLI with -correction bh / -max-q and
// checks the JSON output carries q-values obeying the cutoff, and that the
// corrected result set is a subset of the uncorrected one.
func TestPolygamyCLICorrection(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)

	decode := func(buf *bytes.Buffer) []httpapi.Relationship {
		t.Helper()
		var doc struct {
			Relationships []httpapi.Relationship `json:"relationships"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
		}
		return doc.Relationships
	}

	var rawBuf bytes.Buffer
	o := baseOptions(dir)
	o.jsonOut, o.minScore, o.stdout = true, 0.2, &rawBuf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	raw := decode(&rawBuf)
	if len(raw) == 0 {
		t.Fatal("uncorrected run found nothing; the corpus should relate")
	}

	var bhBuf bytes.Buffer
	o = baseOptions(dir)
	o.jsonOut, o.minScore, o.stdout = true, 0.2, &bhBuf
	o.correction, o.maxQ = "bh", 0.05
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	bh := decode(&bhBuf)
	if len(bh) > len(raw) {
		t.Errorf("bh kept %d relationships, uncorrected %d", len(bh), len(raw))
	}
	for _, r := range bh {
		if r.QValue < r.PValue {
			t.Errorf("q = %g < p = %g in CLI output", r.QValue, r.PValue)
		}
		if r.QValue > 0.05 {
			t.Errorf("q = %g survived -max-q 0.05", r.QValue)
		}
	}

	// A where-clause correction wins over the flag: the bh query under a
	// -correction by flag must match a plain bh run exactly.
	var qBuf bytes.Buffer
	o = baseOptions(dir)
	o.jsonOut, o.stdout = true, &qBuf
	o.correction = "by"
	o.queryStr = "find relationships between alpha and beta where score >= 0.2 and permutations = 150 and correction = bh"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var bhOnly bytes.Buffer
	o = baseOptions(dir)
	o.jsonOut, o.stdout = true, &bhOnly
	o.queryStr = "find relationships between alpha and beta where score >= 0.2 and permutations = 150 and correction = bh"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	flagged, plain := decode(&qBuf), decode(&bhOnly)
	if len(flagged) != len(plain) {
		t.Fatalf("where-clause correction did not win over the flag: %d vs %d relationships",
			len(flagged), len(plain))
	}
	for i := range plain {
		if flagged[i] != plain[i] {
			t.Errorf("relationship %d differs under a shadowed -correction flag: %+v vs %+v",
				i, flagged[i], plain[i])
		}
	}

	// Unknown corrections fail before the index build.
	o = baseOptions(dir)
	o.correction = "bonferroni"
	if err := run(o); err == nil {
		t.Error("expected error for -correction bonferroni")
	}
	o = baseOptions(dir)
	o.maxQ = -1
	if err := run(o); err == nil {
		t.Error("expected error for negative -max-q")
	}
}

func TestPolygamyCLIGraphMode(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)

	var dot bytes.Buffer
	o := baseOptions(dir)
	o.graph, o.minScore, o.stdout = true, 0.2, &dot
	o.graphFormat = "dot"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph polygamy {") || !strings.Contains(dot.String(), "--") {
		t.Errorf("DOT export looks wrong:\n%s", dot.String())
	}

	var jsonOut bytes.Buffer
	o.stdout, o.graphFormat = &jsonOut, "json"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Edges []struct {
			Dataset1 string `json:"dataset1"`
		} `json:"edges"`
		Datasets []string `json:"datasets"`
	}
	if err := json.Unmarshal(jsonOut.Bytes(), &doc); err != nil {
		t.Fatalf("graph export is not JSON: %v\n%s", err, jsonOut.String())
	}
	if len(doc.Edges) == 0 || len(doc.Datasets) != 2 {
		t.Errorf("graph JSON doc = %+v", doc)
	}

	// -json alone must select the JSON graph export, not DOT.
	var viaJSONFlag bytes.Buffer
	o.stdout, o.graphFormat, o.jsonOut = &viaJSONFlag, "", true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaJSONFlag.Bytes(), jsonOut.Bytes()) {
		t.Error("-graph -json output differs from -graph -graph-format json")
	}
	o.jsonOut = false

	o.graphFormat = "gif"
	if err := run(o); err == nil {
		t.Error("expected error for unknown graph format")
	}
	o.graphFormat, o.jsonOut = "dot", true
	if err := run(o); err == nil {
		t.Error("expected error for -json with -graph-format dot")
	}
	o.jsonOut = false

	// The graph is corpus-wide: restricting it must be rejected, not
	// silently ignored.
	o.graphFormat = "dot"
	o.sources = "alpha"
	if err := run(o); err == nil {
		t.Error("expected error for -graph with -sources")
	}
	o.sources = ""
	o.queryStr = "find relationships between alpha and beta"
	if err := run(o); err == nil {
		t.Error("expected error for -graph with a between-clause naming data sets")
	}
}

func TestPolygamyCLIErrors(t *testing.T) {
	if err := run(baseOptions(t.TempDir())); err == nil {
		t.Error("expected error for empty data directory")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte("not,a,dataset\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(baseOptions(dir)); err == nil {
		t.Error("expected error for malformed CSV")
	}
}

// TestPolygamyCLIChecksClauseFirst: the merged clause is checked before any
// CSV or snapshot is read, so a bad flag fails at once, even with a data
// directory that does not exist.
func TestPolygamyCLIChecksClauseFirst(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*cliOptions)
		want string
	}{
		{"alpha", func(o *cliOptions) { o.alpha = 1.5 }, "alpha must be in [0, 1)"},
		{"perms", func(o *cliOptions) { o.perms = -1 }, "permutations must be in"},
		{"min-score", func(o *cliOptions) { o.minScore = math.NaN() }, "score must be finite"},
		{"max-q", func(o *cliOptions) { o.maxQ = -1 }, "max_q must be >= 0"},
		{"textual query", func(o *cliOptions) { o.queryStr = "find relationships between a and b where alpha = 2" }, "alpha must be in [0, 1)"},
	} {
		o := baseOptions(filepath.Join(t.TempDir(), "missing"))
		tc.set(&o)
		if err := run(o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSplitNames(t *testing.T) {
	got := splitNames(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitNames = %v", got)
	}
}

// TestPolygamyCLISaveLoad drives the snapshot flags end to end: a -save
// run writes the container, a -load run without -data answers the same
// query from it alone with identical JSON output, and a corrupted snapshot
// is rejected.
func TestPolygamyCLISaveLoad(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	snap := filepath.Join(t.TempDir(), "corpus.snap")

	var cold bytes.Buffer
	o := baseOptions(dir)
	o.jsonOut, o.minScore, o.savePath, o.stdout = true, 0.2, snap, &cold
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("-save did not write the snapshot: %v", err)
	}

	var warm bytes.Buffer
	o2 := baseOptions("")
	o2.jsonOut, o2.minScore, o2.loadPath, o2.stdout = true, 0.2, snap, &warm
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	// Compare the relationship payloads; the stats carry wall-clock
	// durations that legitimately differ between runs.
	rels := func(raw []byte) json.RawMessage {
		t.Helper()
		var doc struct {
			Relationships json.RawMessage `json:"relationships"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Relationships
	}
	if string(rels(cold.Bytes())) != string(rels(warm.Bytes())) {
		t.Fatalf("-load results differ from the build that wrote the snapshot:\n cold %s\n warm %s",
			cold.String(), warm.String())
	}

	// A different seed means a different corpus fingerprint: rejected.
	o3 := baseOptions("")
	o3.seed, o3.loadPath = 2, snap
	if err := run(o3); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("-load with wrong seed: err = %v", err)
	}

	// A truncated snapshot is rejected with a store-level error.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	o4 := baseOptions("")
	o4.loadPath = snap
	if err := run(o4); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("-load of truncated snapshot: err = %v", err)
	}
}

// TestPolygamyCLIGraphSave asserts a -graph run's snapshot carries the
// materialized graph: the -load run, without -data, re-exports it without
// recomputing.
func TestPolygamyCLIGraphSave(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	snap := filepath.Join(t.TempDir(), "graph.snap")

	var cold bytes.Buffer
	o := baseOptions(dir)
	o.graph, o.jsonOut, o.savePath, o.stdout = true, true, snap, &cold
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	var warm bytes.Buffer
	o2 := baseOptions("")
	o2.graph, o2.jsonOut, o2.loadPath, o2.stdout = true, true, snap, &warm
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Fatal("graph export differs between the saving run and the loading run")
	}
}
