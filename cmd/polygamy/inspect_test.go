package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/store"
)

// TestPolygamyCLIInspect drives the inspect subcommand against a real
// snapshot: the JSON report must describe the container exactly, and the
// text report must be readable without loading any corpus.
func TestPolygamyCLIInspect(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir)
	snap := filepath.Join(t.TempDir(), "corpus.snap")
	o := baseOptions(dir)
	o.graph, o.savePath = true, snap
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runInspect([]string{"-json", snap}, &out); err != nil {
		t.Fatal(err)
	}
	var rep inspectSnapshot
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("inspect -json output is not JSON: %v\n%s", err, out.String())
	}
	if rep.ContainerVersion != store.FormatVersion {
		t.Errorf("container version = %d, want %d", rep.ContainerVersion, store.FormatVersion)
	}
	if rep.Seed != 1 {
		t.Errorf("seed = %d, want 1", rep.Seed)
	}
	if len(rep.Datasets) != 2 {
		t.Errorf("datasets = %v, want 2 entries", rep.Datasets)
	}
	if rep.ClauseSig == "" {
		t.Error("graph snapshot lost its clause signature")
	}
	names := map[string]inspectSection{}
	for _, s := range rep.Sections {
		names[s.Name] = s
	}
	for _, want := range []string{"index", "graph"} {
		s, ok := names[want]
		if !ok {
			t.Errorf("section %q missing from report", want)
			continue
		}
		if s.Length <= 0 || len(s.CRC32C) != 8 {
			t.Errorf("section %q = %+v", want, s)
		}
	}

	var text bytes.Buffer
	if err := runInspect([]string{snap}, &text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{fmt.Sprintf("container version: %d", store.FormatVersion), "index", "graph", "crc32c"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, text.String())
		}
	}
}

func TestPolygamyCLIInspectErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runInspect([]string{}, &out); err == nil {
		t.Error("inspect with no arguments succeeded")
	}
	if err := runInspect([]string{filepath.Join(t.TempDir(), "absent.snap")}, &out); err == nil {
		t.Error("inspect of a missing file succeeded")
	}
	junk := filepath.Join(t.TempDir(), "junk.snap")
	if err := os.WriteFile(junk, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runInspect([]string{junk}, &out); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("inspect of a foreign file: err = %v", err)
	}
}
