package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/experiments"
)

// TestList: -list prints one line per experiment, in report order, and
// nothing else.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	all := experiments.All()
	if len(all) != 10 {
		t.Errorf("experiments.All() has %d entries, want 10", len(all))
	}
	var want []string
	for _, r := range all {
		want = append(want, r.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list names = %v, want %v", got, want)
	}
}

// TestUnknownExperiment: a name not in the suite is a usage error, reported
// before any corpus is generated.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr lacks %q: %s", "unknown experiment", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout should be empty, got %q", stdout.String())
	}
}
