package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(ten); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 = %g, want 9 (nearest rank)", got)
	}
	if got := percentile(ten, 100); got != 10 {
		t.Errorf("p100 = %g, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	city, err := fixedCity()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(seed int64) []byte {
		var all bytes.Buffer
		open, err := openCorpus(seed, city, quickSizes.wideN, quickSizes.wideMonths)
		if err != nil {
			t.Fatal(err)
		}
		urban, err := urbanCorpus(seed, city, quickSizes.demoMonths, quickSizes.demoScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range append(open, urban...) {
			blob, err := encodeCSV(d)
			if err != nil {
				t.Fatal(err)
			}
			all.Write(blob)
		}
		return all.Bytes()
	}
	if !bytes.Equal(encode(3), encode(3)) {
		t.Error("same seed produced different corpora")
	}
	if bytes.Equal(encode(3), encode(4)) {
		t.Error("different seeds produced the same corpora")
	}

	names := []string{"a", "b", "c", "d", "e"}
	p1 := signaturePool(names)
	schedule := func(seed int64) []int { return zipfSchedule(len(p1), 500, rand.New(rand.NewSource(seed))) }
	if !reflect.DeepEqual(p1, signaturePool(names)) {
		t.Error("the signature pool is not a constant")
	}
	if !reflect.DeepEqual(schedule(3), schedule(3)) {
		t.Error("same seed produced a different schedule")
	}
	if reflect.DeepEqual(schedule(3), schedule(4)) {
		t.Error("different seeds produced the same schedule")
	}
	if len(p1) != 30 { // 10 pairs x {both, salient, extreme}
		t.Errorf("pool has %d signatures, want 30", len(p1))
	}
	seen := map[string]bool{}
	for _, q := range p1 {
		blob, _ := json.Marshal(q)
		if seen[string(blob)] {
			t.Errorf("duplicate signature %s", blob)
		}
		seen[string(blob)] = true
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", StartNS: 90, EndNS: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "c", StartNS: 25, EndNS: 35},
		{ID: 6, Parent: 0, Name: "other", StartNS: 0, EndNS: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	by, total := selfByName(spans, 1)
	if by["a"] != 50 || by["b"] != 20 || by["c"] != 10 || by["root"] != 50 || by["other"] != 0 || total != 130 {
		t.Errorf("selfByName = %v total %d", by, total)
	}

	// Sequential children inside their parent: self times add up to the root.
	tr := newTracer()
	root := tr.open(0, "root", "")
	for i := 0; i < 3; i++ {
		tr.timed(root, "leaf", func() { time.Sleep(time.Millisecond) })
	}
	tr.finish(root, nil)
	all := tr.snapshot()
	_, total = selfByName(all, root)
	if d := time.Duration(all[0].EndNS - all[0].StartNS); total != d {
		t.Errorf("self times sum to %v, root lasted %v", total, d)
	}
	var none *tracer // the untraced pass
	none.finish(none.open(0, "x", ""), nil)
	if none.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setRE  = regexp.MustCompile(`\.set\("([^"]+)"`)
)

func sources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(blob)
	}
	return out
}

// Every metric a workload can set is declared in BENCHMARK.json and every
// declared metric is set somewhere; likewise the workloads.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if declared[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		declared[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not of the allowed form", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q has unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q has better=%q", d.Name, d.Better)
		}
	}
	emitted := map[string]bool{}
	for _, src := range sources(t) {
		for _, m := range setRE.FindAllStringSubmatch(src, -1) {
			emitted[m[1]] = true
		}
	}
	for name := range emitted {
		if !declared[name] {
			t.Errorf("metric %q is set by the program but not declared in BENCHMARK.json", name)
		}
	}
	for name := range declared {
		if !emitted[name] {
			t.Errorf("metric %q is declared in BENCHMARK.json but never set", name)
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// The benchmark is frozen under BENCHMARK.json's paths, so it must not use
// anything on ROADMAP's deletion list: "delete the twins" has to be able to
// land without touching these files.
func TestNoDoomedAPI(t *testing.T) {
	doomed := []string{
		"Kernel", "DisablePruning", "SaveIndex", "LoadIndex", "SaveGraph", "LoadGraph",
		"mapreduce", `mode="gob"`, "polygamy_mc_kernel", "/v1/stats",
	}
	for file, src := range sources(t) {
		for _, word := range doomed {
			if strings.Contains(src, word) {
				t.Errorf("%s references %q, which ROADMAP plans to delete", file, word)
			}
		}
	}
}

// binaries builds the servers once for the smoke tests.
func binaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := buildServers("..", dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// ours lists live processes started from dir.
func ours(dir string) []string {
	var out []string
	entries, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, e := range entries {
		blob, err := os.ReadFile(e)
		if err == nil && bytes.HasPrefix(blob, []byte(dir)) {
			out = append(out, filepath.Base(filepath.Dir(e))+" "+strings.ReplaceAll(string(blob), "\x00", " "))
		}
	}
	return out
}

// fakeRoot is a checkout root holding only BENCHMARK.json, so a run's temp
// files and span files land under the test's own directory.
func fakeRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func assertClean(t *testing.T, bin, root string) {
	t.Helper()
	if left := ours(bin); len(left) > 0 {
		t.Errorf("server processes survived the run:\n%s", strings.Join(left, "\n"))
		for _, l := range left {
			if pid, ok := leadingPID(l); ok {
				syscall.Kill(pid, syscall.SIGKILL)
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "*"))
	if len(left) > 0 {
		t.Errorf("temp directories survived the run: %v", left)
	}
}

// Every workload, untraced and traced, on tiny corpora with the fleet on
// ephemeral ports: the result line carries exactly the declared metrics,
// answers check out, span files are written and add up, nothing is left
// behind.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real server processes")
	}
	bin, root := binaries(t), fakeRoot(t)
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []int{0, 1} {
			var out bytes.Buffer
			o := options{workload: w.Name, seed: 5, seconds: 1, trace: trace, runs: 1, quick: true, bin: bin}
			code, err := runOnce(o, root, spec, &out)
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%d: exit %d: %v\n%s", w.Name, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == 1 {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %q missing or unit %q != %q", w.Name, trace, d.Name, v.Unit, d.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q = %g, must be positive", w.Name, d.Name, v.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if ratio := res.Metrics["trace.self_sum_ratio"].Value; math.Abs(ratio-1) > 0.05 {
					t.Errorf("%s: self times sum to %.3f of their parent spans", w.Name, ratio)
				}
				if w.Name == "ingest-deep" && res.Metrics["montecarlo.permutations"].Value != 0 {
					t.Errorf("ingest-deep ran %g permutations", res.Metrics["montecarlo.permutations"].Value)
				}
				if w.Name != "ingest-deep" && res.Metrics["montecarlo.permutations"].Value == 0 {
					t.Errorf("%s ran no permutation", w.Name)
				}
			}
			assertClean(t, bin, root)
		}
	}
}

// A run that fails — here because its leader is killed under it — still
// stops every process it started and removes its temp directory.
func TestTeardownAfterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real server processes")
	}
	bin, root := binaries(t), fakeRoot(t)
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var out bytes.Buffer
		o := options{workload: "append-follow", seed: 5, seconds: 1, runs: 1, quick: true, bin: bin}
		code, err := runOnce(o, root, spec, &out)
		if code == 0 && err == nil {
			t.Errorf("the run survived losing its leader:\n%s", out.String())
		}
	}()
	// Once a router is up its fleet is complete; take the leader away.
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-done:
			assertClean(t, bin, root)
			return
		case <-deadline:
			t.Fatal("the run neither finished nor failed")
		case <-time.After(10 * time.Millisecond):
		}
		procs := ours(bin)
		routed := false
		for _, p := range procs {
			routed = routed || strings.Contains(p, "polygamyr")
		}
		for _, p := range procs {
			if pid, ok := leadingPID(p); ok && routed && strings.Contains(p, " -data ") {
				syscall.Kill(pid, syscall.SIGKILL)
			}
		}
	}
}

// leadingPID parses the PID an ours() line starts with.
func leadingPID(line string) (int, bool) {
	field, _, _ := strings.Cut(line, " ")
	pid, err := strconv.Atoi(field)
	return pid, err == nil
}

// The one-command entry point fails fast, without a result line, where the
// repository's source is missing.
func TestRunScriptNeedsTheRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bare := t.TempDir()
	if err := os.Mkdir(filepath.Join(bare, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod", "main.go"} {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bare, "bench", f), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "ingest-deep", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = bare
	out, err := cmd.Output()
	if err == nil {
		t.Errorf("run.sh succeeded without the repository:\n%s", out)
	}
	if bytes.Contains(out, []byte(`"metrics"`)) {
		t.Errorf("run.sh printed a result without the repository:\n%s", out)
	}
}
