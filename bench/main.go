// Command polygamy-bench is the repository's benchmark: it drives the
// system from outside — the real polygamyd/polygamyr binaries over HTTP,
// and the engine through the public functions of each layer package — on
// four workloads, checks the answers, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root declares the metrics and
// workloads; bench/README.md explains them.
//
//	bash bench/run.sh --workload serve-mixed --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh                      # all workloads, untraced and traced
//	bash bench/run.sh -runs 5              # medians and quartiles over 5 runs
//	bash bench/run.sh -selfcheck           # two sets of runs compared to the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchSpec mirrors BENCHMARK.json, the single declaration of workload and
// metric names, units and bounds; the program reads it instead of keeping a
// second list.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// env is what every workload runs in.
type env struct {
	root    string // checkout root (holds BENCHMARK.json)
	bin     string // directory of polygamyd and polygamyr
	tmp     string // this run's scratch directory, removed on exit
	nproc   int    // closed-loop clients, and -workers of every server
	seed    int64
	seconds time.Duration
	sz      sizes
	tr      *tracer // nil on the untraced pass
	hc      *http.Client
}

// timeForAnother is the rule for starting one more whole pass or round:
// less than 60 % of the run's seconds have gone by since start.
func (e *env) timeForAnother(start time.Time) bool {
	return time.Since(start) < e.seconds*6/10
}

// result accumulates one run's measurements and output checks.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// check counts one verified operation; a false ok is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env, *result) error{
	"ingest-deep":   runIngestDeep,
	"graph-wide":    runGraphWide,
	"serve-mixed":   runServeMixed,
	"append-follow": runAppendFollow,
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	runs      int
	selfcheck bool
	quick     bool
	bin       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after the other)")
	flag.Int64Var(&o.seed, "seed", 7, "workload seed: corpora and request schedules derive from it")
	flag.IntVar(&o.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced pass: record spans, report the per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "repeat each run this many times and report median and quartiles")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the full set twice and compare every end-to-end metric to its bound")
	flag.BoolVar(&o.quick, "quick", false, "tiny corpora: a smoke test of the harness, not a measurement")
	flag.StringVar(&o.bin, "bin", "", "directory holding polygamyd and polygamyr (default: build them)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "polygamy-bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polygamy-bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options, out io.Writer) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return 1, err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.workload != "" && workloads[o.workload] == nil {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.workload != "" && o.runs <= 1 && !o.selfcheck {
		return runOnce(o, root, spec, out)
	}
	return orchestrate(o, spec, out)
}

// findRoot walks up from the working directory to the checkout root, so
// the program works from the root (run.sh) and from bench/ (go run).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// runOnce is one benchmark run: set up, measure, check, print the report
// and — as the last line of standard output — the result object.
func runOnce(o options, root string, spec benchSpec, out io.Writer) (code int, err error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)

	e := &env{
		root: root, bin: o.bin, tmp: tmp, nproc: runtime.NumCPU(), seed: o.seed,
		seconds: time.Duration(o.seconds) * time.Second, sz: fullSizes,
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()},
		},
	}
	if o.quick {
		e.sz = quickSizes
	}
	if o.trace != 0 {
		e.tr = newTracer()
	}
	if e.bin == "" && (o.workload == "serve-mixed" || o.workload == "append-follow") {
		e.bin = filepath.Join(root, ".bench_build", "bin")
		if err := buildServers(root, e.bin); err != nil {
			return 1, err
		}
	}

	r := &result{values: map[string]float64{}}
	if err := workloads[o.workload](e, r); err != nil {
		return 1, fmt.Errorf("%s: %w", o.workload, err)
	}
	if e.tr != nil {
		path := filepath.Join(root, "bench", "out", "trace-"+o.workload+".json")
		if err := e.tr.write(path); err != nil {
			return 1, err
		}
		r.note("spans: %d written to %s", len(e.tr.snapshot()), path)
	}

	declared := spec.EndToEnd
	if o.trace != 0 {
		declared = spec.PerLayer
	}
	metrics, err := selectMetrics(r.values, declared, spec, o.trace != 0)
	if err != nil {
		return 1, err
	}
	printReport(out, o, r, declared, metrics)
	line, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if r.failed > 0 {
		return 1, fmt.Errorf("%s: %d of %d output checks failed", o.workload, r.failed, r.attempted)
	}
	return 0, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the declared metrics out of what the run measured.
// A measured name that BENCHMARK.json does not declare is a harness bug, as
// is a missing end-to-end metric; a per-layer metric the workload has no
// work for reads 0 (Monte Carlo permutations on ingest-deep, say).
func selectMetrics(values map[string]float64, declared []metricDef, spec benchSpec, traced bool) (map[string]metricValue, error) {
	known := map[string]bool{}
	for _, d := range spec.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range spec.PerLayer {
		known[d.Name] = true
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
	}
	out := make(map[string]metricValue, len(declared))
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func printReport(out io.Writer, o options, r *result, declared []metricDef, m map[string]metricValue) {
	pass := "untraced pass: end-to-end metrics"
	if o.trace != 0 {
		pass = "traced pass: per-layer metrics"
	}
	fmt.Fprintf(out, "== %s  seed=%d  seconds=%d  %s ==\n", o.workload, o.seed, o.seconds, pass)
	fmt.Fprintln(out, machineContext())
	for _, d := range declared {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (bound %.0f%%, %s is better)", d.Bound*100, d.Better)
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s%s\n", d.Name, m[d.Name].Value, d.Unit, bound)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "  #", n)
	}
	fmt.Fprintf(out, "  checks: %d attempted, %d failed\n", r.attempted, r.failed)
}

// machineContext is the line that makes two reports comparable: same box,
// same toolchain, same commit, same load shape.
func machineContext() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("  nproc=%d GOMAXPROCS=%d clients=%d %s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel(), commit)
}

// ---- repeated runs ----

// childRun re-executes this binary for one run and parses the result
// object off the last line of its output. Each run gets a fresh process so
// peak memory and caches never carry over, exactly as under the driver.
func childRun(o options, workload string, seed int64, trace int) (map[string]metricValue, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace)}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.bin != "" {
		args = append(args, "-bin", o.bin)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	var res struct {
		Correct bool                   `json:"correct"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: output checks failed", workload, seed)
	}
	return res.Metrics, nil
}

// runSet runs workload `runs` times at the given trace setting, each time
// with the next seed, and returns every metric's values in run order.
func runSet(o options, workload string, trace int, firstSeed int64) (map[string][]float64, error) {
	vals := map[string][]float64{}
	for i := 0; i < o.runs; i++ {
		m, err := childRun(o, workload, firstSeed+int64(i), trace)
		if err != nil {
			return nil, err
		}
		for name, v := range m {
			vals[name] = append(vals[name], v.Value)
		}
	}
	return vals, nil
}

// orchestrate covers every mode but the single run: all workloads, -runs k
// and -selfcheck. It prints medians and quartiles per metric, the tracing
// overhead, and under -selfcheck the difference between two full sets next
// to each bound.
func orchestrate(o options, spec benchSpec, out io.Writer) (int, error) {
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	if o.runs < 1 {
		o.runs = 1
	}
	fmt.Fprintln(out, machineContext())
	fmt.Fprintf(out, "  runs=%d seconds=%d first seed=%d (run i uses seed+i)\n", o.runs, o.seconds, o.seed)
	exceeded := 0
	for _, w := range names {
		first, err := runSet(o, w, 0, o.seed)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "== %s: end-to-end ==\n", w)
		printSet(out, spec.EndToEnd, first)
		if o.selfcheck {
			second, err := runSet(o, w, 0, o.seed)
			if err != nil {
				return 1, err
			}
			fmt.Fprintf(out, "== %s: selfcheck, second set vs first ==\n", w)
			for _, d := range spec.EndToEnd {
				a, b := median(first[d.Name]), median(second[d.Name])
				worse := (b - a) / a
				if d.Better == "higher" {
					worse = (a - b) / a
				}
				verdict := "ok"
				if worse > d.Bound {
					verdict = "EXCEEDS BOUND"
					exceeded++
				}
				fmt.Fprintf(out, "  %-34s first %12.6g second %12.6g worse by %+6.2f%% bound %4.0f%% spread %5.2f%%  %s\n",
					d.Name, a, b, worse*100, d.Bound*100, spread(first[d.Name])*100, verdict)
			}
			continue
		}
		traced, err := runSet(o, w, 1, o.seed)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "== %s: per-layer (traced pass) ==\n", w)
		printSet(out, spec.PerLayer, traced)
		fmt.Fprintf(out, "== %s: tracing overhead (traced pass vs untraced median) ==\n", w)
		for _, pair := range [][2]string{{"cold_ms", "trace.cold_ms"}, {"warm_ms", "trace.warm_ms"}} {
			u, t := median(first[pair[0]]), median(traced[pair[1]])
			fmt.Fprintf(out, "  %-34s untraced %12.6g traced %12.6g overhead %+6.2f%%\n", pair[0], u, t, (t-u)/u*100)
		}
	}
	if exceeded > 0 {
		return 1, fmt.Errorf("selfcheck: %d metric(s) differ between two sets of the same commit by more than their bound", exceeded)
	}
	return 0, nil
}

func printSet(out io.Writer, defs []metricDef, vals map[string][]float64) {
	for _, d := range defs {
		vs := vals[d.Name]
		q1, q3 := quartiles(vs)
		fmt.Fprintf(out, "  %-34s median %14.6g %-6s q1 %12.6g q3 %12.6g spread %5.2f%% n=%d\n",
			d.Name, median(vs), d.Unit, q1, q3, spread(vs)*100, len(vs))
	}
}
