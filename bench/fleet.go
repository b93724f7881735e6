package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process of the fleet under test.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	url     string        // base URL once the listener is up
	exited  chan struct{} // closed when Wait returns
	waitErr error
}

// fleet is a leader, its followers and the router in front of them, all
// real binaries on loopback with ephemeral ports.
type fleet struct {
	dir       string // holds logs and snapshots; removed by stop
	leader    *proc
	followers []*proc
	router    *proc
	snapshot  string // the leader's snapshot container
	procs     []*proc
}

var servingLine = regexp.MustCompile(`msg="polygamy[dr]: (?:serving|routing)".* addr=(\S+)`)

// buildServers compiles polygamyd and polygamyr from the checkout into
// dir. run.sh does this once per checkout and passes -bin; this is the
// path for running the benchmark binary directly.
func buildServers(root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/polygamyd", "./cmd/polygamyr")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build servers: %v\n%s", err, out)
	}
	return nil
}

func startProc(dir, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, logPath: filepath.Join(dir, name+".log"), exited: make(chan struct{})}
	logf, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	// The servers must not outlive the benchmark, whatever kills it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = p.cmd.Start()
	logf.Close()
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// ready waits for the process to log its listen address and answer
// /healthz with 200. It gives up as soon as any process of the fleet has
// exited: a follower waits minutes for a leader that is gone.
func (p *proc) ready(ctx context.Context, f *fleet, hc *http.Client) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w\n%s", p.name, ctx.Err(), p.logTail())
		case <-tick.C:
		}
		if err := f.crashed(); err != nil {
			return err
		}
		if p.url == "" {
			blob, err := os.ReadFile(p.logPath)
			if err != nil {
				continue
			}
			m := servingLine.FindSubmatch(blob)
			if m == nil {
				continue
			}
			p.url = "http://" + string(m[1])
		}
		resp, err := hc.Get(p.url + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

func (p *proc) logTail() string {
	blob, _ := os.ReadFile(p.logPath)
	if len(blob) > 2000 {
		blob = blob[len(blob)-2000:]
	}
	return fmt.Sprintf("--- %s log tail ---\n%s", p.name, blob)
}

// stop asks the process to drain (SIGTERM), kills it if it does not exit
// in time, and returns only once it has been waited for.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// fleetOptions selects the fleet shape of a workload.
type fleetOptions struct {
	followers int
	graph     bool          // leader materializes the relationship graph at start
	poll      time.Duration // follower manifest poll cadence
}

// startFleet boots leader, followers and router and returns once every
// process is healthy. On error everything already started is stopped.
func (e *env) startFleet(dataDir string, opt fleetOptions) (_ *fleet, err error) {
	dir, err := os.MkdirTemp(e.tmp, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, snapshot: filepath.Join(dir, "leader.snap")}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	workers := strconv.Itoa(e.nproc)
	grid := strconv.Itoa(cityGrid)
	polygamyd := filepath.Join(e.bin, "polygamyd")

	args := []string{"-addr", "127.0.0.1:0", "-data", dataDir, "-seed", strconv.Itoa(citySeed), "-grid", grid,
		"-workers", workers, "-snapshot", f.snapshot}
	if opt.graph {
		args = append(args, "-graph")
	}
	if f.leader, err = f.start("leader", polygamyd, args...); err != nil {
		return nil, err
	}
	if err = f.leader.ready(ctx, f, e.hc); err != nil {
		return nil, err
	}
	for i := 0; i < opt.followers; i++ {
		name := fmt.Sprintf("follower%d", i+1)
		p, err := f.start(name, polygamyd, "-addr", "127.0.0.1:0", "-replica", f.leader.url, "-grid", grid,
			"-workers", workers, "-poll", opt.poll.String(), "-snapshot", filepath.Join(dir, name+".snap"))
		if err != nil {
			return nil, err
		}
		f.followers = append(f.followers, p)
	}
	var urls []string
	for _, p := range f.followers {
		if err = p.ready(ctx, f, e.hc); err != nil {
			return nil, err
		}
		urls = append(urls, p.url)
	}
	if f.router, err = f.start("router", filepath.Join(e.bin, "polygamyr"), "-addr", "127.0.0.1:0",
		"-leader", f.leader.url, "-replicas", strings.Join(urls, ",")); err != nil {
		return nil, err
	}
	if err = f.router.ready(ctx, f, e.hc); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(name, bin string, args ...string) (*proc, error) {
	p, err := startProc(f.dir, name, bin, args...)
	if err != nil {
		return nil, err
	}
	f.procs = append(f.procs, p)
	return p, nil
}

// stop tears the fleet down front to back, waits for every process, and
// removes the fleet's directory. It is safe on a partly started fleet.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop(5 * time.Second)
	}
	os.RemoveAll(f.dir)
}

// crashed reports a server that exited while the fleet should be up.
func (f *fleet) crashed() error {
	for _, p := range f.procs {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited: %v\n%s", p.name, p.waitErr, p.logTail())
		default:
		}
	}
	return nil
}

// ---- HTTP helpers ----

// httpResult is one completed exchange.
type httpResult struct {
	status  int
	body    []byte
	latency time.Duration
	start   time.Time
}

func (e *env) post(url, contentType string, body []byte) (httpResult, error) {
	start := time.Now()
	resp, err := e.hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return httpResult{start: start}, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return httpResult{status: resp.StatusCode, body: blob, latency: time.Since(start), start: start}, err
}

func (e *env) getJSON(url string, v any) error {
	resp, err := e.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queryReply is what the benchmark reads out of a /v1/query response. The
// relationships are kept as raw bytes: answers are compared, not decoded.
type queryReply struct {
	relationships []byte
	Stats         struct {
		CacheHit  bool   `json:"cacheHit"`
		Coalesced bool   `json:"coalesced"`
		Duration  string `json:"duration"`
		Kept      int    `json:"kept"`
	} `json:"stats"`
	Trace []struct {
		Stage   string  `json:"stage"`
		Seconds float64 `json:"seconds"`
	} `json:"trace"`
}

var statsKey = []byte(`,"stats":{`)

// parseReply splits a query response at its stats member instead of
// decoding the (large) relationship array: the load generator shares two
// cores with the fleet and must stay cheap.
func parseReply(body []byte) (queryReply, error) {
	var r queryReply
	i := bytes.LastIndex(body, statsKey)
	if i < 0 {
		return r, errors.New("response has no stats member")
	}
	r.relationships = body[:i]
	tail := append([]byte{'{'}, body[i+1:]...)
	if err := json.Unmarshal(tail, &r); err != nil {
		return r, fmt.Errorf("decoding stats: %w", err)
	}
	return r, nil
}

func (r queryReply) engineTime() time.Duration {
	d, _ := time.ParseDuration(r.Stats.Duration)
	return d
}

// query posts one structured query and parses the reply.
func (e *env) query(base string, q querySpec) (httpResult, queryReply, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return httpResult{}, queryReply{}, err
	}
	res, err := e.post(base+"/v1/query", "application/json", body)
	if err != nil {
		return res, queryReply{}, err
	}
	if res.status != http.StatusOK {
		return res, queryReply{}, fmt.Errorf("query status %d: %s", res.status, firstLine(res.body))
	}
	rep, err := parseReply(res.body)
	return res, rep, err
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// scrape reads a process's /metrics into a series -> value map.
func (e *env) scrape(base string) (promSeries, error) {
	resp, err := e.hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(blob), nil
}

// promSeries maps a Prometheus series (name plus label set, as exposed) to
// its value.
type promSeries map[string]float64

func parseProm(text []byte) promSeries {
	out := promSeries{}
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[string(line[:i])] = v
	}
	return out
}

// total sums every series of a family whose label set contains all of the
// given fragments (e.g. `outcome="ok"`).
func (s promSeries) total(name string, labelFragments ...string) float64 {
	t := 0.0
series:
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, frag := range labelFragments {
			if !strings.Contains(k, frag) {
				continue series
			}
		}
		t += v
	}
	return t
}

// delta is after-before for one family.
func delta(before, after promSeries, name string, labelFragments ...string) float64 {
	return after.total(name, labelFragments...) - before.total(name, labelFragments...)
}
