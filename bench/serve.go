package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
)

// setupFleet is the set-up of a fleet workload, run twice on a measured
// run: generate the corpus, write the CSVs, boot the fleet to all-healthy.
// Every fleet but the last is torn down again; the last is the one
// measured. setup_s is the median (server binaries are compiled once per
// checkout, before the first run, and are not part of it).
func setupFleet(e *env, opt fleetOptions, corpus func() ([]*dataset.Dataset, error)) (*fleet, int64, float64, error) {
	var setups []float64
	var f *fleet
	var csvBytes int64
	for i := 0; i < e.sz.setupsFleet; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		ds, err := corpus()
		if err != nil {
			return nil, 0, 0, err
		}
		dir := filepath.Join(e.tmp, fmt.Sprintf("corpus-%d", i))
		if csvBytes, err = writeCorpus(dir, ds); err != nil {
			return nil, 0, 0, err
		}
		if f, err = e.startFleet(dir, opt); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return f, csvBytes, median(setups), nil
}

// sigState is what the load generator remembers per query signature.
type sigState struct {
	mu    sync.Mutex
	first []byte // relationship bytes of the first answer
}

// served is one classified query of the measured window.
type served struct {
	latency  time.Duration
	engine   time.Duration
	hit      bool
	coalesce bool
	bytes    int
}

func runServeMixed(e *env, r *result) error {
	city, err := fixedCity()
	if err != nil {
		return err
	}
	var names []string
	f, csvBytes, setupS, err := setupFleet(e, fleetOptions{followers: 2, poll: time.Second}, func() ([]*dataset.Dataset, error) {
		ds, err := urbanCorpus(e.seed, city, e.sz.demoMonths, e.sz.demoScale)
		names = names[:0]
		for _, d := range ds {
			names = append(names, d.Name)
		}
		return ds, err
	})
	if err != nil {
		return err
	}
	defer f.stop()

	rng := rand.New(rand.NewSource(e.seed))
	pool := signaturePool(names)
	schedule := zipfSchedule(len(pool), 50000, rng)
	states := make([]sigState, len(pool))

	before, err := scrapeFleet(e, f)
	if err != nil {
		return err
	}
	_, cpuBy0, err := f.cpu()
	if err != nil {
		return err
	}

	// Measure, in two phases over one window. A client sends its next query
	// only when the previous one is answered — these callers are analysts
	// and dashboards, so the loop is closed.
	//
	// First touch: one client asks every signature of the pool once, in
	// popularity order. Each is a miss on its home follower and runs alone,
	// so its latency is that of the pairwise query and not of whatever
	// happened to overlap it.
	//
	// Repeats: nproc clients walk the Zipf schedule until the deadline.
	// Every answer is a cache hit and must equal the first answer.
	window := e.tr.open(0, "window", "")
	var mu sync.Mutex
	var all []served
	drive := func(clients int, label string, next func() (sig int, ok bool)) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []served
				for n := 0; ; n++ {
					sig, more := next()
					if !more {
						break
					}
					q := pool[sig]
					q.Trace = e.tr != nil
					res, rep, err := e.query(f.router.url, q)
					ok := err == nil
					if ok {
						st := &states[sig]
						st.mu.Lock()
						if st.first == nil {
							st.first = rep.relationships
						} else {
							ok = bytes.Equal(st.first, rep.relationships)
						}
						st.mu.Unlock()
					}
					mu.Lock()
					r.check(ok, "%s query of signature %d: %v", label, sig, err)
					mu.Unlock()
					if !ok {
						continue
					}
					mine = append(mine, served{res.latency, rep.engineTime(), rep.Stats.CacheHit, rep.Stats.Coalesced, len(res.body)})
					if e.tr != nil {
						traceRequest(e.tr, window, fmt.Sprintf("%s%d.%d", label, c, n), res, rep)
					}
				}
				mu.Lock()
				all = append(all, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	start := time.Now()
	touch := 0
	drive(1, "touch", func() (int, bool) { touch++; return touch - 1, touch <= len(pool) })
	cpuTouched, _, err := f.cpu()
	if err != nil {
		return err
	}
	touched := time.Now()
	// The repeats get the rest of the run's seconds, and never less than a
	// third of them however long the first touches took.
	deadline := start.Add(e.seconds)
	if least := touched.Add(e.seconds / 3); least.After(deadline) {
		deadline = least
	}
	var next atomic.Int64
	drive(e.nproc, "repeat", func() (int, bool) {
		return schedule[int(next.Add(1)-1)%len(schedule)], time.Now().Before(deadline)
	})
	wall := time.Since(start)
	e.tr.finish(window, map[string]float64{"requests": float64(len(all))})
	cpuRepeated, cpuBy1, err := f.cpu()
	if err != nil {
		return err
	}
	after, err := scrapeFleet(e, f)
	if err != nil {
		return err
	}
	if err := f.crashed(); err != nil {
		return err
	}

	var hits, misses, overhead, sizes []float64
	coalesced := 0
	for _, s := range all {
		switch {
		case s.coalesce:
			// Answered by waiting for another client's evaluation: flagged
			// a cache hit, but with a miss's latency. Counted apart.
			coalesced++
		case s.hit:
			hits = append(hits, ms(s.latency))
			overhead = append(overhead, ms(s.latency-s.engine))
			sizes = append(sizes, float64(s.bytes))
		default:
			misses = append(misses, ms(s.latency))
		}
	}
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("window served %d hits and %d misses; both are needed", len(hits), len(misses))
	}

	// Output checks beyond hit == first miss: what the router relays must
	// be what the leader itself answers, for a seeded sample of signatures.
	digest := sha256.New()
	for i := range states {
		digest.Write(states[i].first)
	}
	r.check(len(misses) == len(pool), "%d misses for %d first touches", len(misses), len(pool))
	for _, sig := range rng.Perm(len(pool))[:min(4, len(pool))] {
		_, viaRouter, err1 := e.query(f.router.url, pool[sig])
		_, direct, err2 := e.query(f.leader.url, pool[sig])
		r.check(err1 == nil && err2 == nil && bytes.Equal(viaRouter.relationships, direct.relationships),
			"signature %d: via router differs from the leader's answer (%v, %v)", sig, err1, err2)
	}

	rss, rssBy, err := f.peakRSS()
	if err != nil {
		return err
	}
	st, err := os.Stat(f.snapshot)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("cold_ms", interquartileMean(misses))
	r.set("warm_ms", median(hits))
	r.set("snapshot_bytes_per_csv_byte", float64(st.Size())/float64(csvBytes))
	r.set("peak_rss_mb", rss)
	r.set("cpu_ms_per_op", ms(cpuRepeated-cpuTouched)/float64(len(hits)))
	r.note("requests=%d hits=%d misses=%d coalesced=%d first touches took %.2fs of %.2fs",
		len(all), len(hits), len(misses), coalesced, touched.Sub(start).Seconds(), wall.Seconds())
	r.note("tail percentile admitted by the rule: hits p%g (n=%d), misses p%g (n=%d)",
		tailPercentile(len(hits)), len(hits), tailPercentile(len(misses)), len(misses))
	r.note("digest=%x", digest.Sum(nil)[:8])

	if e.tr == nil {
		return nil
	}
	r.set("trace.cold_ms", interquartileMean(misses))
	r.set("trace.warm_ms", median(hits))
	r.set("query_miss_p50_ms", median(misses))
	r.set("query_miss_p90_ms", percentile(misses, 90))
	r.set("query_hit_p50_ms", median(hits))
	r.set("query_hit_p90_ms", percentile(hits, 90))
	r.set("query_qps", float64(len(all))/wall.Seconds())
	r.set("failed_share", float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("http.overhead_ms", median(overhead))
	r.set("http.response_bytes", median(sizes))
	r.set("http.hit_p99_ms", percentile(hits, 99))
	r.set("query.engine_hit_us", 1000*median(engineTimes(all, true)))
	r.set("dataset.csv_bytes", float64(csvBytes))
	r.set("store.snapshot_bytes", float64(st.Size()))
	fleetLayers(r, f, before, after, cpuBy0, cpuBy1, rssBy)
	requestLayers(e, r, window)
	routerHop(e, r, f, pool, states)

	// The layer split this workload exists to show: hits add nothing to
	// the permutation counter, misses do.
	permBefore, err := scrapeFleet(e, f)
	if err != nil {
		return err
	}
	for i := 0; i < 50; i++ {
		_, rep, err := e.query(f.router.url, pool[schedule[0]])
		r.check(err == nil && rep.Stats.CacheHit, "repeat of the most popular signature missed the cache")
	}
	permAfter, err := scrapeFleet(e, f)
	if err != nil {
		return err
	}
	hitPerms := sumDelta(permBefore, permAfter, "polygamy_montecarlo_permutations_total")
	r.check(hitPerms == 0, "50 cache hits ran %v permutations", hitPerms)
	r.check(r.values["montecarlo.permutations"] > 0, "the window's misses ran no permutation")
	r.note("layer split: window permutations=%.0f, 50 extra hits permutations=%.0f", r.values["montecarlo.permutations"], hitPerms)
	return nil
}

func engineTimes(all []served, hit bool) []float64 {
	var out []float64
	for _, s := range all {
		if s.hit == hit {
			out = append(out, ms(s.engine))
		}
	}
	return out
}

// traceRequest records one client span per request. A miss's children are
// the evaluation stages the response reports, laid end to end; a hit did
// no stage work (its reported stages are the original evaluation's), so
// its only child is the engine's own lookup time. What is left over as the
// request's self time is router hop + HTTP + encoding.
func traceRequest(tr *tracer, parent int, id string, res httpResult, rep queryReply) {
	name := "request.miss"
	if rep.Stats.CacheHit {
		name = "request.hit"
	}
	end := res.start.Add(res.latency)
	span := tr.add(parent, name, id, res.start, end, map[string]float64{"bytes": float64(len(res.body))})
	if rep.Stats.CacheHit {
		tr.add(span, "engine.lookup", id, res.start, res.start.Add(rep.engineTime()), nil)
		return
	}
	at := res.start
	for _, st := range rep.Trace {
		d := time.Duration(st.Seconds * float64(time.Second))
		tr.add(span, "query."+st.Stage, id, at, at.Add(d), nil)
		at = at.Add(d)
	}
}

// requestLayers reads the stage split off the request spans: seconds per
// stage over the window's misses, and — self time plus child spans over
// request time — how much of each request the spans account for.
func requestLayers(e *env, r *result, window int) {
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	requests := map[int]bool{}
	for _, s := range spans {
		if s.Parent == window {
			requests[s.ID] = true
		}
	}
	stage := map[string]time.Duration{}
	var total, accounted time.Duration
	for _, s := range spans {
		d := time.Duration(s.EndNS - s.StartNS)
		if requests[s.Parent] {
			stage[s.Name] += d
			accounted += d
		}
		if requests[s.ID] {
			total += d
			accounted += self[s.ID]
		}
	}
	r.set("planner.plan_s", stage["query.plan"].Seconds())
	r.set("query.evaluate_s", stage["query.evaluate"].Seconds())
	r.set("stats.correct_s", stage["query.correct"].Seconds())
	r.set("query.select_s", stage["query.select"].Seconds())
	if total > 0 {
		r.set("trace.self_sum_ratio", accounted.Seconds()/total.Seconds())
	}
	r.set("trace.spans", float64(len(spans)))
}

// routerHop measures what the router adds to a hit: for a few cached
// signatures, find the follower that owns it (the router's per-replica
// request counter says which one served), then time the same query through
// the router and straight at that follower.
func routerHop(e *env, r *result, f *fleet, pool []querySpec, states []sigState) {
	var hops []float64
	probed := 0
	for sig := range pool {
		if states[sig].first == nil || probed == 5 {
			continue
		}
		probed++
		before, err := e.scrape(f.router.url)
		if err != nil {
			return
		}
		if _, _, err := e.query(f.router.url, pool[sig]); err != nil {
			return
		}
		after, err := e.scrape(f.router.url)
		if err != nil {
			return
		}
		owner := ""
		for _, p := range f.followers {
			if delta(before, after, "polygamy_router_requests_total", `replica="`+p.url+`"`, `outcome="ok"`) > 0 {
				owner = p.url
			}
		}
		if owner == "" {
			continue
		}
		var via, direct []float64
		for i := 0; i < 10; i++ {
			a, _, err1 := e.query(f.router.url, pool[sig])
			b, rep, err2 := e.query(owner, pool[sig])
			if err1 != nil || err2 != nil || !rep.Stats.CacheHit {
				r.check(false, "router hop probe of signature %d: %v %v hit=%t", sig, err1, err2, rep.Stats.CacheHit)
				return
			}
			via = append(via, ms(a.latency))
			direct = append(direct, ms(b.latency))
		}
		hops = append(hops, median(via)-median(direct))
	}
	r.set("router.hop_ms", median(hops))
}

// scrapeFleet scrapes /metrics of every process, keyed by process name.
func scrapeFleet(e *env, f *fleet) (map[string]promSeries, error) {
	out := map[string]promSeries{}
	for _, p := range f.procs {
		s, err := e.scrape(p.url)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		out[p.name] = s
	}
	return out, nil
}

// sumDelta is the after-before change of one family summed over the
// engine processes (leader and followers; the router runs no engine).
func sumDelta(before, after map[string]promSeries, name string, frags ...string) float64 {
	t := 0.0
	for proc := range after {
		if proc == "router" {
			continue
		}
		t += delta(before[proc], after[proc], name, frags...)
	}
	return t
}

// fleetLayers fills the per-layer metrics both fleet workloads share from
// counter deltas over the window and from /proc.
func fleetLayers(r *result, f *fleet, before, after map[string]promSeries,
	cpu0, cpu1 map[string]time.Duration, rss map[string]float64) {
	considered := sumDelta(before, after, "polygamy_planner_pairs_considered_total")
	pruned := sumDelta(before, after, "polygamy_planner_pairs_pruned_total")
	r.set("planner.pairs_considered", considered)
	r.set("planner.pairs_pruned", pruned)
	if considered > 0 {
		r.set("planner.prune_ratio", (considered-pruned)/considered)
	}
	evaluated := sumDelta(before, after, "polygamy_pairs_evaluated_total")
	r.set("relationship.pairs_evaluated", evaluated)
	perms := sumDelta(before, after, "polygamy_montecarlo_permutations_total")
	stops := sumDelta(before, after, "polygamy_montecarlo_early_stops_total")
	r.set("montecarlo.permutations", perms)
	r.set("montecarlo.early_stops", stops)
	if evaluated > 0 {
		r.set("montecarlo.early_stop_ratio", stops/evaluated)
	}
	queries := sumDelta(before, after, "polygamy_queries_total")
	hits := sumDelta(before, after, "polygamy_query_cache_hits_total")
	r.set("query.cache_hits", hits)
	r.set("query.coalesced", sumDelta(before, after, "polygamy_query_coalesced_total"))
	if queries > 0 {
		r.set("query.hit_ratio", hits/queries)
	}
	r.set("graph.pairs_computed", sumDelta(before, after, "polygamy_graph_pairs_computed_total"))
	r.set("graph.pairs_reused", sumDelta(before, after, "polygamy_graph_pairs_reused_total"))
	r.set("graph.edges", after["leader"].total("polygamy_graph_edges"))
	r.set("http.errors_4xx", sumDelta(before, after, "polygamy_http_client_errors_total"))
	r.set("http.errors_5xx", sumDelta(before, after, "polygamy_http_server_errors_total"))
	r.set("router.retries", delta(before["router"], after["router"], "polygamy_router_retries_total"))
	r.set("router.exhausted", delta(before["router"], after["router"], "polygamy_router_exhausted_total"))
	r.set("replica.syncs", sumDelta(before, after, "polygamy_replica_syncs_total", `outcome="applied"`))
	r.set("replica.sections_fetched", sumDelta(before, after, "polygamy_replica_sections_fetched_total"))
	r.set("replica.sections_reused", sumDelta(before, after, "polygamy_replica_sections_reused_total"))
	r.set("replica.bytes_fetched", sumDelta(before, after, "polygamy_replica_section_bytes_fetched_total"))

	var engine time.Duration
	var followerRSS []float64
	for name, after := range cpu1 {
		d := after - cpu0[name]
		switch name {
		case "router":
			r.set("proc.router_cpu_s", d.Seconds())
			continue
		case "leader":
		default:
			followerRSS = append(followerRSS, rss[name])
		}
		engine += d
	}
	r.set("proc.engine_cpu_s", engine.Seconds())
	r.set("proc.leader_rss_mb", rss["leader"])
	r.set("proc.follower_rss_mb", median(followerRSS))
}
