package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/topology"
)

// batchLayers fills the per-layer metrics of an in-process workload from
// the traced pass: the stats structs the public calls returned, registry
// counter deltas, and a single-goroutine replay that drives the same
// inputs through each layer package in turn so that self time per layer
// can be read off the spans.
func batchLayers(e *env, r *result, plan batchPlan, city *spatial.CityMap, p passOut, csvBytes int64, cold, warm float64) {
	r.set("trace.cold_ms", cold)
	r.set("trace.warm_ms", warm)
	r.set("index_build_s", (p.readCSV + p.index).Seconds())
	r.set("graph_build_s", p.graph.Seconds())
	r.set("snapshot_open_ms", warm)
	r.set("failed_share", float64(r.failed)/float64(max(r.attempted, 1)))

	r.set("dataset.read_csv_s", p.readCSV.Seconds())
	r.set("dataset.csv_bytes", float64(csvBytes))
	r.set("index.wall_s", p.istats.WallDuration.Seconds())
	r.set("index.compute_cpu_s", p.istats.ComputeDuration.Seconds())
	r.set("index.feature_cpu_s", p.istats.IndexDuration.Seconds())
	r.set("index.alloc_mb", p.indexAllocMB)
	r.set("graph.wall_s", p.gstats.WallDuration.Seconds())
	r.set("graph.pairs_computed", float64(p.gstats.PairsComputed))
	r.set("graph.pairs_reused", float64(p.gstats.PairsReused))
	r.set("graph.edges", float64(p.gstats.Edges))
	r.set("planner.pairs_considered", float64(p.gstats.PairsConsidered))
	r.set("planner.pairs_pruned", float64(p.gstats.Pruned))
	if p.gstats.PairsConsidered > 0 {
		r.set("planner.prune_ratio", float64(p.gstats.PairsConsidered-p.gstats.Pruned)/float64(p.gstats.PairsConsidered))
	}
	r.set("montecarlo.permutations", p.perms)
	r.set("montecarlo.early_stops", p.earlyStops)
	if p.gstats.Evaluated > 0 {
		r.set("montecarlo.early_stop_ratio", p.earlyStops/float64(p.gstats.Evaluated))
	}
	r.set("store.save_s", p.save.Seconds())
	r.set("store.open_ms", warm)
	r.set("store.open_allocs", p.openAllocs)
	r.set("store.snapshot_bytes", float64(p.snapBytes))
	r.set("proc.engine_cpu_s", p.cpu.Seconds())

	// One query for the plan / evaluate / correct / select stage split. On
	// the graph workload it tests one data set against all others under
	// Benjamini-Hochberg, so every stage has work; on ingest-deep it is the
	// probe, which must not permute.
	before := registry()
	stageQuery := plan.probe(p.names)
	if plan.graph {
		stageQuery.Clause = core.Clause{Correction: stats.BH}
	}
	t0 := time.Now()
	_, qs, err := p.fw.Query(stageQuery)
	if err != nil {
		r.check(false, "stage query: %v", err)
		return
	}
	qid := e.tr.add(0, "core.query", "stages", t0, time.Now(), nil)
	at := t0
	for _, st := range qs.Stages {
		e.tr.add(qid, "query."+st.Stage, "stages", at, at.Add(st.Duration), nil)
		at = at.Add(st.Duration)
		switch st.Stage {
		case "plan":
			r.set("planner.plan_s", st.Duration.Seconds())
		case "evaluate":
			r.set("query.evaluate_s", st.Duration.Seconds())
		case "correct":
			r.set("stats.correct_s", st.Duration.Seconds())
		case "select":
			r.set("query.select_s", st.Duration.Seconds())
		}
	}
	var hits []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		_, hs, err := p.fw.Query(stageQuery)
		hits = append(hits, float64(time.Since(t0))/float64(time.Microsecond))
		r.check(err == nil && hs.CacheHit, "repeated query missed the cache")
	}
	after := registry()
	r.set("query.engine_hit_us", median(hits))
	r.set("query.cache_hits", delta(before, after, "polygamy_query_cache_hits_total"))
	r.set("query.coalesced", delta(before, after, "polygamy_query_coalesced_total"))
	if q := delta(before, after, "polygamy_queries_total"); q > 0 {
		r.set("query.hit_ratio", delta(before, after, "polygamy_query_cache_hits_total")/q)
	}

	replayLayers(e, r, plan, city, p)
}

// indexTask is one (data set, scalar function, resolution) unit of index
// work, the granularity core's build pipeline schedules.
type indexTask struct {
	ds   *dataset.Dataset
	spec scalar.Spec
	res  core.Resolution
}

// indexTasks enumerates the corpus's index work in canonical order.
func indexTasks(ds []*dataset.Dataset) []indexTask {
	var tasks []indexTask
	for _, d := range ds {
		for _, sr := range []spatial.Resolution{spatial.ZipCode, spatial.Neighborhood, spatial.City} {
			if !d.SpatialRes.ConvertibleTo(sr) {
				continue
			}
			for _, tr := range []temporal.Resolution{temporal.Hour, temporal.Day, temporal.Week, temporal.Month} {
				if !d.TemporalRes.ConvertibleTo(tr) {
					continue
				}
				for _, spec := range scalar.Specs(d) {
					tasks = append(tasks, indexTask{d, spec, core.Resolution{Spatial: sr, Temporal: tr}})
				}
			}
		}
	}
	return tasks
}

// replayLayers drives every index task — and, on the graph workload, a
// seeded sample of entry pairs — through the layer packages one call at a
// time on this goroutine. The spans nest replay -> task ->
// layer call, so a layer's seconds are the self time of its spans, and the
// self times of the whole tree add up to the replay's duration.
func replayLayers(e *env, r *result, plan batchPlan, city *spatial.CityMap, p passOut) {
	root := e.tr.open(0, "replay", "")
	var minTS, maxTS int64
	for i, d := range p.datasets {
		lo, hi, _ := d.TimeRange()
		if i == 0 || lo < minTS {
			minTS = lo
		}
		if i == 0 || hi > maxTS {
			maxTS = hi
		}
	}
	timelines := map[temporal.Resolution]*temporal.Timeline{}
	graphs := map[core.Resolution]*stgraph.Graph{}
	var functions, critical, sets int
	for _, t := range indexTasks(p.datasets) {
		tl := timelines[t.res.Temporal]
		if tl == nil {
			var err error
			if tl, err = temporal.NewTimeline(minTS, maxTS, t.res.Temporal); err != nil {
				r.check(false, "replay timeline: %v", err)
				return
			}
			timelines[t.res.Temporal] = tl
		}
		g := graphs[t.res]
		if g == nil {
			var err error
			if g, err = stgraph.New(city.NumRegions(t.res.Spatial), tl.Len(), city.Adjacency(t.res.Spatial)); err != nil {
				r.check(false, "replay domain graph: %v", err)
				return
			}
			graphs[t.res] = g
		}
		task := e.tr.open(root, "task", "")
		var fn *scalar.Function
		var err error
		e.tr.timed(task, "scalar.compute", func() {
			fn, err = scalar.ComputeOnDomain(t.ds, t.spec, city, t.res.Spatial, t.res.Temporal, tl, g)
		})
		if err != nil {
			r.check(false, "replay scalar function: %v", err)
			return
		}
		var join, split *topology.Tree
		e.tr.timed(task, "topology.mergetree", func() {
			join = topology.ComputeJoin(fn.Graph, fn.Values)
			split = topology.ComputeSplit(fn.Graph, fn.Values)
		})
		e.tr.timed(task, "feature.extract", func() {
			ex := feature.NewExtractorWithTrees(fn, join, split)
			ex.Extract(feature.Salient)
			ex.Extract(feature.Extreme)
		})
		e.tr.finish(task, nil)
		functions++
		critical += join.NumCriticalPoints() + split.NumCriticalPoints()
		sets += 2
	}

	var pairs, tests, shifts int
	if plan.pairSample > 0 {
		pairs, tests, shifts = replayPairs(e, root, p, plan.pairSample)
	}
	e.tr.finish(root, map[string]float64{"functions": float64(functions), "pairs": float64(pairs)})

	spans := e.tr.snapshot()
	self, total := selfByName(spans, root)
	r.set("scalar.compute_s", self["scalar.compute"].Seconds())
	r.set("scalar.functions", float64(functions))
	r.set("topology.mergetree_s", self["topology.mergetree"].Seconds())
	r.set("topology.critical_points", float64(critical))
	r.set("feature.extract_s", self["feature.extract"].Seconds())
	r.set("feature.sets", float64(sets))
	r.set("relationship.pairs_evaluated", float64(pairs))
	if pairs > 0 {
		r.set("relationship.ns_per_pair", float64(self["relationship.evaluate"].Nanoseconds())/float64(pairs))
	}
	r.set("montecarlo.test_s", self["montecarlo.test"].Seconds())
	if shifts > 0 {
		r.set("montecarlo.ns_per_permutation", float64(self["montecarlo.test"].Nanoseconds())/float64(shifts))
	}
	rootSpan := spans[root-1]
	r.set("trace.self_sum_ratio", total.Seconds()/(time.Duration(rootSpan.EndNS-rootSpan.StartNS).Seconds()))
	r.set("trace.spans", float64(len(spans)))

	layers := self["scalar.compute"] + self["topology.mergetree"] + self["feature.extract"]
	worker := p.istats.ComputeDuration + p.istats.IndexDuration
	r.note("replay: %d index tasks, %d pairs, %d tests, %d permutations", functions, pairs, tests, shifts)
	r.note("layer split: scalar+topology+feature self time %.2fs = %.0f%% of the build's %.2fs index worker time; index wall %.2fs, graph wall %.2fs",
		layers.Seconds(), 100*layers.Seconds()/worker.Seconds(), worker.Seconds(), p.index.Seconds(), p.graph.Seconds())
}

// replayPairs evaluates a seeded sample of entry pairs the way a graph
// build does per candidate: relationship.Evaluate, then — when the pair is
// related — the default significance test, on one worker.
func replayPairs(e *env, root int, p passOut, n int) (pairs, tests, shifts int) {
	rng := rand.New(rand.NewSource(e.seed))
	classes := []feature.Class{feature.Salient, feature.Extreme}
	type slot struct {
		res     core.Resolution
		entries []*core.FunctionEntry
	}
	byDataset := map[string][]slot{}
	for _, name := range p.names {
		for _, sr := range []spatial.Resolution{spatial.ZipCode, spatial.Neighborhood, spatial.City} {
			for _, tr := range []temporal.Resolution{temporal.Hour, temporal.Day, temporal.Week, temporal.Month} {
				res := core.Resolution{Spatial: sr, Temporal: tr}
				if es := p.fw.Entries(name, res); len(es) > 0 {
					byDataset[name] = append(byDataset[name], slot{res, es})
				}
			}
		}
	}
	for attempts := 0; pairs < n && attempts < 50*n; attempts++ {
		a, b := p.names[rng.Intn(len(p.names))], p.names[rng.Intn(len(p.names))]
		if a == b {
			continue
		}
		sa := byDataset[a][rng.Intn(len(byDataset[a]))]
		var eb []*core.FunctionEntry
		for _, sb := range byDataset[b] {
			if sb.res == sa.res {
				eb = sb.entries
			}
		}
		g, ok := p.fw.Graph(sa.res)
		if eb == nil || !ok {
			continue
		}
		e1, e2 := sa.entries[rng.Intn(len(sa.entries))], eb[rng.Intn(len(eb))]
		class := classes[rng.Intn(2)]
		s1, s2 := e1.Salient, e2.Salient
		if class == feature.Extreme {
			s1, s2 = e1.Extreme, e2.Extreme
		}
		pair := e.tr.open(root, "pair", "")
		var m relationship.Measures
		e.tr.timed(pair, "relationship.evaluate", func() { m = relationship.Evaluate(s1, s2) })
		pairs++
		if m.Related() {
			var res montecarlo.Result
			e.tr.timed(pair, "montecarlo.test", func() {
				res = montecarlo.Test(s1, s2, g, m.Tau, montecarlo.Config{Seed: int64(pairs), Workers: 1})
			})
			tests++
			shifts += res.Shifts
		}
		e.tr.finish(pair, nil)
	}
	return pairs, tests, shifts
}

func digestGraph(edges []relgraph.Edge) string {
	lines := make([]string, len(edges))
	for i, x := range edges {
		lines[i] = fmt.Sprintf("%s|%s|%v|%v|%v|%.17g|%.17g|%.17g|%.17g",
			x.Function1, x.Function2, x.SRes, x.TRes, x.Class, x.Tau, x.Rho, x.PValue, x.QValue)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
