package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/spatial"
)

// batchPlan describes one in-process workload: which corpus, whether the
// all-pairs graph is built, and the probe query that must be answered the
// same by the built framework and by every reopened snapshot.
type batchPlan struct {
	corpus func(e *env, city *spatial.CityMap) ([]*dataset.Dataset, error)
	graph  bool
	opens  int
	probe  func(names []string) core.Query
	// cold picks the pass's headline compute-path sample.
	cold func(p passOut) time.Duration
	// pairSample is how many entry pairs the traced pass re-tests one by
	// one after replaying the index tasks (0 on a workload without graph).
	pairSample int
}

func runIngestDeep(e *env, r *result) error {
	return runBatch(e, r, batchPlan{
		corpus: func(e *env, city *spatial.CityMap) ([]*dataset.Dataset, error) {
			return urbanCorpus(e.seed, city, e.sz.deepMonths, e.sz.deepScale)
		},
		opens: e.sz.opensDeep,
		// No permutation may run on this workload, so the probe skips the
		// significance test: it returns every candidate relationship.
		probe: func([]string) core.Query {
			return core.Query{Sources: []string{"taxi"}, Targets: []string{"collisions"},
				Clause: core.Clause{SkipSignificance: true}}
		},
		cold: func(p passOut) time.Duration { return p.readCSV + p.index },
	})
}

func runGraphWide(e *env, r *result) error {
	return runBatch(e, r, batchPlan{
		corpus: func(e *env, city *spatial.CityMap) ([]*dataset.Dataset, error) {
			return openCorpus(e.seed, city, e.sz.wideN, e.sz.wideMonths)
		},
		graph: true,
		opens: e.sz.opensWide,
		probe: func(names []string) core.Query {
			return core.Query{Sources: names[:1], Clause: core.Clause{SkipSignificance: true}}
		},
		cold:       func(p passOut) time.Duration { return p.graph },
		pairSample: e.sz.pairSample,
	})
}

// passOut is everything one pass over the corpus measured.
type passOut struct {
	readCSV, index, graph, save time.Duration
	opens                       []time.Duration
	cpu                         time.Duration
	istats                      core.IndexStats
	gstats                      core.GraphStats
	snapBytes                   int64
	indexAllocMB, openAllocs    float64
	perms, earlyStops           float64
	digest                      string
	names                       []string
	fw                          *core.Framework // the built framework, kept for the replay
	datasets                    []*dataset.Dataset
}

func runBatch(e *env, r *result, plan batchPlan) error {
	city, err := fixedCity()
	if err != nil {
		return err
	}

	// Set-up: generate the corpus and write it as CSV, several times over;
	// the median is setup_s and the last copy is what the passes read.
	var setups []float64
	var dir string
	var csvBytes int64
	for i := 0; i < e.sz.setupsBatch; i++ {
		t0 := time.Now()
		ds, err := plan.corpus(e, city)
		if err != nil {
			return err
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(e.tmp, fmt.Sprintf("corpus-%d", i))
		if csvBytes, err = writeCorpus(dir, ds); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	// Measure: whole passes, a new one starting as long as less than 60 % of
	// the run's seconds have gone by. A pass is never cut short — its phases
	// are the samples — and the threshold sits well away from a multiple of
	// the pass time, so the pass count does not flip with the machine's
	// mood. The traced pass is a single pass, followed by the replay.
	var passes []passOut
	start := time.Now()
	for {
		p, err := batchPass(e, r, plan, city, dir, len(passes))
		if err != nil {
			return err
		}
		passes = append(passes, p)
		if e.tr != nil || !e.timeForAnother(start) {
			break
		}
		// Only the last pass's framework is kept (for the replay).
		passes[len(passes)-1].fw, passes[len(passes)-1].datasets = nil, nil
	}
	last := passes[len(passes)-1]

	var cold, warm, cpu []float64
	for _, p := range passes {
		cold = append(cold, ms(plan.cold(p)))
		cpu = append(cpu, ms(p.cpu))
		for _, o := range p.opens {
			warm = append(warm, ms(o))
		}
		r.check(p.digest == passes[0].digest, "pass answers differ: digest %s vs %s", p.digest, passes[0].digest)
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("cold_ms", median(cold))
	r.set("warm_ms", median(warm))
	r.set("snapshot_bytes_per_csv_byte", float64(last.snapBytes)/float64(csvBytes))
	r.set("peak_rss_mb", rss)
	r.set("cpu_ms_per_op", median(cpu))
	r.note("passes=%d cold samples=%d warm samples=%d", len(passes), len(cold), len(warm))
	r.note("digest=%s functions=%d csv_bytes=%d snapshot_bytes=%d", last.digest, last.istats.Functions, csvBytes, last.snapBytes)
	r.note("exact-repeat counts: planner.pairs_considered=%d planner.pairs_pruned=%d graph.edges=%d montecarlo.permutations=%.0f",
		last.gstats.PairsConsidered, last.gstats.Pruned, last.gstats.Edges, last.perms)

	if e.tr != nil {
		batchLayers(e, r, plan, city, last, csvBytes, median(cold), median(warm))
	}
	last.fw.Close()
	return nil
}

// batchPass runs one pass: CSV on disk -> registered -> indexed -> (graph)
// -> saved -> reopened `opens` times, each reopening answering the probe.
func batchPass(e *env, r *result, plan batchPlan, city *spatial.CityMap, dir string, n int) (passOut, error) {
	var p passOut
	root := e.tr.open(0, "pass", "")
	cpu0 := selfCPU()
	before := registry()
	opts := core.Options{City: city, Workers: e.nproc, Seed: citySeed}

	files, err := corpusFiles(dir)
	if err != nil {
		return p, err
	}
	fw, err := core.New(opts)
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return p, err
		}
		d, err := dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return p, fmt.Errorf("%s: %w", path, err)
		}
		if err := fw.AddDataset(d); err != nil {
			return p, err
		}
		p.datasets = append(p.datasets, d)
		p.names = append(p.names, d.Name)
	}
	t1 := time.Now()
	p.readCSV = t1.Sub(t0)
	e.tr.add(root, "dataset.read_csv", "", t0, t1, map[string]float64{"datasets": float64(len(files))})

	// Garbage is collected between phases (outside every timed section) so
	// that the memory high-water mark is set by a phase's own working set,
	// not by how much of the previous phase's garbage happened to linger.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	if p.istats, err = fw.BuildIndex(); err != nil {
		return p, err
	}
	t1 = time.Now()
	runtime.ReadMemStats(&ms1)
	p.index = t1.Sub(t0)
	p.indexAllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	e.tr.add(root, "core.build_index", "", t0, t1, map[string]float64{
		"functions": float64(p.istats.Functions), "featureSets": float64(p.istats.FeatureSets)})

	runtime.GC()
	if plan.graph {
		t0 = time.Now()
		if p.gstats, err = fw.BuildGraph(core.Clause{}); err != nil {
			return p, err
		}
		t1 = time.Now()
		p.graph = t1.Sub(t0)
		e.tr.add(root, "core.build_graph", "", t0, t1, map[string]float64{
			"pairsConsidered": float64(p.gstats.PairsConsidered), "pruned": float64(p.gstats.Pruned),
			"evaluated": float64(p.gstats.Evaluated), "edges": float64(p.gstats.Edges)})
		runtime.GC()
	}

	probe := plan.probe(p.names)
	t0 = time.Now()
	rels, _, err := fw.Query(probe)
	if err != nil {
		return p, err
	}
	e.tr.add(root, "core.query", "", t0, time.Now(), map[string]float64{"relationships": float64(len(rels))})
	want := digestRelationships(rels)
	r.check(len(rels) > 0, "probe query returned no relationship")

	snap := filepath.Join(e.tmp, fmt.Sprintf("pass-%d.snap", n))
	defer os.Remove(snap)
	t0 = time.Now()
	if err := fw.Save(snap); err != nil {
		return p, err
	}
	t1 = time.Now()
	p.save = t1.Sub(t0)
	e.tr.add(root, "store.save", "", t0, t1, nil)
	st, err := os.Stat(snap)
	if err != nil {
		return p, err
	}
	p.snapBytes = st.Size()

	// Warm path: snapshot on disk -> a framework that has answered its
	// first query. Every reopening must answer byte-identically.
	for i := 0; i < plan.opens; i++ {
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		g, err := core.Open(snap, core.OpenOptions{Options: opts, Datasets: p.datasets})
		if err != nil {
			return p, fmt.Errorf("reopening snapshot: %w", err)
		}
		tOpen := time.Now()
		got, _, err := g.Query(probe)
		t1 = time.Now()
		if err != nil {
			return p, err
		}
		runtime.ReadMemStats(&ms1)
		p.openAllocs = float64(ms1.Mallocs - ms0.Mallocs)
		p.opens = append(p.opens, t1.Sub(t0))
		id := e.tr.add(root, "open_and_probe", "", t0, t1, nil)
		e.tr.add(id, "store.open", "", t0, tOpen, nil)
		e.tr.add(id, "core.query", "", tOpen, t1, nil)
		r.check(digestRelationships(got) == want, "reopened snapshot answers the probe differently")
		if plan.graph {
			built, _ := fw.RelGraph()
			loaded, ok := g.RelGraph()
			r.check(ok && loaded.Equal(built), "reopened snapshot carries a different relationship graph")
		}
		g.Close()
	}

	after := registry()
	p.perms = delta(before, after, "polygamy_montecarlo_permutations_total")
	p.earlyStops = delta(before, after, "polygamy_montecarlo_early_stops_total")
	p.cpu = selfCPU() - cpu0
	p.digest = want
	if plan.graph {
		g, _ := fw.RelGraph()
		p.digest = digestGraph(g.Edges())
	}
	p.fw = fw
	e.tr.finish(root, nil)
	return p, nil
}

// registry reads the in-process metrics registry through its exposition
// format — the same text a scrape of /metrics returns from a server.
func registry() promSeries {
	var buf bytes.Buffer
	if err := obsv.Default.WritePrometheus(&buf); err != nil {
		return promSeries{}
	}
	return parseProm(buf.Bytes())
}

func digestRelationships(rels []core.Relationship) string {
	h := sha256.New()
	for _, x := range rels {
		fmt.Fprintf(h, "%s|%s|%v|%v|%.17g|%.17g|%.17g|%.17g|%t\n",
			x.Function1, x.Function2, x.Res, x.Class, x.Score, x.Strength, x.PValue, x.QValue, x.Significant)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
