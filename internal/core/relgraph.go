package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/stats"
)

// This file is the relationship-graph layer of the framework: BuildGraph
// materializes the corpus-wide many-many relationship graph — the paper's
// headline artifact — by driving the query planner over every data set
// pair, and the framework keeps it as a persistent, incrementally
// maintained structure.
//
// Incrementality mirrors the index contract: *candidates* — every tested
// relationship with its raw p-value, significant or not — are cached per
// unordered data set pair, so after AddDataset + BuildIndex a BuildGraph
// call recomputes only the pairs incident to the new data set (the
// existing pairs' entries are untouched, so their p-values cannot have
// changed). Caching the full tested family rather than just the
// significant edges is what makes corpus-wide FDR control incremental:
// q-values depend on every tested p-value, so assembleGraph re-adjusts
// them over the whole cache on each build — a cheap O(E log E) pass over
// cached numbers, with no Monte Carlo re-runs. A full recompute happens
// only when the clause changes or the index itself fully rebuilds (corpus
// time-range extension drops all derived state). A pair's Monte Carlo
// draws derive from its identity (pairSeed) and its toroidal shifts from
// the spatial resolution's sequence (Framework.shifts), so an incrementally
// maintained graph — q-values included — is byte-identical to a
// from-scratch rebuild, and under Correction: none every edge is
// byte-identical to what a direct Query for that pair returns.
//
// Locking: a build only reads post-BuildIndex-immutable state, so
// BuildGraph holds the state lock shared — concurrent queries keep
// flowing — and serializes against other builders (and Save) on
// graphMu, which guards the pair cache. The finished graph is published
// through an atomic pointer: RelGraph never blocks, and a reader-held
// graph stays consistent while a rebuild replaces it.

// GraphStats reports what one BuildGraph call did. With incremental
// maintenance, the planner and evaluation counters cover only the pairs
// computed by that call; reused pairs contribute their cached edges
// without re-evaluation.
type GraphStats struct {
	Datasets      int // data sets in the corpus
	Pairs         int // unordered data set pairs covered by the graph
	PairsComputed int // pairs evaluated by this call
	PairsReused   int // pairs whose cached edges were kept

	PairsConsidered int // candidate tuples enumerated for computed pairs
	Pruned          int // candidates the planner skipped
	Evaluated       int // candidates with any feature relation

	Edges        int // edges in the materialized graph
	WallDuration time.Duration
}

// graphSignature canonicalises the clause a graph's *candidate cache* is
// built under; candidates cached under one signature are never reused for
// another. Correction and MaxQ are deliberately excluded: the cache stores
// the full tested family of raw p-values, which those two fields cannot
// influence — they only select edges at assembly. Changing just the
// correction therefore re-selects from the cached family (O(E log E))
// instead of re-running the all-pairs Monte Carlo fan-out. Alpha stays in
// the signature because the adaptive early stop — and thus the recorded
// p-values of insignificant candidates — depends on it.
func graphSignature(clause Clause) string {
	clause.Correction = stats.None
	clause.MaxQ = 0
	return querySignature(nil, nil, clause)
}

// graphSelection is the edge-selection rule applied when assembling the
// published graph from the candidate cache: the correction, its level, and
// the optional q cutoff. It is remembered next to the cache (and persisted
// in snapshots) so Load and pure-reuse builds select identically.
type graphSelection struct {
	alpha      float64
	correction stats.Correction
	maxQ       float64
	skip       bool // SkipSignificance: keep every candidate
}

func selectionFromClause(c Clause) graphSelection {
	alpha := c.Alpha
	if alpha <= 0 {
		alpha = montecarlo.DefaultAlpha
	}
	return graphSelection{alpha: alpha, correction: c.Correction, maxQ: c.MaxQ, skip: c.SkipSignificance}
}

// assembleGraph adjusts the cached candidates' p-values into q-values over
// the corpus-wide tested family and materializes the graph of the
// candidates surviving the selection rule. Candidates are copied, never
// mutated: the cache stays q-free so a later build over a grown family can
// re-adjust from the raw p-values.
func assembleGraph(cands map[graphPair][]relgraph.Edge, sel graphSelection) *relgraph.Graph {
	n := 0
	for _, es := range cands {
		n += len(es)
	}
	all := make([]relgraph.Edge, 0, n)
	for _, es := range cands {
		all = append(all, es...)
	}
	if sel.skip {
		for i := range all {
			all[i].QValue = all[i].PValue
		}
		return relgraph.New(all)
	}
	ps := make([]float64, len(all))
	for i := range all {
		ps[i] = all[i].PValue
	}
	qs := stats.Adjust(sel.correction, ps)
	kept := all[:0]
	for i, e := range all {
		if qs[i] > sel.alpha {
			continue
		}
		if sel.maxQ > 0 && qs[i] > sel.maxQ {
			continue
		}
		e.QValue = qs[i]
		kept = append(kept, e)
	}
	return relgraph.New(kept)
}

// graphPair is the unordered data set pair key of the edge cache
// (A < B). A struct key keeps arbitrary data set names collision-free.
type graphPair struct {
	A, B string
}

func makeGraphPair(a, b string) graphPair {
	if b < a {
		a, b = b, a
	}
	return graphPair{A: a, B: b}
}

// BuildGraph brings the materialized relationship graph up to date with the
// indexed corpus: every unordered data set pair is evaluated at every
// common resolution and feature class under the given clause (the zero
// Clause applies the paper's defaults), and the significant relationships
// become graph edges. With Clause.Correction set, significance is decided
// corpus-wide: q-values are adjusted over every tested pair in the corpus —
// the many-many regime where per-pair alpha floods the graph with false
// discoveries — and an edge survives when q <= alpha (and <= Clause.MaxQ,
// when set). Pairs already covered by the current graph — built with the
// same clause — are reused, so after an incremental AddDataset + BuildIndex
// only the new data set's pairs are computed; q-values are still
// re-adjusted over the full cached family, so the incremental graph is
// byte-identical to a from-scratch rebuild.
//
// BuildGraph holds the state lock shared, so queries proceed concurrently
// with a build; concurrent BuildGraph calls serialize on the builder
// mutex. A graph obtained from RelGraph before the call remains valid
// (graphs are immutable values).
func (f *Framework) BuildGraph(clause Clause) (GraphStats, error) {
	t0 := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	var st GraphStats
	if !f.indexedLocked() {
		return st, fmt.Errorf("core: BuildIndex must run before BuildGraph")
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	sig := graphSignature(clause)
	if f.graphSig != sig || f.graphCands == nil {
		f.graphCands = make(map[graphPair][]relgraph.Edge)
		f.graphSig = sig
	}
	sel := selectionFromClause(clause)
	st.Datasets = len(f.order)

	// Enumerate the unordered pairs not yet covered.
	var missing []graphPair
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			st.Pairs++
			key := makeGraphPair(a, b)
			if _, ok := f.graphCands[key]; ok {
				st.PairsReused++
				continue
			}
			missing = append(missing, key)
		}
	}
	st.PairsComputed = len(missing)

	// Pure reuse: same candidates *and* same selection rule, so the
	// published graph is already the assembly of the cache — skip the
	// O(E log E) reassembly. A changed selection (correction, alpha, q
	// cutoff) falls through: the candidates are reusable but the edge set
	// is not.
	if len(missing) == 0 && sel == f.graphSel {
		if g := f.relGraph.Load(); g != nil {
			f.graphClause = clause
			st.Edges = g.NumEdges()
			st.WallDuration = time.Since(t0)
			recordGraphBuild(st)
			return st, nil
		}
	}
	f.graphSel = sel

	if err := f.evaluatePairsLocked(missing, clause, &st); err != nil {
		return st, err
	}

	tAssemble := time.Now()
	g := assembleGraph(f.graphCands, f.graphSel)
	f.relGraph.Store(g)
	mGraphStageDuration.With("assemble").Observe(time.Since(tAssemble).Seconds())
	f.graphClause = clause
	st.Edges = g.NumEdges()
	st.WallDuration = time.Since(t0)
	recordGraphBuild(st)
	return st, nil
}

// evaluatePairsLocked computes the tested candidate families of the data
// set pairs in keys into the pair cache: every tested candidate with its raw
// p-value, significant or not — the insignificant ones are part of the
// corpus-wide hypothesis family and shift everyone's q-values — sorted, and
// an empty family for a fruitless pair so it is not re-evaluated. Planning,
// evaluation and collection each run on the worker pool: the pairs' tasks
// are one batch, so the pool sees the whole build at once, and a pair's
// tasks are contiguous in it, so its results are a slice of the batch. The
// caller holds graphMu.
func (f *Framework) evaluatePairsLocked(keys []graphPair, clause Clause, st *GraphStats) error {
	if len(keys) == 0 {
		return nil
	}
	workers := f.workers()
	classes := clause.Classes
	if classes == nil {
		classes = []feature.Class{feature.Salient, feature.Extreme}
	}
	t0 := time.Now()
	plans, _ := mapreduce.ForEach(workers, keys, func(k graphPair) (queryPlan, error) {
		return f.plan([]string{k.A}, []string{k.B}, clause, classes), nil
	})
	n := 0
	for _, pl := range plans {
		n += len(pl.tasks)
		st.PairsConsidered += pl.considered
		st.Pruned += pl.pruned
	}
	tasks := make([]pairTask, 0, n)
	for _, pl := range plans {
		tasks = append(tasks, pl.tasks...)
	}
	mGraphStageDuration.With("plan").Observe(time.Since(t0).Seconds())

	t0 = time.Now()
	mcWorkers := max(1, workers/max(n, 1))
	results, err := mapreduce.ForEach(workers, tasks, func(t pairTask) (*Relationship, error) {
		return f.evaluatePair(t, clause, mcWorkers)
	})
	if err != nil {
		return err
	}
	perPair := make([][]*Relationship, len(plans))
	for i, pl := range plans {
		k := len(pl.tasks)
		perPair[i], results = results[:k:k], results[k:]
	}
	cands, _ := mapreduce.ForEach(workers, perPair, func(rs []*Relationship) ([]relgraph.Edge, error) {
		rs = slices.DeleteFunc(rs, func(r *Relationship) bool { return r == nil })
		es := make([]relgraph.Edge, len(rs))
		for i, r := range rs {
			es[i] = relationshipEdge(*r)
		}
		relgraph.SortEdges(es)
		return es, nil
	})
	for i, key := range keys {
		f.graphCands[key] = cands[i]
		st.Evaluated += len(cands[i])
	}
	mGraphStageDuration.With("evaluate").Observe(time.Since(t0).Seconds())
	return nil
}

// GraphClause returns the clause the current materialized graph's
// candidate cache was built (or loaded) under, and ok = false when no
// graph exists. An incremental refresh after a corpus change — e.g. a
// runtime ingestion — should pass exactly this clause to BuildGraph so
// the cache is reused and the selection is unchanged.
func (f *Framework) GraphClause() (Clause, bool) {
	if f.relGraph.Load() == nil {
		return Clause{}, false
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	return f.graphClause, true
}

// relationshipEdge converts one query-layer relationship into a graph edge.
// For candidates entering the pair cache the QValue is still zero (q-values
// are assigned corpus-wide at assembly); for parity comparisons against
// Query results it carries the query-scoped q-value through.
func relationshipEdge(r Relationship) relgraph.Edge {
	return relgraph.Edge{
		Function1: r.Function1, Function2: r.Function2,
		Dataset1: r.Dataset1, Dataset2: r.Dataset2,
		Spec1: r.Spec1, Spec2: r.Spec2,
		SRes: r.Res.Spatial, TRes: r.Res.Temporal, Class: r.Class,
		Tau: r.Score, Rho: r.Strength, PValue: r.PValue, QValue: r.QValue,
	}
}

// RelGraph returns the materialized relationship graph, or ok = false when
// BuildGraph (or Load) has not run. It never blocks — not even on an
// in-flight build — and the returned graph is an immutable value: it stays
// valid and consistent while a concurrent BuildGraph replaces the
// framework's current graph.
func (f *Framework) RelGraph() (*relgraph.Graph, bool) {
	g := f.relGraph.Load()
	return g, g != nil
}

// resetGraph drops the materialized graph and its per-pair candidate
// cache. The caller must hold the state lock exclusively (which also
// excludes any in-flight builder, since builders hold the shared lock).
func (f *Framework) resetGraph() {
	f.graphMu.Lock()
	f.graphCands = nil
	f.graphSig = ""
	f.graphSel = graphSelection{}
	f.graphClause = Clause{}
	f.graphMu.Unlock()
	f.relGraph.Store(nil)
}
