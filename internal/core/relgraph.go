package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/stats"
)

// This file is the Monte Carlo result layer of the framework: the one store
// of tested families, shared by Query and BuildGraph, and the corpus-wide
// relationship graph — the paper's headline artifact — assembled from it.
//
// A pair's tested family is every candidate that passed the clause filters,
// with its raw p-value, significant or not: the insignificant ones belong to
// the hypothesis family FDR control adjusts over. The store is keyed by the
// clause's test signature (graphSignature), then by unordered pair; q-values
// are assigned over a union of families only when an answer or a graph is
// assembled. A pair's Monte Carlo draws derive from its identity (pairSeed)
// and its toroidal shifts from the spatial resolution's sequence
// (Framework.shifts), so a family is the same whoever filled it — a query,
// a graph build or a snapshot — and an incrementally maintained graph is
// byte-identical to a from-scratch rebuild. One rule invalidates
// (dropResultsInvolving): a change to a data set drops its pairs' families
// under every signature, plus the memoised answers that involve it.
//
// The published graph is one immutable record (graphRecord): the clause it
// was built or loaded under, the families it was assembled from and the
// graph. Its test signature and selection rule derive from the clause.
//
// Locking: evaluation only reads post-BuildIndex-immutable state, so Query
// and BuildGraph both hold the state lock shared. famMu guards the store and
// is never held across an evaluation, so a query never waits for a graph
// build; two callers missing the same pair may both evaluate it, with
// identical results. Lock order: mu, famMu; graphMu is held only between
// builders, taken after mu. The record is published through an atomic
// pointer: RelGraph, GraphClause and Save never wait for a build, and a
// reader-held graph stays consistent while a rebuild replaces it.

// GraphStats reports what one BuildGraph call did. The planner and
// evaluation counters cover only the pairs computed by that call; reused
// pairs contribute their stored families without re-evaluation.
type GraphStats struct {
	Datasets      int // data sets in the corpus
	Pairs         int // unordered data set pairs covered by the graph
	PairsComputed int // pairs evaluated by this call
	PairsReused   int // pairs whose stored family was kept

	PairsConsidered int // candidate tuples enumerated for computed pairs
	Pruned          int // candidates the planner skipped
	Evaluated       int // candidates with any feature relation
	NotResolvable   int // candidates the planner left out: their test cannot reach alpha

	Edges        int // edges in the materialized graph
	WallDuration time.Duration
}

// graphSignature canonicalises a clause into its test signature, the key of
// the family store: families stored under one signature are never reused
// for another. Correction and MaxQ are deliberately excluded: a family holds
// raw p-values, which those two fields cannot influence — they only select
// at assembly. Changing just the correction therefore re-selects from the
// stored families instead of re-running the Monte Carlo fan-out. Alpha stays
// in the signature because the adaptive early stop — and thus the recorded
// p-values of insignificant candidates — depends on it.
func graphSignature(clause Clause) string {
	clause.Correction = stats.None
	clause.MaxQ = 0
	return querySignature(nil, nil, clause)
}

// graphSelection is the rule that turns a union of tested families into an
// answer or a graph: the correction, its level, and the optional q cutoff,
// all read off the clause (selectionFromClause).
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

// candidate is one tested candidate of a pair's family: a fixed-width,
// pointer-free record, so the garbage collector never scans a family and a
// snapshot's graph section is viewed in place (viewCandidates). For the
// family of pair (A, B), posA and posB are the two functions' positions in
// A's and B's key-sorted entry lists (Index.funcs); both entries share the
// candidate's resolution. extreme and visited are the significance test's
// counts (montecarlo.Result's Extreme and Shifts), zero when no
// randomization ran (SkipSignificance, tau = 0); the raw p-value is p().
// A family is sorted by (posA, posB, class), which is the order of
// (Function1, Function2, Class): Function1 is always A's key.
type candidate struct {
	posA, posB       uint32
	class            feature.Class
	tau, rho         float64
	extreme, visited uint32
}

// p is the candidate's raw p-value, 1 when no randomization ran.
func (c candidate) p() float64 {
	return montecarlo.PValue(int(c.extreme), int(c.visited))
}

// compareCandidates orders a family by (posA, posB, class).
func compareCandidates(x, y candidate) int {
	if x.posA != y.posA {
		return cmp.Compare(x.posA, y.posA)
	}
	if x.posB != y.posB {
		return cmp.Compare(x.posB, y.posB)
	}
	return cmp.Compare(x.class, y.class)
}

// qValues returns the q-value of every candidate of fams, in order: the
// p-values corrected over the whole union, or the raw p-values when no
// correction applies (under SkipSignificance no hypothesis was tested).
// The q-values are a function of the p-value multiset only — ties receive
// identical values — so they do not depend on the families' order.
func qValues(fams [][]candidate, sel graphSelection) []float64 {
	n := 0
	for _, fam := range fams {
		n += len(fam)
	}
	ps := make([]float64, 0, n)
	for _, fam := range fams {
		for _, c := range fam {
			ps = append(ps, c.p())
		}
	}
	if sel.skip || sel.correction == stats.None {
		return ps
	}
	return stats.Adjust(sel.correction, ps)
}

// significant reports whether a candidate with q-value q passes the test,
// q <= alpha. Nothing is significant under SkipSignificance.
func (s graphSelection) significant(q float64) bool {
	return !s.skip && q <= s.alpha
}

// keeps reports whether the rule keeps a candidate with q-value q: every
// candidate under SkipSignificance, else a significant one within the q
// cutoff.
func (s graphSelection) keeps(q float64) bool {
	return s.skip || s.significant(q) && (s.maxQ <= 0 || q <= s.maxQ)
}

// graphRecord is the published relationship graph: the clause it was built
// (or loaded) under — so a refresh after a corpus change reuses exactly the
// operator's selection (GraphClause) — the families it was assembled from,
// minus any invalidated since, and the graph. A record is never mutated: a
// change publishes a new one.
type graphRecord struct {
	clause Clause
	fams   map[graphPair][]candidate
	graph  *relgraph.Graph
}

// walkKept visits, in order, every candidate of fams — fams[j] is the family
// of keys[j] and qs the union's q-values (qValues) — that sel keeps, with
// its two function-table ids and its q-value, and returns how many
// candidates are significant. It is the selection step of Query's rows and
// of the graph's links alike.
func (t *funcTable) walkKept(keys []graphPair, fams [][]candidate, qs []float64, sel graphSelection,
	visit func(fa, fb uint32, c candidate, q float64)) (significant int) {
	i := 0
	for j, fam := range fams {
		baseA, baseB := t.base[keys[j].A], t.base[keys[j].B]
		for _, c := range fam {
			q := qs[i]
			i++
			if sel.significant(q) {
				significant++
			}
			if sel.keeps(q) {
				visit(baseA+c.posA, baseB+c.posB, c, q)
			}
		}
	}
	return significant
}

// assembleGraph corrects the union of the given families and materializes
// the graph of the candidates the clause's selection rule keeps, over the
// index's function table.
func assembleGraph(ix *Index, fams map[graphPair][]candidate, clause Clause) *relgraph.Graph {
	keys := slices.Collect(maps.Keys(fams))
	list := make([][]candidate, len(keys))
	for j, k := range keys {
		list[j] = fams[k]
	}
	sel := selectionFromClause(clause)
	qs := qValues(list, sel)
	n := 0
	for _, q := range qs {
		if sel.keeps(q) {
			n++
		}
	}
	tab := ix.table()
	links := make([]relgraph.Link, 0, n)
	tab.walkKept(keys, list, qs, sel, func(fa, fb uint32, c candidate, q float64) {
		links = append(links, relgraph.Link{F1: fa, F2: fb, Class: c.class, Tau: c.tau, Rho: c.rho, PValue: c.p(), QValue: q})
	})
	return relgraph.Assemble(tab.Table, links)
}

// graphPair is the unordered data set pair key of the family store
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
// when set). Pairs whose family is already stored under the clause's test
// signature — by an earlier build, a query or a snapshot — are reused, so
// after an incremental AddDataset + BuildIndex only the new data set's pairs
// are computed; q-values are still re-adjusted over every pair's family, so
// the incremental graph is byte-identical to a from-scratch rebuild.
//
// BuildGraph holds the state lock shared, so queries proceed concurrently
// with a build; concurrent BuildGraph calls serialize on graphMu. The
// graph is published with its clause and families as one record; a graph
// obtained from RelGraph before the call remains valid (graphs are
// immutable values).
func (f *Framework) BuildGraph(clause Clause) (GraphStats, error) {
	t0 := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	var st GraphStats
	if err := clause.Validate(); err != nil {
		return st, err
	}
	if !f.indexedLocked() {
		return st, fmt.Errorf("core: BuildIndex must run before BuildGraph")
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	keys := queryPairs(f.order, f.order)
	st.Datasets = len(f.order)
	st.Pairs = len(keys)

	// Pure reuse: the published graph was assembled from every pair's
	// current family under the same signature and selection rule — skip the
	// O(E log E) reassembly and republish it under the caller's clause.
	// Invalidation removes pairs from the record, so a full count means
	// nothing changed, and the store holds every one of them.
	if rec := f.published.Load(); rec != nil && len(rec.fams) == len(keys) &&
		graphSignature(rec.clause) == graphSignature(clause) && selectionFromClause(rec.clause) == selectionFromClause(clause) {
		f.published.Store(&graphRecord{clause: clause, fams: rec.fams, graph: rec.graph})
		st.PairsReused = len(keys)
		st.Edges = rec.graph.NumEdges()
		st.WallDuration = time.Since(t0)
		recordGraphBuild(st)
		return st, nil
	}

	tStage := time.Now()
	fams, missing, err := f.testedFamilies(keys, clause, func(missing []int) []queryPlan {
		plans := f.planPairs(pick(keys, missing), clause)
		for _, pl := range plans {
			st.PairsConsidered += pl.considered
			st.Pruned += pl.pruned
			st.NotResolvable += pl.notResolvable
		}
		mGraphStageDuration.With("plan").Observe(time.Since(tStage).Seconds())
		tStage = time.Now()
		return plans
	})
	if err != nil {
		return st, err
	}
	if len(missing) > 0 {
		mGraphStageDuration.With("evaluate").Observe(time.Since(tStage).Seconds())
	}
	for _, i := range missing {
		st.Evaluated += len(fams[i])
	}
	st.PairsComputed = len(missing)
	st.PairsReused = len(keys) - len(missing)

	tAssemble := time.Now()
	rec := &graphRecord{clause: clause, fams: make(map[graphPair][]candidate, len(keys))}
	for i, k := range keys {
		rec.fams[k] = fams[i]
	}
	rec.graph = assembleGraph(f.index, rec.fams, clause)
	f.published.Store(rec)
	mGraphStageDuration.With("assemble").Observe(time.Since(tAssemble).Seconds())
	st.Edges = rec.graph.NumEdges()
	st.WallDuration = time.Since(t0)
	recordGraphBuild(st)
	return st, nil
}

// testedFamilies returns the tested family of every pair of keys, in keys
// order, under the clause's test signature: the stored one, or, for the
// pairs the store lacks (missing, indices into keys), one evaluated now and
// added to the store. plan returns the plans of the missing pairs: Query
// picks them from its plan of every pair, BuildGraph plans only those.
func (f *Framework) testedFamilies(keys []graphPair, clause Clause, plan func(missing []int) []queryPlan) (
	fams [][]candidate, missing []int, err error) {
	sig := graphSignature(clause)
	fams = make([][]candidate, len(keys))
	f.famMu.Lock()
	for i, k := range keys {
		var ok bool
		if fams[i], ok = f.families[sig][k]; !ok {
			missing = append(missing, i)
		}
	}
	f.famMu.Unlock()
	if len(missing) == 0 {
		return fams, nil, nil
	}
	computed, err := f.evaluatePairsLocked(sig, pick(keys, missing), plan(missing), clause)
	if err != nil {
		return nil, nil, err
	}
	for j, i := range missing {
		fams[i] = computed[j]
	}
	return fams, missing, nil
}

// pick returns xs[i] for every i of idx, in order.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// planPairs plans each pair of keys on the worker pool and adds the plans'
// counts to the planner metrics, for Query and BuildGraph alike.
func (f *Framework) planPairs(keys []graphPair, clause Clause) []queryPlan {
	plans, _ := mapreduce.ForEach(f.workers(), keys, func(k graphPair) (queryPlan, error) {
		return f.plan(k, clause), nil
	})
	for _, pl := range plans {
		mPairsConsidered.Add(uint64(pl.considered))
		mPairsPruned.Add(uint64(pl.pruned))
		mPairsNotResolvable.Add(uint64(pl.notResolvable))
	}
	return plans
}

// evaluatePairsLocked evaluates the pairs keys — plans[i] is the plan of
// keys[i] — into their tested families, sorted, and adds them to the store
// under sig; a fruitless pair gets an empty family so it is not evaluated
// again. It is where the evaluated counter is recorded, for Query and
// BuildGraph alike. The pairs' tasks are one batch on the worker pool, so
// the pool sees the whole batch at once, and a pair's tasks are contiguous
// in it, so its results are a slice of the batch. A task's Monte Carlo test
// runs on the pool goroutine that evaluates the task. testedFamilies calls
// it under the shared state lock.
func (f *Framework) evaluatePairsLocked(sig string, keys []graphPair, plans []queryPlan, clause Clause) ([][]candidate, error) {
	workers := f.workers()
	n := 0
	for _, pl := range plans {
		n += len(pl.tasks)
	}
	tasks := make([]pairTask, 0, n)
	for _, pl := range plans {
		tasks = append(tasks, pl.tasks...)
	}
	type tested struct {
		c        candidate
		inFamily bool
	}
	results, err := mapreduce.ForEach(workers, tasks, func(t pairTask) (tested, error) {
		c, in, err := f.evaluatePair(t, clause)
		return tested{c, in}, err
	})
	if err != nil {
		return nil, err
	}
	perPair := make([][]tested, len(plans))
	for i, pl := range plans {
		k := len(pl.tasks)
		perPair[i], results = results[:k:k], results[k:]
	}
	fams, _ := mapreduce.ForEach(workers, perPair, func(rs []tested) ([]candidate, error) {
		n := 0
		for _, r := range rs {
			if r.inFamily {
				n++
			}
		}
		fam := make([]candidate, 0, n)
		for _, r := range rs {
			if r.inFamily {
				fam = append(fam, r.c)
			}
		}
		slices.SortFunc(fam, compareCandidates)
		return fam, nil
	})
	for _, fam := range fams {
		mPairsEvaluated.Add(uint64(len(fam)))
	}
	f.famMu.Lock()
	defer f.famMu.Unlock()
	byPair := f.families[sig]
	if byPair == nil {
		byPair = make(map[graphPair][]candidate, len(keys))
		f.families[sig] = byPair
	}
	for i, k := range keys {
		if _, ok := byPair[k]; !ok {
			byPair[k] = fams[i]
		}
	}
	return fams, nil
}

// dropResultsInvolving is the one invalidation rule: under every signature
// it drops the families of the pairs incident to any of the named data sets
// — from the store and from the published record — and it drops the
// memoised answers that involve them. It returns how many pairs it dropped
// under the published graph's signature. The caller holds the state lock
// exclusively, so no evaluation or build is in flight.
func (f *Framework) dropResultsInvolving(names ...string) (dropped int) {
	incident := func(k graphPair, _ []candidate) bool {
		return slices.Contains(names, k.A) || slices.Contains(names, k.B)
	}
	sig := ""
	if rec := f.published.Load(); rec != nil {
		fams := maps.Clone(rec.fams)
		maps.DeleteFunc(fams, incident)
		f.published.Store(&graphRecord{clause: rec.clause, fams: fams, graph: rec.graph})
		sig = graphSignature(rec.clause)
	}
	f.famMu.Lock()
	for s, byPair := range f.families {
		n := len(byPair)
		maps.DeleteFunc(byPair, incident)
		if s == sig {
			dropped = n - len(byPair)
		}
	}
	f.famMu.Unlock()
	f.cacheMu.Lock()
	maps.DeleteFunc(f.cache, func(_ string, c *cachedResult) bool {
		return slices.ContainsFunc(names, func(n string) bool { return c.involved[n] })
	})
	f.cacheMu.Unlock()
	return dropped
}

// resetResults drops every Monte Carlo result: all families, the published
// graph and the memoised answers. The caller holds the state lock
// exclusively, which also excludes any in-flight builder.
func (f *Framework) resetResults() {
	f.published.Store(nil)
	f.famMu.Lock()
	f.families = make(map[string]map[graphPair][]candidate)
	f.famMu.Unlock()
	f.cacheMu.Lock()
	f.cache = make(map[string]*cachedResult)
	f.cacheMu.Unlock()
}

// GraphClause returns the clause the current materialized graph was built
// (or loaded) under, and ok = false when no graph exists. An incremental
// refresh after a corpus change — e.g. a runtime ingestion — should pass
// exactly this clause to BuildGraph so the stored families are reused and
// the selection is unchanged. It never blocks.
func (f *Framework) GraphClause() (Clause, bool) {
	rec := f.published.Load()
	if rec == nil {
		return Clause{}, false
	}
	return rec.clause, true
}

// RelGraph returns the materialized relationship graph, or ok = false when
// BuildGraph (or Load) has not run. It never blocks — not even on an
// in-flight build — and the returned graph is an immutable value: it stays
// valid and consistent while a concurrent BuildGraph replaces the
// framework's current graph.
func (f *Framework) RelGraph() (*relgraph.Graph, bool) {
	rec := f.published.Load()
	if rec == nil {
		return nil, false
	}
	return rec.graph, true
}
