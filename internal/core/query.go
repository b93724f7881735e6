package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/stats"
)

// This file is the query layer of the framework: the relationship operator
// (Section 5.3). A query plans its data set pairs, takes each pair's tested
// family from the store it shares with BuildGraph (relgraph.go) — evaluating
// only the pairs no earlier query or build has tested under the same test
// signature — then corrects over the union of those families and selects.
// Assembled answers are memoised per query signature (Appendix C), and
// identical concurrent queries are deduplicated, so a repeated query does
// not even re-select.

// Clause filters and parameterises a relationship query (Section 5.3).
// The zero value applies the paper's defaults: alpha = 0.05, 1,000
// restricted permutations, both feature classes, all resolutions, no
// score/strength filter.
type Clause struct {
	// MinScore keeps only relationships with |tau| >= MinScore.
	MinScore float64
	// MinStrength keeps only relationships with rho >= MinStrength.
	MinStrength float64
	// Classes restricts the feature classes evaluated; nil => both salient
	// and extreme.
	Classes []feature.Class
	// Resolutions restricts the evaluation resolutions; nil => every
	// common resolution of each pair.
	Resolutions []Resolution
	// Alpha is the significance level, below 1 (0 => 0.05).
	Alpha float64
	// Permutations is |m| for the Monte Carlo test (0 => 1,000), at most
	// 1e9.
	Permutations int
	// SkipSignificance disables the Monte Carlo test, returning every
	// candidate relationship (used to count "possible" relationships for
	// the pruning experiment, Figure 11).
	SkipSignificance bool
	// Correction selects the multiple-hypothesis correction applied across
	// the query's tested pairs (stats.None, stats.BH, or stats.BY). Under a
	// correction, every evaluated pair receives a q-value computed over the
	// whole tested family, and a relationship is significant when its
	// q-value is <= Alpha; with None the q-value equals the raw p-value and
	// the per-pair rule is unchanged.
	Correction stats.Correction
	// MaxQ additionally keeps only relationships with q-value <= MaxQ
	// (0 => no filter). It has no effect under SkipSignificance, where no
	// hypothesis is tested and every q-value is 1.
	MaxQ float64
	// Windowed restricts the query to the time window [WindowFrom,
	// WindowTo] (Unix seconds, both ends in their bins): feature bits
	// outside the window are masked out before relationship evaluation, and
	// the significance test runs over the window's supporting tiles. The
	// grammar form is "between <t1> and <t2>". Occupancy-based planner
	// bounds are global, not windowed, so they are disabled under a window
	// (only emptiness and disjointness pruning stays on).
	Windowed             bool
	WindowFrom, WindowTo int64
}

// maxPermutations bounds Clause.Permutations.
const maxPermutations = 1_000_000_000

// Validate reports the first field of c outside its domain: a non-finite
// threshold, alpha outside [0, 1), permutations outside [0, 1e9], a
// negative MaxQ or a window that ends before it starts. Query, QueryEncoded
// and BuildGraph run it first, so the query grammar and the JSON clause,
// which only translate names, accept and reject the same clauses.
func (c Clause) Validate() error {
	for _, v := range []struct {
		name string
		x    float64
	}{{"score", c.MinScore}, {"strength", c.MinStrength}, {"alpha", c.Alpha}, {"max_q", c.MaxQ}} {
		if math.IsNaN(v.x) || math.IsInf(v.x, 0) {
			return fmt.Errorf("core: %s must be finite, got %g", v.name, v.x)
		}
	}
	switch {
	case c.Alpha < 0 || c.Alpha >= 1:
		return fmt.Errorf("core: alpha must be in [0, 1), got %g", c.Alpha)
	case c.Permutations < 0 || c.Permutations > maxPermutations:
		return fmt.Errorf("core: permutations must be in [0, %d], got %d", maxPermutations, c.Permutations)
	case c.MaxQ < 0:
		return fmt.Errorf("core: max_q must be >= 0, got %g", c.MaxQ)
	case c.Correction != stats.None && c.Correction != stats.BH && c.Correction != stats.BY:
		return fmt.Errorf("core: correction must be none, bh or by, got %d", int(c.Correction))
	case c.Windowed && c.WindowFrom > c.WindowTo:
		return fmt.Errorf("core: time window starts after it ends (%d > %d)", c.WindowFrom, c.WindowTo)
	}
	return nil
}

// CheckTest accepts the name of the significance test a query asks for:
// "restricted", the paper's restricted Monte Carlo test and the only one the
// engine runs, or "" for it. The standard and block permutation tests were
// removed; naming one is an error that says so.
func CheckTest(name string) error {
	switch name {
	case "", "restricted":
		return nil
	case "standard", "block":
		return fmt.Errorf("core: the %s test was removed: the engine runs the restricted test only", name)
	}
	return fmt.Errorf("core: unknown test %q (want restricted)", name)
}

// Query asks for relationships between two collections of data sets
// (Section 5.3): "Find relationships between D1 and D2 satisfying clause".
// Empty Targets means "all registered data sets"; empty Sources likewise.
type Query struct {
	Sources []string
	Targets []string
	Clause  Clause
}

// Signature returns the query's canonical cache signature: the key the
// framework memoises and singleflights evaluations under (see
// querySignature). Empty Sources/Targets keep their "all data sets"
// meaning un-expanded, so the signature is corpus-independent — a stateless
// router can hash it to pick a replica and every replica's own cache key
// for the expanded query stays consistent with that choice.
func (q Query) Signature() string {
	return querySignature(q.Sources, q.Targets, q.Clause)
}

// Relationship is one statistically evaluated function pair at one
// resolution and feature class: the relationship operator's output unit.
type Relationship struct {
	Function1, Function2 string // function keys, e.g. "taxi/density@city,hour"
	Dataset1, Dataset2   string
	Spec1, Spec2         string
	Res                  Resolution
	Class                feature.Class

	Score    float64 // tau
	Strength float64 // rho

	PValue float64
	// QValue is the corrected p-value over the query's tested family
	// (Clause.Correction); it equals PValue when no correction is applied
	// and is always >= PValue otherwise.
	QValue      float64
	Significant bool
}

// String renders the relationship in the paper's reporting style.
func (r Relationship) String() string {
	s := fmt.Sprintf("%s/%s ~ %s/%s %s [%s]: tau=%.2f rho=%.2f p=%.3f",
		r.Dataset1, r.Spec1, r.Dataset2, r.Spec2, r.Res, r.Class, r.Score, r.Strength, r.PValue)
	if r.QValue != r.PValue {
		s += fmt.Sprintf(" q=%.3f", r.QValue)
	}
	return s
}

// QueryStats describes the work a query performed. A cache hit reports the
// cached run's counters with CacheHit set and the (tiny) lookup duration.
type QueryStats struct {
	PairsConsidered int // candidate (function, function, resolution, class) tuples
	Pruned          int // candidates the planner skipped without evaluation
	Evaluated       int // pairs with any feature relation
	Significant     int // pairs passing the significance test (0 under SkipSignificance)
	Kept            int // relationships returned (== Significant unless SkipSignificance)
	// NotResolvable counts the candidates the planner left out, like
	// Pruned, because their one-region test cannot reach Alpha
	// (montecarlo.Resolvable): no hypothesis, no family member.
	// PairsConsidered = Pruned + NotResolvable + the tuples planned.
	NotResolvable int
	CacheHit      bool
	// Coalesced marks a cache hit that was deduplicated against an
	// identical in-flight query: this caller waited for the concurrent
	// evaluation instead of starting its own.
	Coalesced bool
	Duration  time.Duration
	// Stages is the per-stage wall-time breakdown of the evaluation that
	// produced this result, in execution order (plan, evaluate, correct,
	// select). Cache hits carry the original run's stages, not the lookup's.
	Stages []StageTiming
}

// StageTiming is one stage of a query evaluation and its wall time.
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// addStage records one evaluation stage on the stats and on the per-stage
// latency histogram.
func (s *QueryStats) addStage(name string, d time.Duration) {
	s.Stages = append(s.Stages, StageTiming{Stage: name, Duration: d})
	mStageDuration.With(name).Observe(d.Seconds())
}

// cachedResult is one memo entry: the answer to one query signature, in
// flight until done closes. The first caller with the signature inserts it
// and evaluates; every other caller receives from done before reading it.
// involved names the data sets the query reads (for targeted invalidation
// when the corpus changes); rels and stats are the evaluation's answer, or
// err its failure. encoded is the caller's serialised form of rels
// (QueryEncoded), made on first use and dropped with the entry. The Monte
// Carlo results behind it live in the family store.
type cachedResult struct {
	done     chan struct{}
	involved map[string]bool
	rels     []Relationship
	stats    QueryStats
	err      error

	encodeOnce sync.Once
	encoded    []byte
	encodeErr  error
}

// errEvaluationPanicked is what a memo entry's waiters get when the
// evaluating caller panics.
var errEvaluationPanicked = errors.New("core: query evaluation panicked")

// Query runs the relationship operator and returns the statistically
// significant relationships satisfying the clause, together with stats.
// Results are cached per canonicalised query signature (Appendix C), and
// identical concurrent queries are deduplicated: one evaluates, the rest
// wait for its result. Query is safe to call from many goroutines once
// BuildIndex has succeeded; see the Framework concurrency contract.
//
// Callers must not mutate the returned slice: it is shared with the cache
// and with concurrent callers of the same query.
func (f *Framework) Query(q Query) ([]Relationship, QueryStats, error) {
	res, stats, err := f.query(q)
	if err != nil {
		return nil, stats, err
	}
	return res.rels, stats, nil
}

// QueryEncoded is Query for a caller that serialises the answer: encode runs
// once per cached result and its bytes are kept beside the result, so a
// cache hit encodes nothing. Every caller of one framework must pass the
// same encoding; the returned bytes are shared and must not be mutated.
func (f *Framework) QueryEncoded(q Query, encode func([]Relationship) ([]byte, error)) ([]byte, QueryStats, error) {
	res, stats, err := f.query(q)
	if err != nil {
		return nil, stats, err
	}
	res.encodeOnce.Do(func() { res.encoded, res.encodeErr = encode(res.rels) })
	return res.encoded, stats, res.encodeErr
}

// query answers q from its memo entry — done, or in flight and awaited — or
// inserts the entry and evaluates it, and returns the shared entry either
// way.
func (f *Framework) query(q Query) (*cachedResult, QueryStats, error) {
	t0 := time.Now()
	mQueries.Inc()
	f.mu.RLock()
	defer f.mu.RUnlock()
	var stats QueryStats
	if err := q.Clause.Validate(); err != nil {
		mQueryErrors.Inc()
		return nil, stats, err
	}
	if !f.indexedLocked() {
		mQueryErrors.Inc()
		return nil, stats, fmt.Errorf("core: BuildIndex must run before Query")
	}
	sources := q.Sources
	if len(sources) == 0 {
		sources = f.order
	}
	targets := q.Targets
	if len(targets) == 0 {
		targets = f.order
	}
	for _, n := range append(append([]string{}, sources...), targets...) {
		if !f.index.has(n) {
			mQueryErrors.Inc()
			return nil, stats, fmt.Errorf("core: unknown dataset %q", n)
		}
	}
	sig := querySignature(sources, targets, q.Clause)

	f.cacheMu.Lock()
	c, ok := f.cache[sig]
	if !ok {
		c = &cachedResult{done: make(chan struct{}), involved: make(map[string]bool, len(sources)+len(targets))}
		for _, n := range sources {
			c.involved[n] = true
		}
		for _, n := range targets {
			c.involved[n] = true
		}
		f.cache[sig] = c
	}
	f.cacheMu.Unlock()
	if ok {
		// While done is open an identical query is being evaluated: wait for
		// it instead of duplicating the work. The evaluating caller cannot be
		// blocked by us — it needs only the shared state lock (held by both)
		// and cacheMu, released above.
		coalesced := false
		select {
		case <-c.done:
		default:
			coalesced = true
			<-c.done
		}
		if c.err != nil {
			mQueryErrors.Inc()
			return nil, stats, c.err
		}
		stats = c.stats
		stats.CacheHit, stats.Coalesced = true, coalesced
		stats.Duration = time.Since(t0)
		mQueryCacheHits.Inc()
		if coalesced {
			mQueryCoalesced.Inc()
		}
		mQueryDuration.Observe(stats.Duration.Seconds())
		return c, stats, nil
	}

	// The evaluating caller must release its waiters even if evaluation
	// panics (a recovered handler goroutine must not wedge the signature
	// forever): a failed entry leaves the memo before done closes, so its
	// waiters get its error and the next caller evaluates again, and a
	// panic becomes the waiters' error while still propagating here.
	c.err = errEvaluationPanicked
	defer func() {
		if c.err != nil {
			f.cacheMu.Lock()
			delete(f.cache, sig)
			f.cacheMu.Unlock()
		}
		close(c.done)
	}()
	c.rels, c.stats, c.err = f.evaluateQuery(sources, targets, q.Clause, t0)
	if c.err != nil {
		mQueryErrors.Inc()
		return nil, c.stats, c.err
	}
	mQueryDuration.Observe(c.stats.Duration.Seconds())
	return c, c.stats, nil
}

// evaluateQuery plans and executes one relationship query (the evaluating
// path of Query). Its stats describe the query alone, whatever the family
// store held: the planner counters come from its own plan, and Evaluated is
// the size of the family it corrected over. The caller holds the shared
// state lock.
func (f *Framework) evaluateQuery(sources, targets []string, clause Clause, t0 time.Time) ([]Relationship, QueryStats, error) {
	var stats QueryStats

	// Planner: enumerate and prune candidate tuples (map phase of job 3).
	tStage := time.Now()
	keys := queryPairs(sources, targets)
	plans := f.planPairs(keys, clause)
	for _, pl := range plans {
		stats.PairsConsidered += pl.considered
		stats.Pruned += pl.pruned
		stats.NotResolvable += pl.notResolvable
	}
	stats.addStage("plan", time.Since(tStage))

	// Reduce phase of job 3: each pair's tested family, evaluated only
	// where the store has none under this test signature.
	tStage = time.Now()
	fams, _, err := f.testedFamilies(keys, clause, func(missing []int) []queryPlan { return pick(plans, missing) })
	if err != nil {
		return nil, stats, err
	}
	for _, fam := range fams {
		stats.Evaluated += len(fam)
	}
	stats.addStage("evaluate", time.Since(tStage))

	// Multiple-hypothesis correction across the query's tested family: every
	// evaluated pair — significant or not — contributes its p-value.
	tStage = time.Now()
	sel := selectionFromClause(clause)
	qs := qValues(fams, sel)
	stats.addStage("correct", time.Since(tStage))

	// Select, then order the rows by (Function1, Function2, Class) through
	// the function table's key ranks.
	tStage = time.Now()
	type row struct {
		order  uint64
		fa, fb uint32
		c      candidate
		q      float64
	}
	tab := f.index.table()
	var picks []row
	stats.Significant = tab.walkKept(keys, fams, qs, sel, func(fa, fb uint32, c candidate, q float64) {
		picks = append(picks, row{order: tab.Order(fa, fb, c.class), fa: fa, fb: fb, c: c, q: q})
	})
	slices.SortFunc(picks, func(x, y row) int { return cmp.Compare(x.order, y.order) })
	var out []Relationship
	if len(picks) > 0 {
		out = make([]Relationship, len(picks))
	}
	for i, p := range picks {
		a, b := tab.Function(p.fa), tab.Function(p.fb)
		out[i] = Relationship{
			Function1: a.Key, Function2: b.Key,
			Dataset1: a.Dataset, Dataset2: b.Dataset,
			Spec1: a.Spec, Spec2: b.Spec,
			Res: Resolution{Spatial: a.SRes, Temporal: a.TRes}, Class: p.c.class,
			Score: p.c.tau, Strength: p.c.rho, PValue: p.c.p(), QValue: p.q,
			Significant: sel.significant(p.q),
		}
	}
	stats.Kept = len(out)
	stats.addStage("select", time.Since(tStage))
	stats.Duration = time.Since(t0)
	return out, stats, nil
}

// queryPairs returns the unordered data set pairs a query between sources
// and targets covers, each once, in first-seen order.
func queryPairs(sources, targets []string) []graphPair {
	seen := make(map[graphPair]bool)
	var keys []graphPair
	for _, s := range sources {
		for _, t := range targets {
			if k := makeGraphPair(s, t); s != t && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// evaluatePair computes measures for one candidate pair and applies clause
// filters plus the significance test, returning the tested candidate with
// its test's counts (none under SkipSignificance) and whether it joins its
// pair's tested family (false: no feature relation, or a clause filter
// failed). The planner has left out every tuple whose test is not
// resolvable.
func (f *Framework) evaluatePair(t pairTask, clause Clause) (c candidate, inFamily bool, err error) {
	s1, s2 := t.e1.set(t.class), t.e2.set(t.class)
	all1, all2 := t.e1.union(t.class), t.e2.union(t.class)
	occ1, occ2 := t.e1.wordOcc(t.class), t.e2.wordOcc(t.class)
	n1, n2 := t.e1.occ(t.class).All, t.e2.occ(t.class).All
	if clause.Windowed {
		// Mask every feature vector to the window's vertex range; measures,
		// filters, and the significance test below all see only windowed
		// bits, so the union sizes and word occupancy are derived again.
		g := f.graphs[t.e1.Res]
		lo, hi := t.winLo*g.NumRegions(), t.winHi*g.NumRegions()
		s1 = &feature.Set{Positive: s1.Positive.MaskRange(lo, hi), Negative: s1.Negative.MaskRange(lo, hi)}
		s2 = &feature.Set{Positive: s2.Positive.MaskRange(lo, hi), Negative: s2.Negative.MaskRange(lo, hi)}
		all1, all2 = all1.MaskRange(lo, hi), all2.MaskRange(lo, hi)
		occ1, occ2 = all1.Occupied(), all2.Occupied()
		n1, n2 = all1.Count(), all2.Count()
	}
	m := relationship.Measure(s1, s2, all1, all2, occ1, occ2, n1, n2)
	if !m.Related() {
		return c, false, nil
	}
	// Clause filters run before the (expensive) significance test
	// (Section 6.1: "the query evaluation step skips the significance test
	// when C is not satisfied").
	if abs(m.Tau) < clause.MinScore || m.Rho < clause.MinStrength {
		return c, false, nil
	}
	c = candidate{posA: t.e1.pos, posB: t.e2.pos, class: t.class, tau: m.Tau, rho: m.Rho}
	if clause.SkipSignificance {
		return c, true, nil
	}
	res, err := f.runSignificance(t, clause, s1, s2, m.Tau)
	if err != nil {
		return c, false, err
	}
	c.extreme, c.visited = uint32(res.Extreme), uint32(res.Shifts)
	return c, true, nil
}

// querySignature canonicalises a query into its cache key: name lists are
// sorted and deduplicated, clause class and resolution lists likewise, and
// nil Classes is expanded to its default so that every spelling of the same
// query — [Salient, Extreme] vs [Extreme, Salient] vs nil, duplicated data
// set names, permuted resolutions — hits the same cache entry.
func querySignature(sources, targets []string, c Clause) string {
	cls := clauseClasses(c)
	clsParts := make([]string, len(cls))
	for i, cl := range cls {
		clsParts[i] = cl.String()
	}

	// nil Resolutions means "every common resolution of each pair", which
	// cannot be expanded here; it keeps its own marker.
	resStr := "all"
	if c.Resolutions != nil {
		rs := append([]Resolution{}, c.Resolutions...)
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Spatial != rs[j].Spatial {
				return rs[i].Spatial < rs[j].Spatial
			}
			return rs[i].Temporal < rs[j].Temporal
		})
		rs = slices.Compact(rs)
		parts := make([]string, len(rs))
		for i, r := range rs {
			parts[i] = r.String()
		}
		resStr = strings.Join(parts, ";")
	}
	// Non-windowed queries keep a fixed marker rather than the (meaningless)
	// from/to values, so every spelling of "no window" shares a cache entry.
	winStr := "none"
	if c.Windowed {
		winStr = fmt.Sprintf("%d:%d", c.WindowFrom, c.WindowTo)
	}
	// kind=0 is the restricted test's code and exhaustive=false the
	// adaptive early stop's, kept from when a clause could name another test
	// or turn the early stop off, so that signatures — router homes — and
	// the family-store keys snapshots carry stay what they were.
	return fmt.Sprintf("s=%s|t=%s|score=%g|strength=%g|alpha=%g|perms=%d|skip=%t|kind=0|corr=%s|maxq=%g|exhaustive=false|classes=%s|res=%s|win=%s",
		strings.Join(dedupeSorted(sources), ","), strings.Join(dedupeSorted(targets), ","),
		c.MinScore, c.MinStrength, c.Alpha, c.Permutations, c.SkipSignificance,
		c.Correction, c.MaxQ,
		strings.Join(clsParts, ";"), resStr, winStr)
}

// clauseClasses returns the feature classes a clause evaluates, sorted and
// deduplicated — both classes for nil — so every spelling of one class set
// plans the same tuples its signature names.
func clauseClasses(c Clause) []feature.Class {
	if c.Classes == nil {
		return []feature.Class{feature.Salient, feature.Extreme}
	}
	cls := slices.Clone(c.Classes)
	slices.Sort(cls)
	return slices.Compact(cls)
}

// dedupeSorted returns a sorted copy of names with duplicates removed.
func dedupeSorted(names []string) []string {
	out := append([]string{}, names...)
	sort.Strings(out)
	return slices.Compact(out)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
