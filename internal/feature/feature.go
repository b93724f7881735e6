// Package feature implements step 2 of the Data Polygamy pipeline —
// Feature Identification (Sections 2.1, 3.2 and 3.3 of the paper).
//
// A feature set classifies every spatio-temporal point of a scalar function
// as a positive feature (super-level set above theta+), a negative feature
// (sub-level set below theta-), or normal. Thresholds are computed
// automatically and per seasonal interval: the persistence values of the
// extrema in each interval are clustered with two-means, and the threshold
// is placed so that every high-persistence extremum becomes salient.
// Extreme features use the box-plot outlier rule (Q1 - 1.5 IQR for minima,
// Q3 + 1.5 IQR for maxima) over the salient extrema across all intervals.
package feature

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/mathx"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/topology"
)

// Class selects which feature family to extract.
type Class int

const (
	// Salient features deviate from normal behaviour within their seasonal
	// interval (Section 3.3, "Thresholds for Salient Features").
	Salient Class = iota
	// Extreme features are outliers among the salient features, such as
	// hurricane-level wind speeds (Section 3.3, "Thresholds for Extreme
	// Features").
	Extreme
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Salient {
		return "salient"
	}
	return "extreme"
}

// Set holds the positive and negative features of one scalar function as
// bit vectors over the vertices of its domain graph.
type Set struct {
	Positive *bitvec.Vector
	Negative *bitvec.Vector
}

// NumVertices returns the length of the underlying bit vectors.
func (s *Set) NumVertices() int { return s.Positive.Len() }

// All returns the union of positive and negative features (the set Sigma_i).
func (s *Set) All() *bitvec.Vector { return s.Positive.Or(s.Negative) }

// AnyRange reports whether a feature of either sign lies in [from, to).
func (s *Set) AnyRange(from, to int) bool {
	return s.Positive.AnyRange(from, to) || s.Negative.AnyRange(from, to)
}

// Count returns (#positive, #negative).
func (s *Set) Count() (int, int) { return s.Positive.Count(), s.Negative.Count() }

// SeasonTheta pairs a seasonal interval key with the salient threshold
// computed for that season.
type SeasonTheta struct {
	Season int
	Theta  float64
}

// SeasonThresholds lists per-season salient thresholds in ascending Season
// order. A plain sorted slice rather than a map: season counts are tiny
// (one per distinct seasonal interval) and lookups are binary searches.
// They live only while one function is extracted: the index keeps the
// features, not the thresholds.
type SeasonThresholds []SeasonTheta

// find returns the index of season in s, or -1.
func (s SeasonThresholds) find(season int) int {
	i, ok := sort.Find(len(s), func(i int) int { return season - s[i].Season })
	if !ok {
		return -1
	}
	return i
}

// Theta returns the threshold for season, if one was computed.
func (s SeasonThresholds) Theta(season int) (float64, bool) {
	i := s.find(season)
	if i < 0 {
		return 0, false
	}
	return s[i].Theta, true
}

// Thresholds records the automatically computed feature thresholds of one
// function: per-season salient thresholds and global extreme thresholds.
// NaN means "no threshold" (no features of that sign).
type Thresholds struct {
	// PosBySeason holds theta+ per seasonal interval, sorted by season.
	PosBySeason SeasonThresholds
	// NegBySeason holds theta- per seasonal interval, sorted by season.
	NegBySeason SeasonThresholds
	// ExtremePos is the global Q3 + 1.5*IQR outlier threshold over salient
	// maxima values; ExtremeNeg is Q1 - 1.5*IQR over salient minima values.
	ExtremePos float64
	ExtremeNeg float64
}

// Extractor computes feature sets for one scalar function. Constructing it
// sweeps the function's join and split trees once and keeps what feature
// extraction needs — the thresholds and the trees' counts, not the trees —
// so extracting both salient and extreme features amortises the index
// build.
type Extractor struct {
	fn *scalar.Function
	th Thresholds
	// maxima and minima count the leaves of the join and the split tree;
	// critical counts the critical points of both.
	maxima, minima, critical int

	// Seasons are contiguous step ranges: season i has key seasons[i] and
	// covers steps [seasonStart[i], seasonStart[i+1]).
	seasons     []int
	seasonStart []int
}

// scratch is the working memory of one extractor construction or
// extraction, reused through scratchPool: the extrema of both merge trees
// (NewExtractor), the season slots seasonThresholds groups one tree's
// extrema into, and the words of one level set (Extract).
type scratch struct {
	join, split  topology.Extrema
	at, seasonOf []int
	values, pers []float64
	salient      []float64 // the values of the salient extrema
	words        []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// NewExtractor builds the merge-tree index of f and computes all feature
// thresholds (salient per season, extreme global). NaN values — which the
// scalar computation never produces, but hand-built functions may contain —
// are imputed with the mean of the defined values, mirroring the scalar
// package's missing-data rule, so they read as "normal" and never become
// features.
func NewExtractor(f *scalar.Function) *Extractor {
	f = sanitize(f)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	topology.Persistence(f.Graph, f.Values, &sc.join, &sc.split)
	return newExtractor(f, &sc.join, &sc.split, sc)
}

// sanitize returns f unchanged when it has no NaN values; otherwise a copy
// with NaNs replaced by the mean of the remaining values.
func sanitize(f *scalar.Function) *scalar.Function {
	var sum float64
	var n int
	hasNaN := false
	for _, v := range f.Values {
		if math.IsNaN(v) {
			hasNaN = true
		} else {
			sum += v
			n++
		}
	}
	if !hasNaN {
		return f
	}
	fill := 0.0
	if n > 0 {
		fill = sum / float64(n)
	}
	clean := *f
	clean.Values = append([]float64(nil), f.Values...)
	for i, v := range clean.Values {
		if math.IsNaN(v) {
			clean.Values[i] = fill
		}
	}
	return &clean
}

// NewExtractorWithTrees is like NewExtractor but reuses caller-built merge
// trees (which must be the join and split trees of f), so index creation
// and threshold/feature computation can be timed separately.
func NewExtractorWithTrees(f *scalar.Function, join, split *topology.Tree) *Extractor {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return newExtractor(f, &join.Extrema, &split.Extrema, sc)
}

// newExtractor computes the thresholds of f from the extrema of its join
// and split tree.
func newExtractor(f *scalar.Function, join, split *topology.Extrema, sc *scratch) *Extractor {
	e := &Extractor{
		fn:       f,
		maxima:   len(join.Leaves),
		minima:   len(split.Leaves),
		critical: join.Critical + split.Critical,
	}
	tl := f.Timeline
	for step := 0; step < tl.Len(); {
		key := tl.SeasonOf(step)
		e.seasons = append(e.seasons, key)
		e.seasonStart = append(e.seasonStart, step)
		step += sort.Search(tl.Len()-step, func(i int) bool { return tl.SeasonOf(step+i) != key })
	}
	e.seasonStart = append(e.seasonStart, tl.Len())
	e.th.PosBySeason, e.th.ExtremePos = e.seasonThresholds(topology.Join, join, sc)
	e.th.NegBySeason, e.th.ExtremeNeg = e.seasonThresholds(topology.Split, split, sc)
	return e
}

// Function returns the scalar function being indexed.
func (e *Extractor) Function() *scalar.Function { return e.fn }

// Thresholds returns the computed thresholds.
func (e *Extractor) Thresholds() Thresholds { return e.th }

// CriticalPoints returns the number of critical points of the function's
// join and split trees together (the index size).
func (e *Extractor) CriticalPoints() int { return e.critical }

// seasonThresholds computes the per-season salient threshold from the
// persistence of one tree's extrema x, and from the function values of the
// salient extrema across all seasons the tree's extreme threshold.
//
// For a join tree, the threshold for a season is the smallest function
// value among its high-persistence maxima (so every such maximum is
// captured by the super-level set); for a split tree it is, symmetrically,
// the largest value among high-persistence minima. The two-means split
// follows Section 3.3; when clustering cannot separate (one extremum, or
// all persistences equal), the most persistent extrema are used if they
// stand out, otherwise the season yields no salient features.
func (e *Extractor) seasonThresholds(kind topology.Kind, x *topology.Extrema, sc *scratch) (SeasonThresholds, float64) {
	// Group the leaves by season into flat slots, in tree order within a
	// season: a counting sort on the season index.
	nSeasons, n := len(e.seasons), len(x.Leaves)
	sc.at = append(sc.at[:0], make([]int, nSeasons+1)...)
	sc.seasonOf = slices.Grow(sc.seasonOf[:0], n)[:n]
	at, seasonOf := sc.at, sc.seasonOf
	for i, leaf := range x.Leaves {
		_, step := e.fn.Graph.RegionStep(int(leaf))
		si := sort.SearchInts(e.seasonStart, step+1) - 1
		seasonOf[i] = si
		at[si+1]++
	}
	for si := 0; si < nSeasons; si++ {
		at[si+1] += at[si]
	}
	sc.values, sc.pers = slices.Grow(sc.values[:0], n)[:n], slices.Grow(sc.pers[:0], n)[:n]
	values, pers := sc.values, sc.pers
	for i, leaf := range x.Leaves {
		p := at[seasonOf[i]]
		at[seasonOf[i]]++
		values[p], pers[p] = e.fn.Values[leaf], x.Persistence[i]
	}
	// Each at[si] has moved to the end of season si: the start of si+1.

	var out SeasonThresholds
	salient := sc.salient[:0]
	for si, season := range e.seasons {
		lo, hi := 0, at[si]
		if si > 0 {
			lo = at[si-1]
		}
		if lo == hi {
			continue // no extremum in this season
		}
		high, _, highMin := mathx.TwoMeans(pers[lo:hi])
		threshold := math.NaN()
		if math.IsNaN(highMin) {
			// Degenerate: all persistences identical. A flat function
			// (persistence 0) has no salient features; otherwise every
			// extremum is equally persistent and all are salient.
			if pers[lo] > 0 {
				for i := range high {
					high[i] = true
				}
			}
		}
		for i, v := range values[lo:hi] {
			if !high[i] {
				continue
			}
			if math.IsNaN(threshold) {
				threshold = v
			} else if kind == topology.Join {
				threshold = math.Min(threshold, v)
			} else {
				threshold = math.Max(threshold, v)
			}
			salient = append(salient, v)
		}
		out = append(out, SeasonTheta{Season: season, Theta: threshold})
	}
	sc.salient = salient
	return out, extremeThreshold(salient, kind == topology.Join)
}

// extremeThreshold applies the box-plot outlier rule to the salient
// extrema values: Q3 + 1.5*IQR for maxima (pos == true), Q1 - 1.5*IQR for
// minima. NaN when there are no salient extrema.
func extremeThreshold(vals []float64, pos bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	q1, _, q3 := mathx.Quartiles(vals)
	iqr := q3 - q1
	if pos {
		return q3 + 1.5*iqr
	}
	return q1 - 1.5*iqr
}

// Extract returns the feature set of the requested class.
//
// Salient features are computed per seasonal interval: the level set at the
// season's threshold, masked to the season's time steps. Extreme features
// use the single global outlier threshold.
func (e *Extractor) Extract(class Class) *Set {
	n := e.fn.Graph.NumVertices()
	set := &Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	switch class {
	case Salient:
		e.extractSeasonal(topology.Join, e.th.PosBySeason, set.Positive, sc)
		e.extractSeasonal(topology.Split, e.th.NegBySeason, set.Negative, sc)
	case Extreme:
		// Outliers cannot be the majority.
		e.markLevelSet(topology.Join, e.th.ExtremePos, 0, n, set.Positive, sc)
		e.markLevelSet(topology.Split, e.th.ExtremeNeg, 0, n, set.Negative, sc)
	}
	return set
}

// MaxSeasonCoverage caps the fraction of a seasonal interval that may be
// classified as features of one sign. Salient features are defined as
// deviations from normal behaviour (Section 2.1); when a threshold's level
// set covers most of an interval — as happens for zero-inflated signals
// like precipitation, whose "minima" are entire dry spells — the set
// describes the norm, not a deviation, and is discarded for that season.
const MaxSeasonCoverage = 0.5

// extractSeasonal marks the features of one sign: for each seasonal
// interval, the vertices beyond the season's threshold (the super-level set
// for join trees, sub-level set for split trees, restricted to the season's
// steps). A season whose level set covers more than MaxSeasonCoverage of
// the interval is skipped (see the constant's doc).
//
// Level sets are marked by a linear scan over the values, not by a flood
// through the merge tree: exact by the level-set definition, O(|V|)
// whatever the number of seasons, and it reaches every component of a
// disconnected domain, including one whose oldest extremum no saddle pairs
// (that extremum is not a tree leaf, so a flood from the leaves misses it).
func (e *Extractor) extractSeasonal(kind topology.Kind, bySeason SeasonThresholds, out *bitvec.Vector, sc *scratch) {
	nRegions := e.fn.Graph.NumRegions()
	for si, season := range e.seasons {
		if theta, ok := bySeason.Theta(season); ok {
			e.markLevelSet(kind, theta, e.seasonStart[si]*nRegions, e.seasonStart[si+1]*nRegions, out, sc)
		}
	}
}

// markLevelSet ORs into out the level set at theta of the function's
// vertices [lo, hi) — f >= theta for a join tree, f <= theta for a split
// tree — unless it covers more than MaxSeasonCoverage of them (see the
// constant's doc). A NaN theta marks nothing. Each word of the set is
// built from up to 64 comparisons in sc.words, aligned with out's words,
// and counted there; out is written only once the count is known.
func (e *Extractor) markLevelSet(kind topology.Kind, theta float64, lo, hi int, out *bitvec.Vector, sc *scratch) {
	if math.IsNaN(theta) || lo == hi {
		return
	}
	shift := lo % 64
	words := slices.Grow(sc.words[:0], bitvec.NumWords(shift+hi-lo))[:bitvec.NumWords(shift+hi-lo)]
	sc.words = words
	vals, count := e.fn.Values[lo:hi], 0
	for j := range words {
		chunk := vals[:min(len(vals), 64-shift)]
		var w uint64
		if kind == topology.Join {
			for b, x := range chunk {
				if x >= theta {
					w |= 1 << (shift + b)
				}
			}
		} else {
			for b, x := range chunk {
				if x <= theta {
					w |= 1 << (shift + b)
				}
			}
		}
		words[j], count = w, count+bits.OnesCount64(w)
		vals, shift = vals[len(chunk):], 0
	}
	if float64(count) > MaxSeasonCoverage*float64(hi-lo) {
		return // the level set is the norm, not a deviation
	}
	dst := out.Words()[lo/64:]
	for j, w := range words {
		dst[j] |= w
	}
}

// String summarises the extractor for diagnostics.
func (e *Extractor) String() string {
	return fmt.Sprintf("extractor(%s: %d maxima, %d minima, %d seasons)",
		e.fn.Key(), e.maxima, e.minima, len(e.th.PosBySeason))
}
