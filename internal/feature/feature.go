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
	"sort"

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
// (one per distinct seasonal interval), lookups are binary searches, and a
// snapshot decoder can batch thousands of them in one backing array.
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

// Extractor computes feature sets for one scalar function. It owns the
// function's join and split trees, so constructing it once and extracting
// both salient and extreme features amortises the index build.
type Extractor struct {
	fn    *scalar.Function
	join  *topology.Tree
	split *topology.Tree
	th    Thresholds

	// salient extrema recorded during threshold computation, used both for
	// extreme thresholds and for diagnostics.
	salientMaxVals []float64
	salientMinVals []float64

	stepSeason []int // step index -> season key
}

// NewExtractor builds the merge-tree index of f and computes all feature
// thresholds (salient per season, extreme global). NaN values — which the
// scalar computation never produces, but hand-built functions may contain —
// are imputed with the mean of the defined values, mirroring the scalar
// package's missing-data rule, so they read as "normal" and never become
// features.
func NewExtractor(f *scalar.Function) *Extractor {
	f = sanitize(f)
	join, split := topology.ComputeBoth(f.Graph, f.Values)
	return NewExtractorWithTrees(f, join, split)
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
	e := &Extractor{
		fn:    f,
		join:  join,
		split: split,
	}
	e.stepSeason = make([]int, f.Timeline.Len())
	for s := 0; s < f.Timeline.Len(); s++ {
		e.stepSeason[s] = f.Timeline.SeasonOf(s)
	}
	e.th.PosBySeason, e.salientMaxVals = e.seasonThresholds(e.join)
	e.th.NegBySeason, e.salientMinVals = e.seasonThresholds(e.split)
	e.th.ExtremePos = extremeThreshold(e.salientMaxVals, true)
	e.th.ExtremeNeg = extremeThreshold(e.salientMinVals, false)
	return e
}

// Function returns the scalar function being indexed.
func (e *Extractor) Function() *scalar.Function { return e.fn }

// Thresholds returns the computed thresholds.
func (e *Extractor) Thresholds() Thresholds { return e.th }

// JoinTree exposes the join tree (for diagnostics and benchmarks).
func (e *Extractor) JoinTree() *topology.Tree { return e.join }

// SplitTree exposes the split tree.
func (e *Extractor) SplitTree() *topology.Tree { return e.split }

// seasonThresholds computes the per-season salient threshold from the
// persistence of the tree's extrema, and collects the function values of
// the salient extrema across all seasons.
//
// For a join tree, the threshold for a season is the smallest function
// value among its high-persistence maxima (so every such maximum is
// captured by the super-level set); for a split tree it is, symmetrically,
// the largest value among high-persistence minima. The two-means split
// follows Section 3.3; when clustering cannot separate (one extremum, or
// all persistences equal), the most persistent extrema are used if they
// stand out, otherwise the season yields no salient features.
func (e *Extractor) seasonThresholds(tree *topology.Tree) (SeasonThresholds, []float64) {
	type leafInfo struct {
		value       float64
		persistence float64
	}
	bySeason := map[int][]leafInfo{}
	for i, leaf := range tree.Leaves {
		_, step := e.fn.Graph.RegionStep(leaf)
		season := e.stepSeason[step]
		bySeason[season] = append(bySeason[season], leafInfo{
			value:       e.fn.Values[leaf],
			persistence: tree.Pairs[i].Persistence,
		})
	}
	out := make(SeasonThresholds, 0, len(bySeason))
	var salientVals []float64
	for season, leaves := range bySeason {
		pers := make([]float64, len(leaves))
		for i, l := range leaves {
			pers[i] = l.persistence
		}
		high, _, highMin := mathx.TwoMeans(pers)
		threshold := math.NaN()
		if math.IsNaN(highMin) {
			// Degenerate: all persistences identical. A flat function
			// (persistence 0) has no salient features; otherwise every
			// extremum is equally persistent and all are salient.
			if len(pers) > 0 && pers[0] > 0 {
				for i := range high {
					high[i] = true
				}
			}
		}
		for i, l := range leaves {
			if !high[i] {
				continue
			}
			if math.IsNaN(threshold) {
				threshold = l.value
			} else if tree.Kind() == topology.Join {
				threshold = math.Min(threshold, l.value)
			} else {
				threshold = math.Max(threshold, l.value)
			}
			salientVals = append(salientVals, l.value)
		}
		out = append(out, SeasonTheta{Season: season, Theta: threshold})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Season < out[j].Season })
	return out, salientVals
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
	switch class {
	case Salient:
		e.extractSeasonal(e.join, e.th.PosBySeason, set.Positive)
		e.extractSeasonal(e.split, e.th.NegBySeason, set.Negative)
	case Extreme:
		if !math.IsNaN(e.th.ExtremePos) {
			e.join.LevelSet(e.th.ExtremePos, set.Positive)
			if float64(set.Positive.Count()) > MaxSeasonCoverage*float64(n) {
				set.Positive.Reset() // outliers cannot be the majority
			}
		}
		if !math.IsNaN(e.th.ExtremeNeg) {
			e.split.LevelSet(e.th.ExtremeNeg, set.Negative)
			if float64(set.Negative.Count()) > MaxSeasonCoverage*float64(n) {
				set.Negative.Reset()
			}
		}
	}
	return set
}

// ExtractWithThresholds bypasses automatic threshold computation and
// extracts features at user-provided thresholds (clause-specified
// thresholds, Section 5.3). NaN skips that sign.
func (e *Extractor) ExtractWithThresholds(thetaPos, thetaNeg float64) *Set {
	n := e.fn.Graph.NumVertices()
	set := &Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	if !math.IsNaN(thetaPos) {
		e.join.LevelSet(thetaPos, set.Positive)
	}
	if !math.IsNaN(thetaNeg) {
		e.split.LevelSet(thetaNeg, set.Negative)
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
// The batch extraction runs as two linear passes over the vertices — exact
// by the level-set definition and O(|V|) overall regardless of how many
// seasonal intervals exist. (The output-sensitive merge-tree query remains
// the path for interactive, user-supplied thresholds.)
func (e *Extractor) extractSeasonal(tree *topology.Tree, bySeason SeasonThresholds, out *bitvec.Vector) {
	if len(bySeason) == 0 {
		return
	}
	nRegions := e.fn.Graph.NumRegions()
	// slot[step] indexes the step's season in bySeason; -1 = no threshold.
	slot := make([]int, len(e.stepSeason))
	size := make([]int, len(bySeason))
	for step, season := range e.stepSeason {
		i := bySeason.find(season)
		if i >= 0 && math.IsNaN(bySeason[i].Theta) {
			i = -1
		}
		if i >= 0 {
			size[i] += nRegions
		}
		slot[step] = i
	}
	// A vertex is in the level set when lo <= value <= hi: [theta, +Inf]
	// for a join tree, [-Inf, theta] for a split tree.
	bounds := func(theta float64) (lo, hi float64) {
		if tree.Kind() == topology.Join {
			return theta, math.Inf(1)
		}
		return math.Inf(-1), theta
	}
	hits := make([]int, len(bySeason))
	for step, i := range slot {
		if i < 0 {
			continue
		}
		lo, hi := bounds(bySeason[i].Theta)
		for _, x := range e.fn.Values[step*nRegions : (step+1)*nRegions] {
			if x >= lo && x <= hi {
				hits[i]++
			}
		}
	}
	for step, i := range slot {
		if i < 0 || float64(hits[i]) > MaxSeasonCoverage*float64(size[i]) {
			continue // no threshold, or the level set is the norm, not a deviation
		}
		lo, hi := bounds(bySeason[i].Theta)
		base := step * nRegions
		for r, x := range e.fn.Values[base : base+nRegions] {
			if x >= lo && x <= hi {
				out.Set(base + r)
			}
		}
	}
}

// String summarises the extractor for diagnostics.
func (e *Extractor) String() string {
	return fmt.Sprintf("extractor(%s: %d maxima, %d minima, %d seasons)",
		e.fn.Key(), len(e.join.Leaves), len(e.split.Leaves), len(e.th.PosBySeason))
}
