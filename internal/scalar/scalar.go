// Package scalar implements step 1 of the Data Polygamy pipeline — Data Set
// Transformation (Sections 2.1 and 5.1 of the paper). Each (data set,
// attribute) pair at each viable spatio-temporal resolution becomes a
// time-varying scalar function f : [S x T] -> R, represented as a
// piecewise-linear function on the spatio-temporal domain graph.
//
// Two families of functions are derived from a data set:
//
//   - count functions capture activity: density (tuples per spatio-temporal
//     point) and unique (distinct identifiers per point);
//   - attribute functions capture per-attribute behaviour; the default
//     aggregate is the average, with sum/min/max/median available as the
//     extensions Section 8 describes.
package scalar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/mathx"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Kind distinguishes count functions from attribute functions.
type Kind int

const (
	// Density counts the tuples at each spatio-temporal point.
	Density Kind = iota
	// Unique counts distinct tuple identifiers at each point.
	Unique
	// Attribute aggregates one numerical attribute at each point.
	Attribute
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Density:
		return "density"
	case Unique:
		return "unique"
	case Attribute:
		return "attribute"
	default:
		return fmt.Sprintf("scalar.Kind(%d)", int(k))
	}
}

// Agg selects the aggregate used by attribute functions.
type Agg int

const (
	// Avg is the paper's default attribute aggregate.
	Avg Agg = iota
	// Sum totals the attribute per point.
	Sum
	// Min takes the minimum per point.
	Min
	// Max takes the maximum per point.
	Max
	// MedianAgg takes the median per point.
	MedianAgg
	// Custom applies a user-provided aggregate (Spec.CustomFn), the
	// "users can define custom functions" extension of Section 8.
	Custom
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case Avg:
		return "avg"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case MedianAgg:
		return "median"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("scalar.Agg(%d)", int(a))
	}
}

// Spec identifies one scalar function of a data set, independent of
// resolution: which kind, and for attribute functions which attribute and
// aggregate.
type Spec struct {
	Kind Kind
	Attr string // attribute name; only for Kind == Attribute
	Agg  Agg    // aggregate; only for Kind == Attribute

	// CustomFn and CustomName define a user-provided aggregate when Agg ==
	// Custom (Section 8): CustomFn folds the attribute values of one
	// spatio-temporal point into the function value.
	CustomFn   func([]float64) float64
	CustomName string
}

// Name returns the function name, e.g. "density", "unique", "avg_fare".
func (s Spec) Name() string {
	if s.Kind == Attribute {
		if s.Agg == Custom && s.CustomName != "" {
			return s.CustomName + "_" + s.Attr
		}
		return s.Agg.String() + "_" + s.Attr
	}
	return s.Kind.String()
}

// Specs enumerates every scalar function derived from a data set: one
// density function, one unique function when identifiers exist, and one
// average attribute function per numerical attribute (Section 5.1).
func Specs(d *dataset.Dataset) []Spec {
	out := []Spec{{Kind: Density}}
	if d.HasID {
		out = append(out, Spec{Kind: Unique})
	}
	for _, a := range d.Attrs {
		out = append(out, Spec{Kind: Attribute, Attr: a, Agg: Avg})
	}
	return out
}

// Function is a time-varying scalar function sampled on the vertices of its
// spatio-temporal domain graph, in step-major order: the value at (region
// x, step z) is Values[z*NumRegions+x].
type Function struct {
	Dataset string
	Spec    Spec
	// Derived names a transformation applied on top of the spec (e.g.
	// "grad" for gradient functions, Section 8); empty for plain functions.
	Derived string

	SRes spatial.Resolution
	TRes temporal.Resolution

	Timeline *temporal.Timeline
	Graph    *stgraph.Graph

	Values []float64
	// Observed marks vertices where at least one tuple contributed; the
	// remaining vertices were imputed (zero for count functions, the global
	// mean for attribute functions).
	Observed []bool
}

// Name returns the function's name: the spec name, prefixed by the
// derivation when present (e.g. "grad_density").
func (f *Function) Name() string {
	if f.Derived != "" {
		return f.Derived + "_" + f.Spec.Name()
	}
	return f.Spec.Name()
}

// Key uniquely identifies the function within a corpus.
func (f *Function) Key() string {
	return fmt.Sprintf("%s/%s@%s,%s", f.Dataset, f.Name(), f.SRes, f.TRes)
}

// Value returns the function value at (region, step).
func (f *Function) Value(region, step int) float64 {
	return f.Values[f.Graph.Vertex(region, step)]
}

// Compute transforms a data set into the scalar function described by spec
// at the evaluation resolution (sres, tres). The city provides the region
// partition; sres must be a polygon resolution the data can be converted to
// and tres a temporal resolution its timestamps can be aggregated into.
func Compute(d *dataset.Dataset, spec Spec, city *spatial.CityMap, sres spatial.Resolution, tres temporal.Resolution) (*Function, error) {
	attrIdx, err := checkRequest(d, spec, sres, tres)
	if err != nil {
		return nil, err
	}
	minTS, maxTS, ok := d.TimeRange()
	if !ok {
		return nil, fmt.Errorf("scalar: %s is empty", d.Name)
	}
	tl, err := temporal.NewTimeline(minTS, maxTS, tres)
	if err != nil {
		return nil, err
	}
	return computeOnTimeline(d, spec, attrIdx, city, sres, tl)
}

// ComputeOnTimeline is like Compute but uses a caller-provided timeline,
// which lets several functions (e.g. year-split halves of a data set) share
// identical step indexing.
func ComputeOnTimeline(d *dataset.Dataset, spec Spec, city *spatial.CityMap, sres spatial.Resolution, tres temporal.Resolution, tl *temporal.Timeline) (*Function, error) {
	attrIdx, err := checkRequest(d, spec, sres, tres)
	if err != nil {
		return nil, err
	}
	if tl.Res() != tres {
		return nil, fmt.Errorf("scalar: timeline resolution %s does not match %s", tl.Res(), tres)
	}
	return computeOnTimeline(d, spec, attrIdx, city, sres, tl)
}

func computeOnTimeline(d *dataset.Dataset, spec Spec, attrIdx int, city *spatial.CityMap, sres spatial.Resolution, tl *temporal.Timeline) (*Function, error) {
	nRegions := city.NumRegions(sres)
	g, err := stgraph.New(nRegions, tl.Len(), city.Adjacency(sres))
	if err != nil {
		return nil, err
	}
	return computeOnDomain(d, spec, attrIdx, city, sres, tl, g)
}

// ComputeOnDomain is like ComputeOnTimeline but additionally reuses a
// caller-provided domain graph (which must match the city's adjacency at
// sres and the timeline length), letting a corpus share one graph per
// resolution.
func ComputeOnDomain(d *dataset.Dataset, spec Spec, city *spatial.CityMap, sres spatial.Resolution, tres temporal.Resolution, tl *temporal.Timeline, g *stgraph.Graph) (*Function, error) {
	attrIdx, err := checkRequest(d, spec, sres, tres)
	if err != nil {
		return nil, err
	}
	if tl.Res() != tres {
		return nil, fmt.Errorf("scalar: timeline resolution %s does not match %s", tl.Res(), tres)
	}
	if g.NumRegions() != city.NumRegions(sres) || g.NumSteps() != tl.Len() {
		return nil, fmt.Errorf("scalar: domain graph %dx%d does not match city/timeline %dx%d",
			g.NumRegions(), g.NumSteps(), city.NumRegions(sres), tl.Len())
	}
	return computeOnDomain(d, spec, attrIdx, city, sres, tl, g)
}

// checkRequest checks what the Compute entry points share — the data set's
// schema, the resolutions, the spec — and returns the attribute index of an
// attribute spec (-1 otherwise). The per-tuple checks run in the binning
// loop of computeOnDomain, the one pass over the tuples.
func checkRequest(d *dataset.Dataset, spec Spec, sres spatial.Resolution, tres temporal.Resolution) (int, error) {
	if err := d.ValidateSchema(); err != nil {
		return -1, err
	}
	if sres == spatial.GPS {
		return -1, fmt.Errorf("scalar: relationships are never evaluated at GPS resolution")
	}
	if !d.SpatialRes.ConvertibleTo(sres) {
		return -1, fmt.Errorf("scalar: %s spatial resolution %s not convertible to %s", d.Name, d.SpatialRes, sres)
	}
	if !d.TemporalRes.ConvertibleTo(tres) {
		return -1, fmt.Errorf("scalar: %s temporal resolution %s not convertible to %s", d.Name, d.TemporalRes, tres)
	}
	if spec.Kind == Unique && !d.HasID {
		return -1, fmt.Errorf("scalar: %s has no identifier attribute for the unique function", d.Name)
	}
	attrIdx := -1
	if spec.Kind == Attribute {
		if attrIdx = d.AttrIndex(spec.Attr); attrIdx < 0 {
			return -1, fmt.Errorf("scalar: %s has no attribute %q", d.Name, spec.Attr)
		}
	}
	return attrIdx, nil
}

// scratch is computeOnDomain's working memory, reused across calls through
// scratchPool: the running aggregates of attribute functions and the
// (vertex, id) observations of unique functions. Only the Function escapes.
type scratch struct {
	sums, cnts []float64
	uniq       []vertexID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// aggregates returns zeroed sums and counts for n vertices.
func (s *scratch) aggregates(n int) (sums, cnts []float64) {
	if cap(s.sums) < n {
		s.sums, s.cnts = make([]float64, n), make([]float64, n)
	}
	sums, cnts = s.sums[:n], s.cnts[:n]
	clear(sums)
	clear(cnts)
	return sums, cnts
}

func computeOnDomain(d *dataset.Dataset, spec Spec, attrIdx int, city *spatial.CityMap, sres spatial.Resolution, tl *temporal.Timeline, g *stgraph.Graph) (*Function, error) {
	n := g.NumVertices()
	f := &Function{
		Dataset:  d.Name,
		Spec:     spec,
		SRes:     sres,
		TRes:     tl.Res(),
		Timeline: tl,
		Graph:    g,
		Values:   make([]float64, n),
		Observed: make([]bool, n),
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Unique functions count distinct IDs per vertex: (vertex, id) pairs are
	// collected flat and sorted once, instead of one hash set per vertex —
	// a single buffer in place of one map per observed vertex plus its
	// growth, which dominated the whole indexing pipeline's allocations.
	var uniq []vertexID
	var sums, cnts []float64 // running sum (Avg, Sum) or extreme (Min, Max)
	var samples [][]float64
	switch spec.Kind {
	case Unique:
		uniq = sc.uniq[:0]
	case Attribute:
		switch spec.Agg {
		case Avg, Sum, Min, Max:
			sums, cnts = sc.aggregates(n)
		case MedianAgg, Custom:
			samples = make([][]float64, n)
		}
	}

	polygon := d.SpatialRes != spatial.GPS
	for i := range d.Tuples {
		tup := &d.Tuples[i]
		if len(tup.Values) != len(d.Attrs) || polygon && tup.Region < 0 {
			return nil, d.ValidateTuple(i)
		}
		region := regionOf(d, tup, city, sres)
		if region < 0 {
			continue
		}
		step := tl.Index(tup.TS)
		if step < 0 {
			continue
		}
		v := g.Vertex(region, step)
		switch spec.Kind {
		case Density:
			f.Values[v]++
			f.Observed[v] = true
		case Unique:
			uniq = append(uniq, vertexID{v: v, id: tup.ID})
			f.Observed[v] = true
		case Attribute:
			x := tup.Values[attrIdx]
			if dataset.IsMissing(x) {
				continue
			}
			switch spec.Agg {
			case Avg, Sum:
				sums[v] += x
				cnts[v]++
			case Min:
				if cnts[v] == 0 || x < sums[v] {
					sums[v] = x
				}
				cnts[v]++
			case Max:
				if cnts[v] == 0 || x > sums[v] {
					sums[v] = x
				}
				cnts[v]++
			case MedianAgg, Custom:
				samples[v] = append(samples[v], x)
			}
			f.Observed[v] = true
		}
	}

	switch spec.Kind {
	case Unique:
		sortVertexIDs(uniq)
		for i, p := range uniq {
			if i > 0 && uniq[i-1] == p {
				continue
			}
			f.Values[p.v]++
		}
		sc.uniq = uniq[:0]
	case Attribute:
		finishAttribute(f, spec, sums, cnts, samples)
	}
	return f, nil
}

// vertexID is one (vertex, tuple ID) observation of a Unique function.
type vertexID struct {
	v  int
	id int64
}

func sortVertexIDs(s []vertexID) {
	slices.SortFunc(s, func(a, b vertexID) int {
		if a.v != b.v {
			return a.v - b.v
		}
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
}

// finishAttribute finalises attribute aggregates and imputes unobserved
// vertices with the global mean so the function stays Morse-friendly:
// imputed points sit at "normal" level and never become salient features.
func finishAttribute(f *Function, spec Spec, sums, cnts []float64, samples [][]float64) {
	sum, observed := 0.0, 0 // mathx.Mean of the observed values, in vertex order
	for v := range f.Values {
		if !f.Observed[v] {
			continue
		}
		switch spec.Agg {
		case Avg:
			f.Values[v] = sums[v] / cnts[v]
		case Sum:
			f.Values[v] = sums[v]
		case Min, Max:
			f.Values[v] = sums[v]
		case MedianAgg:
			f.Values[v] = mathx.Median(samples[v])
		case Custom:
			f.Values[v] = spec.CustomFn(samples[v])
		}
		sum += f.Values[v]
		observed++
	}
	fill := 0.0
	if observed > 0 {
		fill = sum / float64(observed)
	}
	for v := range f.Values {
		if !f.Observed[v] {
			f.Values[v] = fill
		}
	}
}

// regionOf maps a tuple to its region at the evaluation resolution, or -1
// if the tuple cannot be placed (outside the city, or incompatible
// native/evaluation resolutions).
func regionOf(d *dataset.Dataset, tup *dataset.Tuple, city *spatial.CityMap, sres spatial.Resolution) int {
	switch d.SpatialRes {
	case spatial.GPS:
		return city.RegionOf(spatial.Point{X: tup.X, Y: tup.Y}, sres)
	case sres:
		if tup.Region >= city.NumRegions(sres) {
			return -1
		}
		return tup.Region
	default:
		if sres == spatial.City {
			return 0
		}
		return -1
	}
}

// CitySeries extracts the 1-D time series of a city-resolution function
// (region 0 across all steps); it errs when the function is not at city
// resolution.
func (f *Function) CitySeries() ([]float64, error) {
	if f.SRes != spatial.City {
		return nil, fmt.Errorf("scalar: %s is at %s resolution, not city", f.Key(), f.SRes)
	}
	return append([]float64(nil), f.Values...), nil
}

// IQR returns the inter-quartile range of the function values.
func (f *Function) IQR() float64 { return mathx.IQR(f.Values) }

// AddNoise returns a copy of f with truncated Gaussian noise added to every
// vertex, as in the robustness experiment (Section 6.2): the noise at each
// point is drawn from N(0, (frac*IQR/2)^2) and clamped to +-frac*IQR.
func (f *Function) AddNoise(frac float64, seed int64) *Function {
	bound := frac * f.IQR()
	rng := rand.New(rand.NewSource(seed))
	out := f.clone()
	if bound == 0 {
		return out
	}
	for v := range out.Values {
		noise := mathx.Clamp(rng.NormFloat64()*bound/2, -bound, bound)
		out.Values[v] += noise
	}
	return out
}

func (f *Function) clone() *Function {
	out := *f
	out.Values = append([]float64(nil), f.Values...)
	out.Observed = append([]bool(nil), f.Observed...)
	return &out
}

// SortedValues returns the function values in ascending order (helper for
// diagnostics and threshold studies).
func (f *Function) SortedValues() []float64 {
	out := append([]float64(nil), f.Values...)
	sort.Float64s(out)
	return out
}

// Stats summarises a function: min, mean, max.
func (f *Function) Stats() (lo, mean, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f.Values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, mathx.Mean(f.Values), hi
}
