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
//   - attribute functions capture per-attribute behaviour: the average of
//     one numerical attribute per point.
package scalar

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

// Spec identifies one scalar function of a data set, independent of
// resolution: which kind, and for attribute functions which attribute.
type Spec struct {
	Kind Kind
	Attr string // attribute name; only for Kind == Attribute
}

// avgPrefix opens the name of every attribute function: the average is the
// paper's one attribute aggregate.
const avgPrefix = "avg_"

// Name returns the function name, e.g. "density", "unique", "avg_fare".
func (s Spec) Name() string {
	if s.Kind == Attribute {
		return avgPrefix + s.Attr
	}
	return s.Kind.String()
}

// Specs enumerates every scalar function derived from a data set: one
// density function, one unique function when identifiers exist, and one
// average attribute function per numerical attribute (Section 5.1).
func Specs(d *dataset.Dataset) []Spec {
	out := make([]Spec, 1, 2+len(d.Attrs))
	out[0] = Spec{Kind: Density}
	if d.HasID {
		out = append(out, Spec{Kind: Unique})
	}
	for _, a := range d.Attrs {
		out = append(out, Spec{Kind: Attribute, Attr: a})
	}
	return out
}

// Function is a time-varying scalar function sampled on the vertices of its
// spatio-temporal domain graph, in step-major order: the value at (region
// x, step z) is Values[z*NumRegions+x].
type Function struct {
	Dataset string
	Spec    Spec

	SRes spatial.Resolution
	TRes temporal.Resolution

	Timeline *temporal.Timeline
	Graph    *stgraph.Graph

	// Values holds the function at every vertex. A vertex no tuple
	// contributed to is imputed: zero for count functions, the mean of the
	// observed vertices for attribute functions.
	Values []float64
}

// Name returns the function's name, its spec's.
func (f *Function) Name() string { return f.Spec.Name() }

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
	minTS, maxTS, ok := d.TimeRange()
	if !ok {
		return nil, fmt.Errorf("scalar: %s is empty", d.Name)
	}
	tl, err := temporal.NewTimeline(minTS, maxTS, tres)
	if err != nil {
		return nil, err
	}
	return ComputeOnTimeline(d, spec, city, sres, tres, tl)
}

// ComputeOnTimeline is like Compute but uses a caller-provided timeline,
// which lets several functions (e.g. year-split halves of a data set) share
// identical step indexing.
func ComputeOnTimeline(d *dataset.Dataset, spec Spec, city *spatial.CityMap, sres spatial.Resolution, tres temporal.Resolution, tl *temporal.Timeline) (*Function, error) {
	if _, err := checkRequest(d, spec, sres, tres, tl); err != nil {
		return nil, err
	}
	g, err := stgraph.New(city.NumRegions(sres), tl.Len(), city.Adjacency(sres))
	if err != nil {
		return nil, err
	}
	return ComputeOnDomain(d, spec, city, sres, tres, tl, g)
}

// ComputeOnDomain is like ComputeOnTimeline but additionally reuses a
// caller-provided domain graph (which must match the city's adjacency at
// sres and the timeline length), letting a corpus share one graph per
// resolution. It bins the tuples (Bin) and aggregates over the bins, with
// the vertex ids and the attribute column in pooled scratch.
func ComputeOnDomain(d *dataset.Dataset, spec Spec, city *spatial.CityMap, sres spatial.Resolution, tres temporal.Resolution, tl *temporal.Timeline, g *stgraph.Graph) (*Function, error) {
	attr, err := checkRequest(d, spec, sres, tres, tl)
	if err != nil {
		return nil, err
	}
	if g.NumRegions() != city.NumRegions(sres) || g.NumSteps() != tl.Len() {
		return nil, fmt.Errorf("scalar: domain graph %dx%d does not match city/timeline %dx%d",
			g.NumRegions(), g.NumSteps(), city.NumRegions(sres), tl.Len())
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	b := &Binned{d: d, sres: sres, regions: g.NumRegions()}
	if b.vertex, err = bin(sc.vertex[:0], d, city, sres, tl); err != nil {
		return nil, err
	}
	sc.vertex = b.vertex
	var col []float64
	if attr >= 0 {
		col = column(sc.col[:0], d, attr)
		sc.col = col
	}
	return b.Compute(spec, col, 0, tl, g), nil
}

// checkRequest checks what the Compute entry points share — the data set's
// schema, the resolutions, the spec — and returns the attribute index of an
// attribute spec (-1 otherwise). The per-tuple checks run in bin, the one
// pass over the tuples.
func checkRequest(d *dataset.Dataset, spec Spec, sres spatial.Resolution, tres temporal.Resolution, tl *temporal.Timeline) (int, error) {
	if err := d.ValidateSchema(); err != nil {
		return -1, err
	}
	switch {
	case sres == spatial.GPS:
		return -1, fmt.Errorf("scalar: relationships are never evaluated at GPS resolution")
	case !d.SpatialRes.ConvertibleTo(sres):
		return -1, fmt.Errorf("scalar: %s spatial resolution %s not convertible to %s", d.Name, d.SpatialRes, sres)
	case !d.TemporalRes.ConvertibleTo(tres):
		return -1, fmt.Errorf("scalar: %s temporal resolution %s not convertible to %s", d.Name, d.TemporalRes, tres)
	case tl.Res() != tres:
		return -1, fmt.Errorf("scalar: timeline resolution %s does not match %s", tl.Res(), tres)
	case spec.Kind == Unique && !d.HasID:
		return -1, fmt.Errorf("scalar: %s has no identifier attribute for the unique function", d.Name)
	case spec.Kind != Attribute:
		return -1, nil
	}
	attr := d.AttrIndex(spec.Attr)
	if attr < 0 {
		return -1, fmt.Errorf("scalar: %s has no attribute %q", d.Name, spec.Attr)
	}
	return attr, nil
}

// Binned is a valid data set placed on one evaluation domain: the vertex
// of every tuple at a spatial resolution over a timeline. Every function
// of the data set at that resolution, on every tile of the timeline,
// aggregates over the same vertex ids, so a data set is binned once per
// resolution rather than once per function.
type Binned struct {
	d       *dataset.Dataset
	sres    spatial.Resolution
	regions int
	// vertex[i] is tuple i's vertex (step-major, as in Function.Values),
	// or -1 when the tuple falls outside the city or the timeline.
	vertex []int32
}

// Bin places the tuples of d on the domain of sres over tl, which must be
// a resolution pair d converts to and the domain of a stgraph.Graph.
func Bin(d *dataset.Dataset, city *spatial.CityMap, sres spatial.Resolution, tl *temporal.Timeline) (*Binned, error) {
	vertex, err := bin(make([]int32, 0, len(d.Tuples)), d, city, sres, tl)
	return &Binned{d: d, sres: sres, regions: city.NumRegions(sres), vertex: vertex}, err
}

// bin appends to dst the vertex of every tuple of d (see Binned), failing
// on the first tuple that breaks the data set's invariants.
func bin(dst []int32, d *dataset.Dataset, city *spatial.CityMap, sres spatial.Resolution, tl *temporal.Timeline) ([]int32, error) {
	regions := city.NumRegions(sres)
	polygon := d.SpatialRes != spatial.GPS
	for i := range d.Tuples {
		tup := &d.Tuples[i]
		if len(tup.Values) != len(d.Attrs) || polygon && tup.Region < 0 {
			return nil, d.ValidateTuple(i)
		}
		v := int32(-1)
		if region, step := regionOf(d, tup, city, sres), tl.Index(tup.TS); region >= 0 && step >= 0 {
			v = int32(step*regions + region)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Columns returns the attributes of d, a valid data set, column by column:
// the contiguous form attribute functions aggregate over.
func Columns(d *dataset.Dataset) [][]float64 {
	cols := make([][]float64, len(d.Attrs))
	for a := range cols {
		cols[a] = column(make([]float64, 0, len(d.Tuples)), d, a)
	}
	return cols
}

func column(dst []float64, d *dataset.Dataset, attr int) []float64 {
	for i := range d.Tuples {
		dst = append(dst, d.Tuples[i].Values[attr])
	}
	return dst
}

// Compute computes the function of spec, valid for the data set, on one
// tile of the binned domain: the steps of sub, a slice of the binned
// timeline that starts at its step lo, over g, the tile's domain graph.
// col is the attribute column of an attribute spec (see Columns). The
// function's Values come from a pool; Recycle returns them.
func (b *Binned) Compute(spec Spec, col []float64, lo int, sub *temporal.Timeline, g *stgraph.Graph) *Function {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	n := g.NumVertices()
	f := &Function{Dataset: b.d.Name, Spec: spec, SRes: b.sres, TRes: sub.Res(), Timeline: sub, Graph: g, Values: newValues(n)}
	// A tuple's vertex in the tile is its domain vertex less off; unplaced
	// (-1) or outside the tile, it wraps to n or more.
	off, vals := int32(lo*b.regions), f.Values
	switch spec.Kind {
	case Density:
		for _, v := range b.vertex {
			if u := uint32(v - off); u < uint32(n) {
				vals[u]++
			}
		}
	case Unique:
		// Distinct IDs per vertex: (vertex, id) pairs are collected flat
		// and sorted once, instead of one hash set per vertex.
		uniq := sc.uniq[:0]
		for i, v := range b.vertex {
			if u := uint32(v - off); u < uint32(n) {
				uniq = append(uniq, vertexID{v: int(u), id: b.d.Tuples[i].ID})
			}
		}
		sortVertexIDs(uniq)
		for i, p := range uniq {
			if i == 0 || uniq[i-1] != p {
				vals[p.v]++
			}
		}
		sc.uniq = uniq[:0]
	case Attribute:
		average(vals, b.vertex, col, off, sc)
	}
	return f
}

// scratch is the working memory of a function computation, reused across
// calls through scratchPool: the counts of attribute functions, the
// (vertex, id) observations of unique functions, and the vertex ids and
// attribute column of ComputeOnDomain. Only the Function escapes.
type scratch struct {
	cnts   []float64
	uniq   []vertexID
	vertex []int32
	col    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// valuesPool holds the Values buffers Recycle hands back.
var valuesPool sync.Pool

// newValues returns n zeroed values, in a pooled buffer when one is large
// enough.
func newValues(n int) []float64 {
	if p, ok := valuesPool.Get().(*[]float64); ok && cap(*p) >= n {
		clear((*p)[:n])
		return (*p)[:n]
	}
	return make([]float64, n)
}

// Recycle hands f's Values buffer back to the pool new functions draw
// from. Neither f nor its Values may be read afterwards.
func (f *Function) Recycle() {
	v := f.Values
	f.Values = nil
	valuesPool.Put(&v)
}

// average computes an attribute function into vals: the value col[i] of
// tuple i folds into the mean at its tile vertex vertex[i]-off, missing
// values skipped. A vertex no value reached is imputed with the mean of the
// others, so the function stays Morse-friendly: imputed points sit at
// "normal" level and never become salient features.
func average(vals []float64, vertex []int32, col []float64, off int32, sc *scratch) {
	n := len(vals)
	if cap(sc.cnts) < n {
		sc.cnts = make([]float64, n)
	}
	cnts := sc.cnts[:n] // values folded into each vertex
	clear(cnts)
	for i, v := range vertex {
		u, x := uint32(v-off), col[i]
		if u >= uint32(n) || dataset.IsMissing(x) {
			continue
		}
		vals[u] += x
		cnts[u]++
	}
	sum, observed := 0.0, 0 // mathx.Mean of the observed values, in vertex order
	for u, c := range cnts {
		if c == 0 {
			continue
		}
		vals[u] /= c
		sum += vals[u]
		observed++
	}
	fill := 0.0
	if observed > 0 {
		fill = sum / float64(observed)
	}
	for u, c := range cnts {
		if c == 0 {
			vals[u] = fill
		}
	}
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
		return cmp.Compare(a.id, b.id)
	})
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
	return &out
}
