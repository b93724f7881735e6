// Package dataset defines the data model of the Data Polygamy framework:
// a data set is a collection of tuples {K, S, T, A1, ..., Ak} with an
// optional unique identifier K, spatial attribute S, temporal attribute T,
// and numerical attributes Ai (Section 5.1 of the paper). It also provides
// a CSV codec so corpora can be persisted and re-loaded.
package dataset

import (
	"fmt"
	"math"

	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Tuple is one record of a data set.
//
// For GPS-resolution data the location is (X, Y) and Region is ignored;
// for polygon-resolution data Region holds the region id at the data set's
// native spatial resolution and (X, Y) are ignored. TS is Unix seconds.
// Values are aligned with the data set's Attrs; NaN marks a missing value.
type Tuple struct {
	ID     int64
	X, Y   float64
	Region int
	TS     int64
	Values []float64
}

// Dataset is a named spatio-temporal data set.
type Dataset struct {
	// Name identifies the data set in queries and results (e.g. "taxi").
	Name string
	// SpatialRes is the native spatial resolution of the tuples.
	SpatialRes spatial.Resolution
	// TemporalRes is the native temporal resolution of the tuples.
	TemporalRes temporal.Resolution
	// HasID marks data sets whose tuples carry a meaningful unique
	// identifier (enabling the "unique" count function).
	HasID bool
	// Attrs names the numerical attributes, aligned with Tuple.Values.
	Attrs []string
	// Tuples holds the records.
	Tuples []Tuple
}

// Span is a closed range of timestamps [Min, Max] (Unix seconds).
type Span struct{ Min, Max int64 }

// Validate checks structural invariants: resolutions are defined, attribute
// values have the declared arity, regions are non-negative for polygon data.
// It is ValidateSchema followed by ValidateTuple on every tuple, and the
// same pass over the tuples returns their time span, the range TimeRange
// returns (the zero Span for a data set with no tuples).
func (d *Dataset) Validate() (Span, error) {
	if err := d.ValidateSchema(); err != nil {
		return Span{}, err
	}
	var s Span
	for i := range d.Tuples {
		if err := d.ValidateTuple(i); err != nil {
			return Span{}, err
		}
		if ts := d.Tuples[i].TS; i == 0 {
			s = Span{ts, ts}
		} else {
			s = Span{min(s.Min, ts), max(s.Max, ts)}
		}
	}
	return s, nil
}

// ValidateSchema checks the invariants that do not depend on the tuples:
// the data set is named and its resolutions are defined.
func (d *Dataset) ValidateSchema() error {
	if d.Name == "" {
		return fmt.Errorf("dataset: empty name")
	}
	if !d.SpatialRes.Valid() {
		return fmt.Errorf("dataset %s: invalid spatial resolution %d", d.Name, int(d.SpatialRes))
	}
	if !d.TemporalRes.Valid() {
		return fmt.Errorf("dataset %s: invalid temporal resolution %d", d.Name, int(d.TemporalRes))
	}
	return nil
}

// ValidateTuple checks tuple i: it has one value per attribute and, at a
// polygon resolution, a non-negative region.
func (d *Dataset) ValidateTuple(i int) error {
	tup := &d.Tuples[i]
	if len(tup.Values) != len(d.Attrs) {
		return fmt.Errorf("dataset %s: tuple %d has %d values, want %d", d.Name, i, len(tup.Values), len(d.Attrs))
	}
	if d.SpatialRes != spatial.GPS && tup.Region < 0 {
		return fmt.Errorf("dataset %s: tuple %d has negative region at polygon resolution", d.Name, i)
	}
	return nil
}

// TimeRange returns the minimum and maximum timestamps across all tuples.
// ok is false for an empty data set.
func (d *Dataset) TimeRange() (minTS, maxTS int64, ok bool) {
	if len(d.Tuples) == 0 {
		return 0, 0, false
	}
	minTS, maxTS = d.Tuples[0].TS, d.Tuples[0].TS
	for _, t := range d.Tuples[1:] {
		if t.TS < minTS {
			minTS = t.TS
		}
		if t.TS > maxTS {
			maxTS = t.TS
		}
	}
	return minTS, maxTS, true
}

// AttrIndex returns the index of the named attribute, or -1.
func (d *Dataset) AttrIndex(name string) int {
	for i, a := range d.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// NumScalarFunctions returns the number of scalar functions the framework
// derives from this data set at one spatio-temporal resolution: one density
// function, one unique function if the data set has identifiers, and one
// attribute function per numerical attribute (Section 5.1).
func (d *Dataset) NumScalarFunctions() int {
	n := 1 + len(d.Attrs)
	if d.HasID {
		n++
	}
	return n
}

// Filter returns a shallow copy of the data set containing only tuples for
// which keep returns true. The new data set shares attribute metadata.
func (d *Dataset) Filter(name string, keep func(Tuple) bool) *Dataset {
	out := &Dataset{
		Name:        name,
		SpatialRes:  d.SpatialRes,
		TemporalRes: d.TemporalRes,
		HasID:       d.HasID,
		Attrs:       d.Attrs,
	}
	for _, t := range d.Tuples {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// IsMissing reports whether a value represents a missing observation.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Missing is the sentinel for absent attribute values.
func Missing() float64 { return math.NaN() }
