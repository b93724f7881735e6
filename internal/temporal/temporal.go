// Package temporal models the temporal side of the Data Polygamy framework:
// temporal resolutions (second, hour, day, week, month), binning of raw
// timestamps into time steps, timelines (the ordered set of time steps of a
// scalar function), and the seasonal intervals used when computing feature
// thresholds (Section 3.3 of the paper).
//
// All timestamps are Unix seconds in UTC. Months have variable length and
// are handled through the time package; weeks are ISO-style 7-day bins
// anchored on Monday.
package temporal

import (
	"fmt"
	"slices"
	"time"
)

// Resolution is a temporal resolution. Finer resolutions have smaller values.
type Resolution int

const (
	// Second is the finest supported resolution (raw event timestamps).
	Second Resolution = iota
	// Hour bins timestamps into hourly steps.
	Hour
	// Day bins timestamps into daily steps (UTC midnight boundaries).
	Day
	// Week bins timestamps into 7-day steps anchored on Monday.
	Week
	// Month bins timestamps into calendar months.
	Month
)

// numResolutions is the count of defined resolutions.
const numResolutions = int(Month) + 1

// String implements fmt.Stringer.
func (r Resolution) String() string {
	switch r {
	case Second:
		return "second"
	case Hour:
		return "hour"
	case Day:
		return "day"
	case Week:
		return "week"
	case Month:
		return "month"
	default:
		return fmt.Sprintf("temporal.Resolution(%d)", int(r))
	}
}

// Valid reports whether r is a defined resolution.
func (r Resolution) Valid() bool { return r >= Second && r <= Month }

// ParseResolution converts a string name into a Resolution.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "second":
		return Second, nil
	case "hour":
		return Hour, nil
	case "day":
		return Day, nil
	case "week":
		return Week, nil
	case "month":
		return Month, nil
	}
	return 0, fmt.Errorf("temporal: unknown resolution %q", s)
}

// mondayEpoch is the Unix time of the first Monday after the epoch
// (1970-01-05 00:00:00 UTC); used to anchor weekly bins.
const mondayEpoch = 4 * 86400

// ConvertibleTo reports whether data at resolution r can be aggregated into
// resolution target. The temporal resolution DAG (Figure 6) is the chain
// second -> hour -> day -> week -> month. Week -> month assigns each week
// to the month containing its start (the paper evaluates the weekly gas
// price data at monthly resolution, Appendix E.2); month is the coarsest.
func (r Resolution) ConvertibleTo(target Resolution) bool {
	if r == target {
		return true
	}
	switch r {
	case Second:
		return target.Valid()
	case Hour:
		return target == Day || target == Week || target == Month
	case Day:
		return target == Week || target == Month
	case Week:
		return target == Month
	case Month:
		return false
	}
	return false
}

// Bin returns the canonical start (Unix seconds, UTC) of the time step at
// resolution r containing timestamp ts.
func Bin(ts int64, r Resolution) int64 {
	switch r {
	case Second:
		return ts
	case Hour:
		return floorDiv(ts, 3600) * 3600
	case Day:
		return floorDiv(ts, 86400) * 86400
	case Week:
		return floorDiv(ts-mondayEpoch, 7*86400)*7*86400 + mondayEpoch
	case Month:
		t := time.Unix(ts, 0).UTC()
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC).Unix()
	}
	panic(fmt.Sprintf("temporal: invalid resolution %d", int(r)))
}

// NextBin returns the start of the time step immediately after the step
// starting at binStart, at resolution r.
func NextBin(binStart int64, r Resolution) int64 {
	if w := stepSeconds(r); w > 0 {
		return binStart + w
	}
	if r == Month {
		t := time.Unix(binStart, 0).UTC()
		return time.Date(t.Year(), t.Month()+1, 1, 0, 0, 0, 0, time.UTC).Unix()
	}
	panic(fmt.Sprintf("temporal: invalid resolution %d", int(r)))
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// TileWidth returns the fixed number of time steps per temporal tile at
// resolution r. Timelines are composed of fixed-width tiles so that
// extending the corpus time range appends tiles (and grows at most the last,
// partial one) without invalidating the step→index mapping of earlier
// steps. Widths are chosen so a year-long corpus — the scale of the paper's
// NYC studies and of this repo's test fixtures — fits in a single tile at
// every evaluation resolution: a single-tile domain behaves exactly like
// the pre-tiling global computation.
func TileWidth(r Resolution) int {
	switch r {
	case Second:
		return 604800 // one week of raw seconds
	case Hour:
		return 8784 // a leap year of hours
	case Day:
		return 366
	case Week:
		return 53
	case Month:
		return 12
	}
	panic(fmt.Sprintf("temporal: invalid resolution %d", int(r)))
}

// NumTilesFor returns the number of tiles covering nSteps steps at
// resolution r (ceil division; 0 steps is 0 tiles).
func NumTilesFor(nSteps int, r Resolution) int {
	w := TileWidth(r)
	return (nSteps + w - 1) / w
}

// Timeline is the ordered, contiguous set of time steps of a scalar function
// at a fixed resolution. It maps timestamps to dense step indices and back.
//
// A timeline is logically partitioned into fixed-width tiles of
// TileWidth(res) steps each; only the last tile may be partial. Tiles are
// the unit of incremental indexing: appending time to a corpus recomputes
// the last (possibly partial) tile and adds new ones, leaving every earlier
// tile — and thus every earlier step index and feature bit — untouched.
type Timeline struct {
	res    Resolution
	starts []int64 // start of each step: a contiguous chain of bins
	end    int64   // start of the step after the last one
}

// NewTimeline builds the timeline covering [minTS, maxTS] at resolution r.
// Both endpoints are included in their respective bins. It returns an error
// if maxTS < minTS.
func NewTimeline(minTS, maxTS int64, r Resolution) (*Timeline, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("temporal: invalid resolution %d", int(r))
	}
	if maxTS < minTS {
		return nil, fmt.Errorf("temporal: maxTS %d < minTS %d", maxTS, minTS)
	}
	tl := &Timeline{res: r}
	b := Bin(minTS, r)
	for ; b <= maxTS; b = NextBin(b, r) {
		tl.starts = append(tl.starts, b)
	}
	tl.end = b
	return tl, nil
}

// Res returns the timeline's resolution.
func (tl *Timeline) Res() Resolution { return tl.res }

// Len returns the number of time steps.
func (tl *Timeline) Len() int { return len(tl.starts) }

// Index returns the dense step index for timestamp ts, or -1 if ts falls
// outside the timeline. The steps are a contiguous chain of bins, so no bin
// is computed: a step of fixed length is found by arithmetic on the first
// step's start, a month by binary search of the starts.
func (tl *Timeline) Index(ts int64) int {
	if len(tl.starts) == 0 || ts < tl.starts[0] || ts >= tl.end {
		return -1
	}
	if w := stepSeconds(tl.res); w > 0 {
		return int((ts - tl.starts[0]) / w)
	}
	i, found := slices.BinarySearch(tl.starts, ts)
	if !found {
		i-- // ts lies inside the step starting before it
	}
	return i
}

// stepSeconds returns the fixed length of a step at r, or 0 for months.
func stepSeconds(r Resolution) int64 {
	switch r {
	case Second:
		return 1
	case Hour:
		return 3600
	case Day:
		return 86400
	case Week:
		return 7 * 86400
	}
	return 0
}

// StepStart returns the Unix start time of step i.
func (tl *Timeline) StepStart(i int) int64 { return tl.starts[i] }

// SeasonOf returns the seasonal interval key of step i (see Seasons).
func (tl *Timeline) SeasonOf(i int) int {
	return SeasonKey(tl.starts[i], tl.res)
}

// NumTiles returns the number of fixed-width tiles composing the timeline.
func (tl *Timeline) NumTiles() int { return NumTilesFor(len(tl.starts), tl.res) }

// TileOfStep returns the tile index containing step i.
func (tl *Timeline) TileOfStep(i int) int { return i / TileWidth(tl.res) }

// TileBounds returns the step range [lo, hi) of tile t. The last tile may
// be partial (hi - lo < TileWidth).
func (tl *Timeline) TileBounds(t int) (lo, hi int) {
	w := TileWidth(tl.res)
	lo = t * w
	hi = lo + w
	if hi > len(tl.starts) {
		hi = len(tl.starts)
	}
	return lo, hi
}

// Slice returns the sub-timeline of steps [lo, hi): same resolution, same
// step starts, with indices re-based to 0. It shares the step starts, so it
// costs O(1). Tile-local scalar computation runs against these slices so a
// tile's features are a pure function of the tuples binning into it.
func (tl *Timeline) Slice(lo, hi int) *Timeline {
	if lo < 0 || hi > len(tl.starts) || lo >= hi {
		panic(fmt.Sprintf("temporal: slice [%d,%d) out of range [0,%d)", lo, hi, len(tl.starts)))
	}
	end := tl.end
	if hi < len(tl.starts) {
		end = tl.starts[hi]
	}
	return &Timeline{res: tl.res, starts: tl.starts[lo:hi:hi], end: end}
}

// Extend returns a new timeline covering the original range extended to
// newMaxTS: the existing steps keep their indices and starts, and new steps
// are appended. The result is identical to NewTimeline(minTS, newMaxTS, res)
// — bins form a deterministic chain from the first bin — which is what
// keeps append-then-query byte-identical to a from-scratch rebuild.
func (tl *Timeline) Extend(newMaxTS int64) (*Timeline, error) {
	if len(tl.starts) == 0 {
		return nil, fmt.Errorf("temporal: cannot extend an empty timeline")
	}
	last := tl.starts[len(tl.starts)-1]
	if newMaxTS < last {
		return nil, fmt.Errorf("temporal: newMaxTS %d precedes last step start %d", newMaxTS, last)
	}
	out := &Timeline{res: tl.res, starts: append([]int64{}, tl.starts...)}
	b := NextBin(last, tl.res)
	for ; b <= newMaxTS; b = NextBin(b, tl.res) {
		out.starts = append(out.starts, b)
	}
	out.end = b
	return out, nil
}

// SeasonKey returns the seasonal-interval identifier for the time step
// starting at ts at resolution r. Per Section 3.3 / 5.2 of the paper,
// feature thresholds are computed per monthly interval for hourly data and
// per quarter-yearly interval for daily data; coarser resolutions use a
// single global interval (key 0).
func SeasonKey(ts int64, r Resolution) int {
	t := time.Unix(ts, 0).UTC()
	switch r {
	case Second, Hour:
		return t.Year()*12 + int(t.Month()) - 1
	case Day:
		return t.Year()*4 + (int(t.Month())-1)/3
	default:
		return 0
	}
}
