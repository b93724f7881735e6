package core

import (
	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// This file scopes the Monte Carlo significance test to a pair's supporting
// tiles: the union of the temporal tiles in which either side has any
// feature bit of the tested class (intersected with the query window when
// one is set). The null distribution is generated by permuting the features
// over the supporting sub-domain only — a compacted graph of just those
// tiles — instead of the whole corpus timeline.
//
// This is what makes p-values append-invariant: extending the corpus adds
// empty tiles to every untouched pair's vectors, and a full-domain rotation
// would cycle features through those new steps, changing every p-value.
// With the test keyed to the supporting tile set, a pair whose backing
// tiles did not change keeps a byte-identical p-value, so the relationship
// graph can be delta-refreshed (relgraph.go / append.go) instead of
// re-tested wholesale.
//
// For a single-tile corpus the supporting set is necessarily every tile
// (the pair reached the test, so both sides have bits), and the test runs
// on the original full-domain graph — bit-for-bit the pre-tiling behavior.

// windowSteps translates a [from, to] timestamp window into the step range
// [lo, hi) of a timeline, clamping to the corpus and returning an empty
// range (lo == hi) when the window misses the timeline entirely.
func windowSteps(tl *temporal.Timeline, from, to int64) (lo, hi int) {
	if tl == nil || tl.Len() == 0 || to < from {
		return 0, 0
	}
	if from > tl.StepStart(0) {
		i := tl.Index(from)
		if i < 0 {
			return 0, 0 // window starts past the corpus end
		}
		lo = i
	}
	hi = tl.Len()
	if to < tl.StepStart(hi-1) {
		i := tl.Index(to)
		if i < 0 {
			return 0, 0 // window ends before the corpus start
		}
		hi = i + 1
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// orBitmaps returns the elementwise union of two equal-length tile bitmaps.
func orBitmaps(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] | b[i]
	}
	return out
}

// bitmapFull reports whether all n tile bits are set.
func bitmapFull(bm []uint64, n int) bool {
	for t := 0; t < n; t++ {
		if bm[t/64]&(1<<uint(t%64)) == 0 {
			return false
		}
	}
	return true
}

// runSignificance runs the pair's Monte Carlo test over its supporting
// tiles. s1/s2/u1/u2 are the (window-masked, when the clause is windowed)
// feature sets and unions the relationship was evaluated on; tau is the
// observed score. When the supporting set covers every tile the test runs
// on the full domain graph with the vectors as-is; otherwise the vectors
// are compacted to the supporting tiles and the test runs on a graph of
// just those steps. tau over the compacted domain equals tau over the full
// one — every feature bit of both sides lives inside a supporting tile —
// and both draw their toroidal shifts from the spatial resolution's pool,
// which does not depend on the number of steps.
func (f *Framework) runSignificance(t pairTask, clause Clause, s1, s2 *feature.Set,
	u1, u2 *bitvec.Vector, tau float64, mcWorkers int) (montecarlo.Result, error) {
	g := f.graphs[t.e1.Res]
	cfg := montecarlo.Config{
		Permutations: clause.Permutations,
		Alpha:        clause.Alpha,
		Seed:         t.seed,
		Workers:      mcWorkers,
		Exhaustive:   clause.Exhaustive,
		Shifts:       f.shifts[t.e1.Res.Spatial],
	}
	tres := t.e1.Res.Temporal
	S := g.NumSteps()
	R := g.NumRegions()
	w := temporal.TileWidth(tres)
	nTiles := temporal.NumTilesFor(S, tres)

	var supp []uint64
	if clause.Windowed {
		// The masked unions already reflect the window; their live tiles are
		// the supporting set.
		supp = orBitmaps(tileOccupancyBits(u1, w, R, S, nTiles), tileOccupancyBits(u2, w, R, S, nTiles))
	} else {
		b1, b2 := t.e1.tileOcc(t.class), t.e2.tileOcc(t.class)
		if b1 != nil && b2 != nil && len(b1) == len(b2) {
			supp = orBitmaps(b1, b2)
		}
		// else: entries without tile metadata (hand-built) — full domain.
	}
	if supp == nil || bitmapFull(supp, nTiles) {
		return montecarlo.Test(s1, s2, g, tau, cfg), nil
	}

	// Compact the vectors onto the supporting tiles and test on a graph of
	// just those steps.
	steps := 0
	for ti := 0; ti < nTiles; ti++ {
		if supp[ti/64]&(1<<uint(ti%64)) == 0 {
			continue
		}
		lo, hi := ti*w, min((ti+1)*w, S)
		steps += hi - lo
	}
	cg, err := stgraph.New(R, steps, g.SpatialAdjacency())
	if err != nil {
		return montecarlo.Result{}, err
	}
	cs1 := &feature.Set{
		Positive: compactToTiles(s1.Positive, supp, w, R, S, steps),
		Negative: compactToTiles(s1.Negative, supp, w, R, S, steps),
	}
	cs2 := &feature.Set{
		Positive: compactToTiles(s2.Positive, supp, w, R, S, steps),
		Negative: compactToTiles(s2.Negative, supp, w, R, S, steps),
	}
	return montecarlo.Test(cs1, cs2, cg, tau, cfg), nil
}

// compactToTiles concatenates the vertex-bit ranges of the supporting tiles
// into one dense vector of steps*r bits.
func compactToTiles(v *bitvec.Vector, supp []uint64, w, r, nSteps, steps int) *bitvec.Vector {
	out := bitvec.New(steps * r)
	off := 0
	for ti, lo := 0, 0; lo < nSteps; ti, lo = ti+1, lo+w {
		hi := min(lo+w, nSteps)
		if supp[ti/64]&(1<<uint(ti%64)) == 0 {
			continue
		}
		n := (hi - lo) * r
		out.CopyRange(v, lo*r, off, n)
		off += n
	}
	return out
}
