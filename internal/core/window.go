package core

import (
	"fmt"

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

// testDomain returns the supporting tiles of t's significance test, as a
// tile bitmap, and the number of steps they cover: the tiles where either
// side has a feature bit of t's class, read off the entries' tile
// occupancy, or, under a window, the tiles with such a bit inside
// [t.winLo, t.winHi). supp is nil when every tile supports the test, which
// then runs on the full domain. The planner and runSignificance both call
// it, so the domain a tuple is judged resolvable on is the one its test
// runs on.
func (f *Framework) testDomain(t pairTask, windowed bool) (supp []uint64, steps int) {
	g := f.graphs[t.e1.Res]
	tres := t.e1.Res.Temporal
	R, S, w := g.NumRegions(), g.NumSteps(), temporal.TileWidth(tres)
	nTiles := temporal.NumTilesFor(S, tres)
	b1, b2 := t.e1.tileOcc(t.class), t.e2.tileOcc(t.class)
	s1, s2 := t.e1.set(t.class), t.e2.set(t.class)
	supp = make([]uint64, (nTiles+63)/64)
	for ti := 0; ti < nTiles; ti++ {
		lo, hi := ti*w, min((ti+1)*w, S)
		bit := uint64(1) << uint(ti%64)
		if windowed {
			from, to := max(lo, t.winLo), min(hi, t.winHi)
			if from >= to || !s1.AnyRange(from*R, to*R) && !s2.AnyRange(from*R, to*R) {
				continue
			}
		} else if (b1[ti/64]|b2[ti/64])&bit == 0 {
			continue
		}
		supp[ti/64] |= bit
		steps += hi - lo
	}
	if steps == S {
		return nil, S
	}
	return supp, steps
}

// runSignificance runs the pair's Monte Carlo test over its supporting
// tiles (testDomain). s1/s2 are the (window-masked, when the clause is
// windowed) feature sets the relationship was evaluated on; tau is the
// observed score. When the supporting set covers every tile the test runs
// on the full domain graph with the vectors as-is; otherwise the vectors
// are compacted to the supporting tiles and the test runs on a graph of
// just those steps. tau over the compacted domain equals tau over the full
// one — every feature bit of both sides lives inside a supporting tile —
// and both draw their toroidal shifts from the spatial resolution's pool,
// which does not depend on the number of steps. The planner has already
// left out every tuple whose test is not resolvable, so a test that reports
// one is an error.
func (f *Framework) runSignificance(t pairTask, clause Clause, s1, s2 *feature.Set, tau float64) (montecarlo.Result, error) {
	g := f.graphs[t.e1.Res]
	cfg := montecarlo.Config{
		Permutations: clause.Permutations,
		Alpha:        clause.Alpha,
		Seed:         pairSeed(f.opts.Seed, t.e1.Key, t.e2.Key, t.class),
		Shifts:       f.shifts[t.e1.Res.Spatial],
	}
	if supp, steps := f.testDomain(t, clause.Windowed); supp != nil {
		// Compact the vectors onto the supporting tiles and test on a graph
		// of just those steps.
		R, S, w := g.NumRegions(), g.NumSteps(), temporal.TileWidth(t.e1.Res.Temporal)
		cg, err := stgraph.New(R, steps, g.SpatialAdjacency())
		if err != nil {
			return montecarlo.Result{}, err
		}
		compact := func(s *feature.Set) *feature.Set {
			return &feature.Set{
				Positive: compactToTiles(s.Positive, supp, w, R, S, steps),
				Negative: compactToTiles(s.Negative, supp, w, R, S, steps),
			}
		}
		g, s1, s2 = cg, compact(s1), compact(s2)
	}
	r := montecarlo.Test(s1, s2, g, tau, cfg)
	if r.NotResolvable {
		return r, fmt.Errorf("core: the planner let %s ~ %s (%v) through, but its test over %d steps is not resolvable",
			t.e1.Key, t.e2.Key, t.class, g.NumSteps())
	}
	return r, nil
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
