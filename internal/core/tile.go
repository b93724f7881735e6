package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// This file is the tiled build path of the index layer. The temporal domain
// is partitioned into fixed-width tiles (temporal.TileWidth per resolution),
// and every scalar function is computed, merge-tree indexed, and feature
// extracted tile by tile: each tile's sub-function runs against a
// sub-timeline and a tile-sized domain graph, so a tile's features are a
// pure function of the tuples binning into its step range. The per-tile bit
// vectors are stitched into the entry's full-domain vectors at the tile's
// bit offset.
//
// Purity per tile is what makes appending time incremental: extending the
// corpus recomputes only the tiles whose step range gained tuples — the old
// last (possibly partial) tile and the new ones — and every earlier tile's
// bits and critical point count are reused verbatim (see append.go).
// A from-scratch build of the extended corpus computes the same tiles the
// same way, which is what keeps append-then-query byte-identical to
// rebuild-then-query.

// jobInputs is what one indexing job derives from its data sets once and
// shares across its tasks: each data set binned at every resolution it is
// indexed at (scalar.Bin), and its attribute columns (scalar.Columns). The
// maps are filled when the job is planned and only read while it runs;
// an input is built by the first task that asks for it, inside the worker
// pool, and all of them are dropped with the job.
type jobInputs struct {
	bins map[binKey]func() (*scalar.Binned, error)
	cols map[*dataset.Dataset]func() [][]float64
}

type binKey struct {
	ds  *dataset.Dataset
	res Resolution
}

// newJobInputs plans the inputs of tasks over the given timelines.
func newJobInputs(city *spatial.CityMap, timelines map[temporal.Resolution]*temporal.Timeline, tasks []funcTask) *jobInputs {
	in := &jobInputs{bins: make(map[binKey]func() (*scalar.Binned, error)), cols: make(map[*dataset.Dataset]func() [][]float64)}
	for _, t := range tasks {
		d, res := t.ds, t.res
		if in.bins[binKey{d, res}] == nil {
			in.bins[binKey{d, res}] = sync.OnceValues(func() (*scalar.Binned, error) {
				return scalar.Bin(d, city, res.Spatial, timelines[res.Temporal])
			})
		}
		if in.cols[d] == nil {
			in.cols[d] = sync.OnceValue(func() [][]float64 { return scalar.Columns(d) })
		}
	}
	return in
}

// tileTimings carries the per-phase worker time of one tiled entry build.
type tileTimings struct {
	compute time.Duration // scalar computation (paper job 1)
	feature time.Duration // merge trees + feature extraction (paper job 2)
}

// rebuildEntryTiles computes tiles [fromTile, tl.NumTiles()) of the entry
// of one funcTask and returns the complete entry over the full timeline.
// It is the one builder of index entries: build, ingest and append all run
// it, reading the task's tuples from the job's inputs, whose timeline at
// the task's resolution must be tl.
//
// When base is nil the whole domain is computed (fromTile must be 0). When
// base is the task's existing entry, its bits and per-tile critical point
// counts for tiles before fromTile are reused: the existing vectors are
// zero-extended to the new domain and only the given tile range is
// recomputed and re-stitched. This is the append path; the base entry is
// never mutated.
func (f *Framework) rebuildEntryTiles(t funcTask, in *jobInputs, tl *temporal.Timeline, g *stgraph.Graph, fromTile int, base *FunctionEntry) (*FunctionEntry, tileTimings, error) {
	var tm tileTimings
	nTiles := tl.NumTiles()
	if fromTile < 0 || fromTile >= nTiles {
		return nil, tm, fmt.Errorf("core: tile range [%d,%d) out of bounds", fromTile, nTiles)
	}
	if base == nil && fromTile != 0 {
		return nil, tm, fmt.Errorf("core: partial tile build requires a base entry")
	}

	S := tl.Len()
	R := g.NumRegions()
	nBits := g.NumVertices()

	var key, specName string
	var salPos, salNeg, extPos, extNeg *bitvec.Vector
	var tileCrit []int
	if base == nil {
		salPos, salNeg = bitvec.New(nBits), bitvec.New(nBits)
		extPos, extNeg = bitvec.New(nBits), bitvec.New(nBits)
	} else {
		if len(base.TileCriticalPoints) < fromTile {
			return nil, tm, fmt.Errorf("core: base entry %s has %d tiles, need %d", base.Key, len(base.TileCriticalPoints), fromTile)
		}
		key, specName = base.Key, base.SpecName
		salPos, salNeg = base.Salient.Positive.Grow(nBits), base.Salient.Negative.Grow(nBits)
		extPos, extNeg = base.Extreme.Positive.Grow(nBits), base.Extreme.Negative.Grow(nBits)
		tileCrit = append([]int{}, base.TileCriticalPoints[:fromTile]...)
	}

	start := time.Now()
	src, err := in.bins[binKey{t.ds, t.res}]()
	if err != nil {
		return nil, tm, err
	}
	var col []float64
	if t.spec.Kind == scalar.Attribute {
		col = in.cols[t.ds]()[t.ds.AttrIndex(t.spec.Attr)]
	}
	tm.compute += time.Since(start)
	adj := g.SpatialAdjacency()
	for ti := fromTile; ti < nTiles; ti++ {
		lo, hi := tl.TileBounds(ti)
		// A tile spanning the whole timeline (a corpus of up to a year at
		// every evaluation resolution) runs on the shared timeline and graph.
		sub, tg := tl, g
		if hi-lo != S {
			sub = tl.Slice(lo, hi)
			var err error
			if tg, err = stgraph.New(R, hi-lo, adj); err != nil {
				return nil, tm, err
			}
		}
		start := time.Now()
		fn := src.Compute(t.spec, col, lo, sub, tg)
		tm.compute += time.Since(start)

		start = time.Now()
		if key == "" {
			key, specName = fn.Key(), fn.Name()
		} else if key != fn.Key() {
			return nil, tm, fmt.Errorf("core: tile %d computed key %s, want %s", ti, fn.Key(), key)
		}
		ex := feature.NewExtractor(fn)
		sal := ex.Extract(feature.Salient)
		ext := ex.Extract(feature.Extreme)
		tileBits, off := (hi-lo)*R, lo*R
		salPos.CopyRange(sal.Positive, 0, off, tileBits)
		salNeg.CopyRange(sal.Negative, 0, off, tileBits)
		extPos.CopyRange(ext.Positive, 0, off, tileBits)
		extNeg.CopyRange(ext.Negative, 0, off, tileBits)
		tileCrit = append(tileCrit, ex.CriticalPoints())
		fn.Recycle()
		tm.feature += time.Since(start)
	}

	crit := 0
	for _, c := range tileCrit {
		crit += c
	}
	e := &FunctionEntry{
		Key:                key,
		Dataset:            t.ds.Name,
		SpecName:           specName,
		Res:                t.res,
		Salient:            &feature.Set{Positive: salPos, Negative: salNeg},
		Extreme:            &feature.Set{Positive: extPos, Negative: extNeg},
		NumVertices:        nBits,
		CriticalPoints:     crit,
		NumSteps:           S,
		TileCriticalPoints: tileCrit,
	}
	e.finalize(summarize(e.Salient, t.res.Temporal, S, R), summarize(e.Extreme, t.res.Temporal, S, R))
	return e, tm, nil
}

// summarize derives one class's summary from its vectors over nSteps steps
// of nRegions regions at temporal resolution tres: the popcounts, and the
// tile occupancy and word occupancy of the union, which it forms only for
// them. It is the one place summaries are derived; the snapshot record
// stores them, and a load installs them unread.
func summarize(s *feature.Set, tres temporal.Resolution, nSteps, nRegions int) classSummary {
	all := s.All()
	return classSummary{
		occ:   Occupancy{Pos: s.Positive.Count(), Neg: s.Negative.Count(), All: all.Count()},
		tiles: tileOccupancyBits(all, temporal.TileWidth(tres), nRegions, nSteps, temporal.NumTilesFor(nSteps, tres)),
		words: all.Occupied(),
	}
}

// tileOccupancyBits scans one union vector tile by tile and returns the
// occupancy bitset (bit t set ⇔ any feature bit inside tile t's vertex
// range).
func tileOccupancyBits(v *bitvec.Vector, w, r, nSteps, nTiles int) []uint64 {
	out := make([]uint64, bitvec.NumWords(nTiles))
	for t := 0; t < nTiles; t++ {
		if v.AnyRange(t*w*r, min((t+1)*w, nSteps)*r) {
			out[t/64] |= 1 << uint(t%64)
		}
	}
	return out
}
