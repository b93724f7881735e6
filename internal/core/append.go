package core

import (
	"fmt"

	"github.com/urbandata/datapolygamy/internal/dataset"
)

// This file is the append path of the corpus lifecycle layer: AppendSlice
// extends a registered data set with new tuples — typically a fresh time
// slice of a continuously collected urban feed — without tearing down the
// derived state, as a new data set that ends later does (write.go).
//
// The tiled temporal domain (temporal.TileWidth, tile.go) is what makes
// this incremental. Extending the corpus maximum timestamp appends steps to
// every shared timeline (Timeline.Extend keeps existing step indices), so a
// tile whose step range did not change — every complete tile before the old
// end of time — keeps byte-identical feature bits and critical point
// counts, and only the dirty suffix of tiles is recomputed:
//
//   - domain growth dirties the old last tile when it was partial (its step
//     range gains steps, so its merge tree and thresholds see a longer
//     sub-domain) plus every wholly new tile, for EVERY entry at a
//     resolution whose timeline gains steps — a from-scratch build of the
//     grown corpus computes those tiles over the longer domain too, and
//     equivalence is bit-level;
//   - the appended tuples additionally dirty, for the target data set only,
//     every tile from the first step that gains a tuple (tuples are binned
//     monotonically, so a slice starting at sliceLo can only land in steps
//     >= the step containing sliceLo).
//
// After the recompute, data sets whose feature bits are unchanged (the
// recomputed tiles produced the same bits, zero-extended over the new
// domain) — and whose occupied tiles all kept their step ranges — provably
// keep every cached per-pair Monte Carlo result: the significance test runs
// over a pair's supporting tiles (window.go), and those tiles' widths and
// contents are untouched. Only pairs involving a changed data set have
// their tested families dropped (dropResultsInvolving), so the next query
// or BuildGraph re-tests exactly the affected pairs and re-adjusts q-values
// over the full family — byte-identical to a from-scratch rebuild.
//
// The recompute is the one corpus write (write.go), which IngestDataset and
// BuildIndex run too: a forward-extending ingest grows the domain the same
// way, with the new data set computed from no base.

// AppendSlice extends the registered data set slice.Name with the tuples of
// slice, which must match the data set's schema and start no earlier than
// the corpus start of time (appends never extend into the past — that would
// shift every step index). Extending the corpus end of time is the designed
// case and is incremental: no rebuild, only dirty tiles recomputed, only
// affected graph pairs re-tested.
//
// It is one corpus write (write.go): the recompute runs without the state
// lock, queries proceed concurrently and observe the append as one atomic
// epoch swap, and writes serialize. The resulting framework state — index
// entries, p-values, q-values, and the relationship graph after the next
// BuildGraph — is byte-identical to a from-scratch build over the merged
// corpus.
func (f *Framework) AppendSlice(slice *dataset.Dataset) (IndexStats, error) {
	span, err := slice.Validate()
	if err != nil {
		return IndexStats{}, err
	}
	st, err := f.write(nil, slice, span)
	if err != nil {
		return st, err
	}
	mAppends.Inc()
	if st.FellBack {
		mAppendFallbacks.Inc()
	}
	mAppendDuration.Observe(st.WallDuration.Seconds())
	return st, nil
}

// sliceSchemaMatch verifies an append slice carries the same schema as the
// data set it extends.
func sliceSchemaMatch(d, s *dataset.Dataset) error {
	if s.SpatialRes != d.SpatialRes || s.TemporalRes != d.TemporalRes {
		return fmt.Errorf("core: append slice for %q has resolution (%s, %s), dataset has (%s, %s)",
			d.Name, s.SpatialRes, s.TemporalRes, d.SpatialRes, d.TemporalRes)
	}
	if s.HasID != d.HasID {
		return fmt.Errorf("core: append slice for %q disagrees with the dataset on identifiers", d.Name)
	}
	if len(s.Attrs) != len(d.Attrs) {
		return fmt.Errorf("core: append slice for %q has %d attributes, dataset has %d", d.Name, len(s.Attrs), len(d.Attrs))
	}
	for i := range d.Attrs {
		if s.Attrs[i] != d.Attrs[i] {
			return fmt.Errorf("core: append slice for %q names attribute %d %q, dataset has %q", d.Name, i, s.Attrs[i], d.Attrs[i])
		}
	}
	return nil
}

// appendTuples returns a copy of d with the slice's tuples appended. The
// registered data set is never mutated in place: in-flight readers may
// still hold it.
func appendTuples(d, slice *dataset.Dataset) *dataset.Dataset {
	out := *d
	out.Tuples = make([]dataset.Tuple, 0, len(d.Tuples)+len(slice.Tuples))
	out.Tuples = append(append(out.Tuples, d.Tuples...), slice.Tuples...)
	return &out
}
