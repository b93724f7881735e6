package relgraph

import (
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Flat edge codec: the per-pair candidate cache is the bulk of a graph
// snapshot, so edges are laid out as fixed little-endian words and length-prefixed strings (internal/store's
// slab encoding). Decoding materializes only the Edge structs; the string
// bytes stay zero-copy views into the snapshot mapping.

// AppendFlatEdge writes e onto w in the flat layout.
func AppendFlatEdge(w *store.SlabWriter, e Edge) {
	w.String(e.Function1)
	w.String(e.Function2)
	w.String(e.Dataset1)
	w.String(e.Dataset2)
	w.String(e.Spec1)
	w.String(e.Spec2)
	w.I64(int64(e.SRes))
	w.I64(int64(e.TRes))
	w.I64(int64(e.Class))
	w.F64(e.Tau)
	w.F64(e.Rho)
	w.F64(e.PValue)
	w.F64(e.QValue)
}

// FlatEdgeMinBytes is the smallest possible flat edge encoding (all
// strings empty); readers bound count-driven allocations with it.
const FlatEdgeMinBytes = 13 * 8

// ReadFlatEdge reads one edge written by AppendFlatEdge. Corruption
// surfaces through r's sticky error; the returned edge is only meaningful
// when r.Err() is nil afterwards.
func ReadFlatEdge(r *store.SlabReader) Edge {
	return Edge{
		Function1: r.String(),
		Function2: r.String(),
		Dataset1:  r.String(),
		Dataset2:  r.String(),
		Spec1:     r.String(),
		Spec2:     r.String(),
		SRes:      spatial.Resolution(r.I64()),
		TRes:      temporal.Resolution(r.I64()),
		Class:     feature.Class(r.I64()),
		Tau:       r.F64(),
		Rho:       r.F64(),
		PValue:    r.F64(),
		QValue:    r.F64(),
	}
}
