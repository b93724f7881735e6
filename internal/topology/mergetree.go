// Package topology implements the topological machinery of the Data
// Polygamy framework (Section 3 of the paper): merge trees (join and split
// trees) of piecewise-linear scalar functions on the spatio-temporal domain
// graph and topological persistence with creator/destroyer pairing, from
// which the feature package derives its thresholds.
//
// Functions are made Morse by simulated perturbation: ties in function
// value are broken by vertex index, imposing a total order so that no two
// critical values coincide (Appendix B.1).
package topology

import (
	"sort"

	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// Kind distinguishes the two merge-tree flavours.
type Kind int

const (
	// Join tracks super-level sets with decreasing function value; its
	// non-root leaves are the maxima of f.
	Join Kind = iota
	// Split tracks sub-level sets with increasing function value; its
	// non-root leaves are the minima of f.
	Split
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Join {
		return "join"
	}
	return "split"
}

// Pair is a creator/destroyer persistence pair. For a join tree the creator
// is a maximum and the destroyer the merge saddle that kills its super-level
// component; Persistence is |f(destroyer) - f(creator)|. The pair of the
// global extremum has Destroyer == -1, Essential == true, and persistence
// equal to the function range.
type Pair struct {
	Creator     int
	Destroyer   int
	Persistence float64
	Essential   bool
}

// Edge is a merge-tree edge between two critical vertices; it represents
// the connected level-set component living between its endpoints.
type Edge struct {
	Upper, Lower int // for join trees, f(Upper) > f(Lower) in perturbed order
}

// Tree is a merge tree of a scalar function together with its persistence
// pairing. Construct with ComputeJoin, ComputeSplit or ComputeBoth.
type Tree struct {
	kind Kind
	g    *stgraph.Graph
	vals []float64

	// Leaves are the non-root leaf vertices (maxima for Join, minima for
	// Split), in sweep order (i.e. most extreme first).
	Leaves []int
	// Pairs[i] is the persistence pair of Leaves[i].
	Pairs []Pair
	// Edges are the merge-tree edges, in construction order.
	Edges []Edge
	// Root is the vertex processed last in the sweep: the global minimum
	// for a join tree, the global maximum for a split tree.
	Root int

	critical int // distinct critical vertices, counted during the sweep
}

// Kind returns the tree kind.
func (t *Tree) Kind() Kind { return t.kind }

// NumCriticalPoints returns the number of distinct critical vertices in the
// tree (leaves, saddles, and the root).
func (t *Tree) NumCriticalPoints() int { return t.critical }

// PersistencePoint is one point of a persistence diagram: an extremum with
// its creation and destruction function values (in original units).
type PersistencePoint struct {
	Vertex      int
	Creation    float64
	Destruction float64
	Persistence float64
	Essential   bool
}

// Diagram returns the persistence diagram of the tree in original function
// units, one point per leaf, most persistent first.
func (t *Tree) Diagram() []PersistencePoint {
	out := make([]PersistencePoint, len(t.Pairs))
	for i, p := range t.Pairs {
		pt := PersistencePoint{
			Vertex:      p.Creator,
			Creation:    t.vals[p.Creator],
			Persistence: p.Persistence,
			Essential:   p.Essential,
		}
		if p.Destroyer >= 0 {
			pt.Destruction = t.vals[p.Destroyer]
		} else {
			pt.Destruction = t.vals[t.Root]
		}
		out[i] = pt
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Persistence > out[b].Persistence })
	return out
}

// ExtremumValue returns the original function value at leaf i.
func (t *Tree) ExtremumValue(i int) float64 { return t.vals[t.Leaves[i]] }
