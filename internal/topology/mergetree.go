// Package topology implements the topological machinery of the Data
// Polygamy framework (Section 3 of the paper): merge trees (join and split
// trees) of piecewise-linear scalar functions on the spatio-temporal domain
// graph, topological persistence with creator/destroyer pairing, and the
// output-sensitive super-/sub-level-set queries used to extract features.
//
// Functions are made Morse by simulated perturbation: ties in function
// value are broken by vertex index, imposing a total order so that no two
// critical values coincide (Appendix B.1).
package topology

import (
	"sort"

	"github.com/urbandata/datapolygamy/internal/bitvec"
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

	// query scratch, allocated by the first LevelSet: visited marks, set
	// and cleared again along the traversal so no query re-zeroes them.
	seen []uint64
	work []int32
}

// Kind returns the tree kind.
func (t *Tree) Kind() Kind { return t.kind }

// NumCriticalPoints returns the number of distinct critical vertices in the
// tree (leaves, saddles, and the root).
func (t *Tree) NumCriticalPoints() int { return t.critical }

// beyond reports whether value x lies in the tree's level set at theta:
// x >= theta for a join tree, x <= theta for a split tree.
func (t *Tree) beyond(x, theta float64) bool {
	if t.kind == Join {
		return x >= theta
	}
	return x <= theta
}

// LevelSet computes the level set at threshold theta into out (which must
// have length g.NumVertices()): the super-level set f >= theta for a join
// tree, the sub-level set f <= theta for a split tree. The traversal starts
// from the qualifying extrema (a prefix of Leaves) and descends only
// through qualifying vertices, making the query output-sensitive
// (Section 3.2). Bits are OR-ed into out.
//
// LevelSet mutates the tree's query scratch, so concurrent calls on one
// Tree are not safe.
func (t *Tree) LevelSet(theta float64, out *bitvec.Vector) {
	if t.seen == nil {
		t.seen = make([]uint64, bitvec.NumWords(t.g.NumVertices()))
	}
	seen := t.seen
	work := t.work[:0] // visited vertices: the level set, once the loop ends
	for _, leaf := range t.Leaves {
		if !t.beyond(t.vals[leaf], theta) {
			break // leaves are in sweep order, most extreme first
		}
		seen[leaf>>6] |= 1 << (leaf & 63)
		work = append(work, int32(leaf))
	}
	for i := 0; i < len(work); i++ {
		v := int(work[i])
		out.Set(v)
		t.g.Neighbors(v, func(u int) {
			if seen[u>>6]&(1<<(u&63)) == 0 && t.beyond(t.vals[u], theta) {
				seen[u>>6] |= 1 << (u & 63)
				work = append(work, int32(u))
			}
		})
	}
	for _, v := range work {
		seen[v>>6] = 0 // every mark set above is some work vertex's
	}
	t.work = work[:0]
}

// LevelSetVertices returns the level set at theta as a fresh slice of
// vertex ids (ascending).
func (t *Tree) LevelSetVertices(theta float64) []int {
	out := bitvec.New(t.g.NumVertices())
	t.LevelSet(theta, out)
	return out.Ones()
}

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
