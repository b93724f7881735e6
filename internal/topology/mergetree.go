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

// Tree is a merge tree of a scalar function reduced to its persistence
// pairing: the tree's leaves and the pair each creates. Construct with
// ComputeJoin, ComputeSplit or ComputeBoth.
type Tree struct {
	kind Kind
	// Extrema holds the non-root leaf vertices (maxima for Join, minima for
	// Split) in sweep order, i.e. most extreme first, with their
	// persistence and the tree's critical-point count.
	Extrema
	// Pairs[i] is the persistence pair of Leaves[i].
	Pairs []Pair
}

// Kind returns the tree kind.
func (t *Tree) Kind() Kind { return t.kind }

// NumCriticalPoints returns the number of distinct critical vertices in the
// tree (leaves, saddles, and the root).
func (t *Tree) NumCriticalPoints() int { return t.Critical }

// Extrema is one merge tree reduced to what feature thresholds read: its
// leaves in sweep order, most extreme first, and the persistence of each.
// Persistence fills it in place, so a caller that keeps one Extrema per
// worker reuses its buffers from function to function.
type Extrema struct {
	Leaves      []int32
	Persistence []float64
	// Critical counts the tree's distinct critical vertices: leaves,
	// saddles and the root.
	Critical int
}
