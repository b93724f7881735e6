package topology

import (
	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// This file keeps the output-sensitive level-set query of Section 3.2 — a
// flood from the qualifying extrema through qualifying neighbours — as a
// test oracle. Feature extraction marks level sets with a linear scan
// ({v : f(v) >= theta} for a join tree, <= theta for a split tree), which
// equals the flood on a connected domain. On a disconnected one the flood
// misses a component whose oldest extremum stays unpaired (it is not a
// leaf), which is why the scan, not the flood, is the shipped form.

// floodLevelSet ORs into out the level set at theta of t, a merge tree of
// vals on g: the super-level set f >= theta for a join tree, the sub-level
// set f <= theta for a split tree, reached from the qualifying leaves (a
// prefix of Leaves).
func floodLevelSet(g *stgraph.Graph, vals []float64, t *Tree, theta float64, out *bitvec.Vector) {
	beyond := func(x float64) bool {
		if t.kind == Join {
			return x >= theta
		}
		return x <= theta
	}
	seen := bitvec.New(g.NumVertices())
	var work []int
	for _, leaf := range t.Leaves {
		if !beyond(vals[leaf]) {
			break // leaves are in sweep order, most extreme first
		}
		seen.Set(int(leaf))
		work = append(work, int(leaf))
	}
	for i := 0; i < len(work); i++ {
		v := work[i]
		out.Set(v)
		g.Neighbors(v, func(u int) {
			if !seen.Get(u) && beyond(vals[u]) {
				seen.Set(u)
				work = append(work, u)
			}
		})
	}
}

// levelSetVertices returns the flood's level set as ascending vertex ids.
func levelSetVertices(g *stgraph.Graph, vals []float64, t *Tree, theta float64) []int {
	out := bitvec.New(g.NumVertices())
	floodLevelSet(g, vals, t, theta, out)
	return out.Ones()
}
