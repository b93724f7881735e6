package topology

import "github.com/urbandata/datapolygamy/internal/bitvec"

// This file keeps the output-sensitive level-set query of Section 3.2 — a
// flood from the qualifying extrema through qualifying neighbours — as a
// test oracle. Feature extraction marks level sets with a linear scan
// ({v : f(v) >= theta} for a join tree, <= theta for a split tree), which
// equals the flood on a connected domain. On a disconnected one the flood
// misses a component whose oldest extremum stays unpaired (it is not a
// leaf), which is why the scan, not the flood, is the shipped form.

// floodLevelSet ORs into out the level set of t at theta: the super-level
// set f >= theta for a join tree, the sub-level set f <= theta for a split
// tree, reached from the qualifying leaves (a prefix of Leaves).
func floodLevelSet(t *Tree, theta float64, out *bitvec.Vector) {
	beyond := func(x float64) bool {
		if t.kind == Join {
			return x >= theta
		}
		return x <= theta
	}
	seen := bitvec.New(t.g.NumVertices())
	var work []int
	for _, leaf := range t.Leaves {
		if !beyond(t.vals[leaf]) {
			break // leaves are in sweep order, most extreme first
		}
		seen.Set(leaf)
		work = append(work, leaf)
	}
	for i := 0; i < len(work); i++ {
		v := work[i]
		out.Set(v)
		t.g.Neighbors(v, func(u int) {
			if !seen.Get(u) && beyond(t.vals[u]) {
				seen.Set(u)
				work = append(work, u)
			}
		})
	}
}

// levelSetVertices returns the flood's level set as ascending vertex ids.
func levelSetVertices(t *Tree, theta float64) []int {
	out := bitvec.New(t.g.NumVertices())
	floodLevelSet(t, theta, out)
	return out.Ones()
}
