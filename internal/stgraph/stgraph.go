// Package stgraph implements the graph representation G = (V, E) of the
// spatio-temporal domain of a scalar function (Section 3.1 of the Data
// Polygamy paper).
//
// Vertex v_{x,z} represents region s_x at time step t_z, so |V| = n*m for n
// regions and m steps. Edges come in two kinds:
//
//   - spatial edges connect adjacent regions within the same time step;
//   - temporal edges connect the same region across consecutive steps.
//
// The graph is stored implicitly — a region adjacency list shared by all
// time steps plus the step count — which keeps memory linear in the spatial
// domain rather than in |V|, and gives a single uniform representation for
// every dimensionality (1D pure time series, 3D space-time volumes, ...).
package stgraph

import (
	"fmt"
	"math"
)

// Graph is the spatio-temporal domain graph of a scalar function.
type Graph struct {
	nRegions int
	nSteps   int
	spatAdj  [][]int // region adjacency; shared by every time step
	nSpatial int     // number of undirected spatial edges per step
	// Flat neighbor table for index-based traversal, see NeighborOffsets.
	nbrOff, nbrDelta []int32
	// Spatial neighbor bit masks per region, see NeighborMasks.
	maskOff []int32
	masks   []MaskWord
}

// MaskWord is one 64-region word of a region's spatial neighbor mask: bit b
// of Bits stands for region 64*Word + b.
type MaskWord struct {
	Word int32
	Bits uint64
}

// New builds a domain graph for nRegions spatial regions over nSteps time
// steps with the given region adjacency (adjacency lists must be symmetric,
// irreflexive and free of repeats; len(spatAdj) must equal nRegions).
// Vertex ids are stored as int32 by the merge-tree kernel, so |V| =
// nRegions*nSteps must not exceed math.MaxInt32.
func New(nRegions, nSteps int, spatAdj [][]int) (*Graph, error) {
	if nRegions <= 0 || nSteps <= 0 {
		return nil, fmt.Errorf("stgraph: need positive regions (%d) and steps (%d)", nRegions, nSteps)
	}
	if nSteps > math.MaxInt32/nRegions {
		return nil, fmt.Errorf("stgraph: %d regions x %d steps exceeds the %d-vertex limit", nRegions, nSteps, math.MaxInt32)
	}
	if len(spatAdj) != nRegions {
		return nil, fmt.Errorf("stgraph: adjacency has %d regions, want %d", len(spatAdj), nRegions)
	}
	deg := 0
	maskOff := make([]int32, nRegions+1)
	masks := make([]MaskWord, 0, nRegions)
	for r, nbrs := range spatAdj {
		first := len(masks)
		for _, u := range nbrs {
			if u < 0 || u >= nRegions {
				return nil, fmt.Errorf("stgraph: region %d has out-of-range neighbor %d", r, u)
			}
			if u == r {
				return nil, fmt.Errorf("stgraph: region %d adjacent to itself", r)
			}
			word, bit := int32(u>>6), uint64(1)<<(u&63)
			i := first
			for i < len(masks) && masks[i].Word != word {
				i++
			}
			if i == len(masks) {
				masks = append(masks, MaskWord{Word: word})
			}
			if masks[i].Bits&bit != 0 {
				return nil, fmt.Errorf("stgraph: region %d lists neighbor %d twice", r, u)
			}
			masks[i].Bits |= bit
		}
		maskOff[r+1] = int32(len(masks))
		deg += len(nbrs)
	}
	for r, nbrs := range spatAdj {
		for _, u := range nbrs {
			if !inMask(masks[maskOff[u]:maskOff[u+1]], r) {
				return nil, fmt.Errorf("stgraph: region %d lists neighbor %d, which does not list it", r, u)
			}
		}
	}
	nbrOff := make([]int32, nRegions+1)
	nbrDelta := make([]int32, 0, deg+2*nRegions)
	for r, nbrs := range spatAdj {
		for _, u := range nbrs {
			nbrDelta = append(nbrDelta, int32(u-r))
		}
		nbrDelta = append(nbrDelta, int32(-nRegions), int32(nRegions))
		nbrOff[r+1] = int32(len(nbrDelta))
	}
	return &Graph{nRegions: nRegions, nSteps: nSteps, spatAdj: spatAdj, nSpatial: deg / 2,
		nbrOff: nbrOff, nbrDelta: nbrDelta, maskOff: maskOff, masks: masks}, nil
}

// inMask reports whether region r is set in the neighbor mask m.
func inMask(m []MaskWord, r int) bool {
	for _, w := range m {
		if w.Word == int32(r>>6) {
			return w.Bits>>(r&63)&1 != 0
		}
	}
	return false
}

// NumRegions returns the number of spatial regions n.
func (g *Graph) NumRegions() int { return g.nRegions }

// NumSteps returns the number of time steps m.
func (g *Graph) NumSteps() int { return g.nSteps }

// NumVertices returns |V| = n*m.
func (g *Graph) NumVertices() int { return g.nRegions * g.nSteps }

// NumEdges returns |E| = |ES| + |ET|: spatial edges replicated per step plus
// temporal edges linking consecutive steps.
func (g *Graph) NumEdges() int {
	return g.nSpatial*g.nSteps + g.nRegions*(g.nSteps-1)
}

// Vertex returns the vertex id of (region, step).
func (g *Graph) Vertex(region, step int) int { return step*g.nRegions + region }

// RegionStep decomposes a vertex id into its (region, step) pair.
func (g *Graph) RegionStep(v int) (region, step int) {
	return v % g.nRegions, v / g.nRegions
}

// Neighbors calls visit for every vertex adjacent to v: spatially adjacent
// regions at the same step, and the same region at the previous and next
// steps. Using a callback keeps traversals allocation-free.
func (g *Graph) Neighbors(v int, visit func(u int)) {
	region, step := g.RegionStep(v)
	base := step * g.nRegions
	for _, r := range g.spatAdj[region] {
		visit(base + r)
	}
	if step > 0 {
		visit(v - g.nRegions)
	}
	if step+1 < g.nSteps {
		visit(v + g.nRegions)
	}
}

// Degree returns the number of neighbors of vertex v.
func (g *Graph) Degree(v int) int {
	region, step := g.RegionStep(v)
	d := len(g.spatAdj[region])
	if step > 0 {
		d++
	}
	if step+1 < g.nSteps {
		d++
	}
	return d
}

// NeighborOffsets exposes the adjacency as a flat table (read-only) for
// traversals that cannot afford a callback: the neighbors of a vertex v of
// region r are v+delta[i] for off[r] <= i < off[r+1], skipping sums outside
// [0, NumVertices()) — the previous step of the first and the next step of
// the last. They come in the order Neighbors visits them.
func (g *Graph) NeighborOffsets() (off, delta []int32) { return g.nbrOff, g.nbrDelta }

// NeighborMasks exposes the spatial adjacency as bit masks (read-only): the
// spatial neighbors of region r are the set bits of masks[i] for off[r] <=
// i < off[r+1], one entry for each 64-region word that holds a neighbor.
func (g *Graph) NeighborMasks() (off []int32, masks []MaskWord) { return g.maskOff, g.masks }

// SpatialAdjacency exposes the shared region adjacency lists (read-only).
func (g *Graph) SpatialAdjacency() [][]int { return g.spatAdj }
