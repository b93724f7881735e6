// Package relgraph materializes the corpus-wide many-many relationship
// graph that is the paper's headline artifact (Section 1): nodes are
// indexed scalar functions, identified by their function keys and grouped
// by data set, and edges are statistically evaluated relationships carrying
// the score tau, the strength rho, the Monte Carlo p-value, and the
// resolution and feature class they were found at.
//
// A Graph is an immutable value: once built (New) it is safe for
// lock-free concurrent reads. The core framework owns graph construction
// and incremental maintenance (core.Framework.BuildGraph); this package
// owns the structure and the graph-level queries pairwise relationship
// queries cannot answer — neighbor lookup, top-k edge ranking, data-set
// rollups, k-hop transitive exploration, and degree/hub statistics.
package relgraph

import (
	"fmt"
	"sort"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Edge is one materialized relationship between two scalar functions. It is
// stored in canonical orientation (Function1 < Function2); New reorients
// edges as needed (tau, rho, and the p-value are symmetric).
type Edge struct {
	Function1, Function2 string // function keys, e.g. "taxi/density@city,hour"
	Dataset1, Dataset2   string
	Spec1, Spec2         string

	SRes  spatial.Resolution
	TRes  temporal.Resolution
	Class feature.Class

	Tau    float64 // relationship score
	Rho    float64 // relationship strength
	PValue float64
	// QValue is the corrected p-value over the family the graph was built
	// from (core.Clause.Correction); equal to PValue when no correction was
	// applied. Like tau, rho, and the p-value it is symmetric in the pair.
	QValue float64
}

// String renders the edge in the paper's reporting style.
func (e Edge) String() string {
	s := fmt.Sprintf("%s ~ %s (%s, %s) [%s]: tau=%.2f rho=%.2f p=%.3f",
		e.Function1, e.Function2, e.TRes, e.SRes, e.Class, e.Tau, e.Rho, e.PValue)
	if e.QValue != e.PValue {
		s += fmt.Sprintf(" q=%.3f", e.QValue)
	}
	return s
}

// canonical returns the edge with Function1 <= Function2.
func (e Edge) canonical() Edge {
	if e.Function2 < e.Function1 {
		e.Function1, e.Function2 = e.Function2, e.Function1
		e.Dataset1, e.Dataset2 = e.Dataset2, e.Dataset1
		e.Spec1, e.Spec2 = e.Spec2, e.Spec1
	}
	return e
}

// Node is one graph vertex: an indexed scalar function that participates in
// at least one relationship.
type Node struct {
	Key     string // function key
	Dataset string
	Spec    string
	Degree  int // incident edges
}

// Graph is the materialized relationship graph. Zero-degree functions are
// not represented: the node set is exactly the functions that appear in an
// edge.
type Graph struct {
	nodes     []Node
	nodeByKey map[string]int
	edges     []Edge  // sorted by (Function1, Function2, Class)
	adj       [][]int // node index -> indices into edges, in edge order
	dsEdges   map[string][]int
	datasets  []string // sorted data sets appearing in any edge
}

// SortEdges orders edges canonically: by function pair, then class. Every
// slice of edges inside a Graph is kept in this order, which is what makes
// graph comparison (Equal) and persistence deterministic.
func SortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Function1 != es[j].Function1 {
			return es[i].Function1 < es[j].Function1
		}
		if es[i].Function2 != es[j].Function2 {
			return es[i].Function2 < es[j].Function2
		}
		return es[i].Class < es[j].Class
	})
}

// New builds a graph from a set of edges. Edges are canonicalised and
// sorted; the input slice is not retained or mutated.
func New(edges []Edge) *Graph {
	g := &Graph{
		nodeByKey: make(map[string]int, 2*len(edges)),
		dsEdges:   make(map[string][]int),
		edges:     make([]Edge, len(edges)),
	}
	for i, e := range edges {
		g.edges[i] = e.canonical()
	}
	SortEdges(g.edges)

	// First pass assigns node ids and counts degrees, so the adjacency
	// lists can carve one shared backing array instead of growing each
	// list by repeated appends (this runs on the warm-open path).
	node := func(key, ds, spec string) int {
		if id, ok := g.nodeByKey[key]; ok {
			return id
		}
		id := len(g.nodes)
		g.nodes = append(g.nodes, Node{Key: key, Dataset: ds, Spec: spec})
		g.nodeByKey[key] = id
		return id
	}
	dsCount := make(map[string]int)
	for _, e := range g.edges {
		g.nodes[node(e.Function1, e.Dataset1, e.Spec1)].Degree++
		g.nodes[node(e.Function2, e.Dataset2, e.Spec2)].Degree++
		dsCount[e.Dataset1]++
		if e.Dataset2 != e.Dataset1 {
			dsCount[e.Dataset2]++
		}
	}
	adjBacking := make([]int, 0, 2*len(g.edges))
	g.adj = make([][]int, len(g.nodes))
	for i, n := range g.nodes {
		off := len(adjBacking)
		adjBacking = adjBacking[:off+n.Degree]
		g.adj[i] = adjBacking[off : off : off+n.Degree]
	}
	dsBacking := make([]int, 0, 2*len(g.edges))
	g.datasets = make([]string, 0, len(dsCount))
	for ds, cnt := range dsCount {
		off := len(dsBacking)
		dsBacking = dsBacking[:off+cnt]
		g.dsEdges[ds] = dsBacking[off : off : off+cnt]
		g.datasets = append(g.datasets, ds)
	}
	sort.Strings(g.datasets)
	for i, e := range g.edges {
		n1, n2 := g.nodeByKey[e.Function1], g.nodeByKey[e.Function2]
		g.adj[n1] = append(g.adj[n1], i)
		g.adj[n2] = append(g.adj[n2], i)
		g.dsEdges[e.Dataset1] = append(g.dsEdges[e.Dataset1], i)
		if e.Dataset2 != e.Dataset1 {
			g.dsEdges[e.Dataset2] = append(g.dsEdges[e.Dataset2], i)
		}
	}
	return g
}

// NumNodes returns the number of functions participating in relationships.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of materialized relationships.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Nodes returns a copy of the node set, ordered by first appearance in the
// canonical edge order.
func (g *Graph) Nodes() []Node { return append([]Node{}, g.nodes...) }

// Edges returns a copy of all edges in canonical order.
func (g *Graph) Edges() []Edge { return append([]Edge{}, g.edges...) }

// Datasets returns the sorted data sets that appear in at least one edge.
func (g *Graph) Datasets() []string { return append([]string{}, g.datasets...) }

// Neighbors returns the edges incident to a function, in canonical order
// (nil when the function has no relationships).
func (g *Graph) Neighbors(functionKey string) []Edge {
	id, ok := g.nodeByKey[functionKey]
	if !ok {
		return nil
	}
	out := make([]Edge, len(g.adj[id]))
	for i, ei := range g.adj[id] {
		out[i] = g.edges[ei]
	}
	return out
}

// DatasetEdges returns the edges incident to any function of a data set, in
// canonical order (nil when the data set has no relationships).
func (g *Graph) DatasetEdges(ds string) []Edge {
	idxs := g.dsEdges[ds]
	if idxs == nil {
		return nil
	}
	out := make([]Edge, len(idxs))
	for i, ei := range idxs {
		out[i] = g.edges[ei]
	}
	return out
}

// RankBy selects the edge-ranking criterion of TopK.
type RankBy int

const (
	// ByScore ranks by |tau| descending.
	ByScore RankBy = iota
	// ByStrength ranks by rho descending.
	ByStrength
	// ByQValue ranks by q-value ascending (most significant first).
	ByQValue
)

func (r RankBy) String() string {
	switch r {
	case ByStrength:
		return "strength"
	case ByQValue:
		return "qvalue"
	default:
		return "score"
	}
}

// TopK returns the k highest-ranked edges by the given criterion, ties
// broken by canonical edge order so the result is deterministic. k <= 0 or
// k > NumEdges returns all edges ranked.
func (g *Graph) TopK(k int, by RankBy) []Edge {
	return g.TopKMaxQ(k, by, 0)
}

// TopKMaxQ is TopK restricted to edges with q-value <= maxQ; maxQ <= 0
// applies no filter. Combined with ByQValue this answers "the k most
// trustworthy relationships under the graph's correction".
func (g *Graph) TopKMaxQ(k int, by RankBy, maxQ float64) []Edge {
	rank := func(e Edge) float64 {
		switch by {
		case ByStrength:
			return e.Rho
		case ByQValue:
			return -e.QValue // ascending: smaller q ranks higher
		default:
			return abs(e.Tau)
		}
	}
	var out []Edge
	for _, e := range g.edges {
		if maxQ > 0 && e.QValue > maxQ {
			continue
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) > rank(out[j]) })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// DatasetRelation is one data-set-level rollup: all edges between functions
// of two data sets aggregated into a single relation — the "which data sets
// are related" view of the paper's Section 1 scenarios.
type DatasetRelation struct {
	Dataset1, Dataset2 string // Dataset1 < Dataset2
	Edges              int
	MaxAbsTau          float64
	MaxRho             float64
	MinPValue          float64
	MinQValue          float64
}

// Rollup aggregates edges to data-set granularity, sorted by the data set
// pair.
func (g *Graph) Rollup() []DatasetRelation {
	return g.RollupMaxQ(0)
}

// RollupMaxQ is Rollup restricted to edges with q-value <= maxQ; maxQ <= 0
// applies no filter. Data set pairs whose every edge is filtered out do not
// appear in the result.
func (g *Graph) RollupMaxQ(maxQ float64) []DatasetRelation {
	agg := make(map[string]*DatasetRelation)
	var keys []string
	for _, e := range g.edges {
		if maxQ > 0 && e.QValue > maxQ {
			continue
		}
		a, b := e.Dataset1, e.Dataset2
		if b < a {
			a, b = b, a
		}
		k := a + "|" + b
		r, ok := agg[k]
		if !ok {
			r = &DatasetRelation{Dataset1: a, Dataset2: b, MinPValue: e.PValue, MinQValue: e.QValue}
			agg[k] = r
			keys = append(keys, k)
		}
		r.Edges++
		if t := abs(e.Tau); t > r.MaxAbsTau {
			r.MaxAbsTau = t
		}
		if e.Rho > r.MaxRho {
			r.MaxRho = e.Rho
		}
		if e.PValue < r.MinPValue {
			r.MinPValue = e.PValue
		}
		if e.QValue < r.MinQValue {
			r.MinQValue = e.QValue
		}
	}
	sort.Strings(keys)
	out := make([]DatasetRelation, len(keys))
	for i, k := range keys {
		out[i] = *agg[k]
	}
	return out
}

// KHop explores the data-set-level graph transitively: it returns every
// data set reachable from start within k hops (an edge between any two
// functions of two data sets is one hop), mapped to its hop distance. The
// start data set itself maps to 0. An unknown or isolated start yields only
// the start entry when it is registered in the graph, or nil otherwise.
func (g *Graph) KHop(start string, k int) map[string]int {
	if _, ok := g.dsEdges[start]; !ok {
		return nil
	}
	dist := map[string]int{start: 0}
	frontier := []string{start}
	for hop := 1; hop <= k && len(frontier) > 0; hop++ {
		var next []string
		for _, ds := range frontier {
			for _, ei := range g.dsEdges[ds] {
				e := g.edges[ei]
				for _, other := range [2]string{e.Dataset1, e.Dataset2} {
					if _, seen := dist[other]; !seen {
						dist[other] = hop
						next = append(next, other)
					}
				}
			}
		}
		frontier = next
	}
	return dist
}

// Hub is one high-degree entity in the degree statistics.
type Hub struct {
	Name   string
	Degree int
}

// Stats summarises the graph's shape: sizes, degree distribution, and the
// hub functions and data sets (the paper's "polygamous" data sets).
type Stats struct {
	Nodes    int
	Edges    int
	Datasets int

	MinDegree  int
	MaxDegree  int
	MeanDegree float64

	// TopFunctions and TopDatasets are the highest-degree functions and
	// data sets (data-set degree counts incident edges), at most 5 each,
	// ties broken by name.
	TopFunctions []Hub
	TopDatasets  []Hub
}

const topHubs = 5

// Stats computes the graph's degree/hub statistics.
func (g *Graph) Stats() Stats {
	st := Stats{Nodes: len(g.nodes), Edges: len(g.edges), Datasets: len(g.datasets)}
	if len(g.nodes) == 0 {
		return st
	}
	st.MinDegree = g.nodes[0].Degree
	total := 0
	fns := make([]Hub, 0, len(g.nodes))
	for _, n := range g.nodes {
		total += n.Degree
		if n.Degree < st.MinDegree {
			st.MinDegree = n.Degree
		}
		if n.Degree > st.MaxDegree {
			st.MaxDegree = n.Degree
		}
		fns = append(fns, Hub{Name: n.Key, Degree: n.Degree})
	}
	st.MeanDegree = float64(total) / float64(len(g.nodes))
	st.TopFunctions = topOf(fns)
	dss := make([]Hub, 0, len(g.datasets))
	for _, ds := range g.datasets {
		dss = append(dss, Hub{Name: ds, Degree: len(g.dsEdges[ds])})
	}
	st.TopDatasets = topOf(dss)
	return st
}

func topOf(hubs []Hub) []Hub {
	sort.Slice(hubs, func(i, j int) bool {
		if hubs[i].Degree != hubs[j].Degree {
			return hubs[i].Degree > hubs[j].Degree
		}
		return hubs[i].Name < hubs[j].Name
	})
	if len(hubs) > topHubs {
		hubs = hubs[:topHubs]
	}
	return hubs
}

// Equal reports whether two graphs materialize exactly the same edge set —
// same pairs, classes, resolutions, and bit-identical tau, rho, and
// p-values. Since every derived structure is a function of the canonical
// edge list, equal edge lists mean equal graphs.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.edges) != len(o.edges) {
		return false
	}
	for i := range g.edges {
		if g.edges[i] != o.edges[i] {
			return false
		}
	}
	return true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
