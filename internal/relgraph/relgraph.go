// Package relgraph materializes the corpus-wide many-many relationship
// graph that is the paper's headline artifact (Section 1): nodes are
// indexed scalar functions, identified by their function keys and grouped
// by data set, and edges are statistically evaluated relationships carrying
// the score tau, the strength rho, the Monte Carlo p-value, and the
// resolution and feature class they were found at.
//
// A Graph is assembled over a function Table: its edges name functions by
// table position, so assembly orders and links them without comparing a
// string, and an Edge with its six strings is materialized only when a
// reader asks for one. A Graph is an immutable value: once assembled it is
// safe for lock-free concurrent reads. The core framework owns graph
// construction and incremental maintenance (core.Framework.BuildGraph);
// this package owns the structure and the graph-level queries pairwise
// relationship queries cannot answer — neighbor lookup, top-k edge ranking,
// data-set rollups, k-hop transitive exploration, and degree/hub
// statistics.
package relgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// Edge is one materialized relationship between two scalar functions, in
// canonical orientation (Function1 <= Function2; tau, rho, and the p-value
// are symmetric).
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

// Function is one scalar function a graph can name. Both functions of a
// relationship share its resolution.
type Function struct {
	Key, Dataset, Spec string
	SRes               spatial.Resolution
	TRes               temporal.Resolution
}

// Table is an immutable function table: the functions a graph's edges name
// by position, with each key's rank in string order and each data set's
// rank among the table's data sets, computed once per table so that no
// per-edge step compares or hashes a string.
type Table struct {
	fns      []Function
	rank     []uint32 // dense rank of fns[i].Key in string order
	ds       []uint32 // rank of fns[i].Dataset among dsNames
	dsNames  []string // the table's data sets, sorted
	numRanks int
}

// maxTableFuncs bounds a table so that two key ranks and a class pack into
// one uint64 sort key (Order).
const maxTableFuncs = 1 << 28

// NewTable ranks the functions of fns, which the table keeps. Keys that
// already ascend, as an index lists them, are ranked without a sort.
func NewTable(fns []Function) *Table {
	if len(fns) >= maxTableFuncs {
		panic(fmt.Sprintf("relgraph: %d functions exceed the table bound %d", len(fns), maxTableFuncs))
	}
	t := &Table{fns: fns, rank: make([]uint32, len(fns)), ds: make([]uint32, len(fns))}
	ids := make([]uint32, len(fns))
	for i := range ids {
		ids[i] = uint32(i)
	}
	byKey := func(a, b uint32) int { return strings.Compare(fns[a].Key, fns[b].Key) }
	if !slices.IsSortedFunc(ids, byKey) {
		slices.SortFunc(ids, byKey)
	}
	for i, id := range ids {
		if i > 0 && fns[id].Key != fns[ids[i-1]].Key {
			t.numRanks++
		}
		t.rank[id] = uint32(t.numRanks)
	}
	if len(fns) > 0 {
		t.numRanks++
	}
	dsRank := make(map[string]uint32)
	for _, f := range fns {
		dsRank[f.Dataset] = 0
	}
	for name := range dsRank {
		t.dsNames = append(t.dsNames, name)
	}
	slices.Sort(t.dsNames)
	for i, name := range t.dsNames {
		dsRank[name] = uint32(i)
	}
	for i, f := range fns {
		t.ds[i] = dsRank[f.Dataset]
	}
	return t
}

// Function returns the function at table position id.
func (t *Table) Function(id uint32) Function { return t.fns[id] }

// Order returns the sort key of a relationship from f1 to f2 at class c:
// the two key ranks and the class packed into one word, so comparing keys
// orders relationships exactly as comparing (Function1, Function2, Class)
// would. c must lie in [0, 256).
func (t *Table) Order(f1, f2 uint32, c feature.Class) uint64 {
	return uint64(t.rank[f1])<<36 | uint64(t.rank[f2])<<8 | uint64(c)
}

// Link is one relationship between two functions of a table, named by
// table position.
type Link struct {
	F1, F2                   uint32
	Class                    feature.Class
	Tau, Rho, PValue, QValue float64
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
	tab       *Table
	links     []Link // canonical orientation, sorted by (Function1, Function2, Class)
	nodes     []Node
	nodeByKey map[string]int
	adj       [][]int32 // node index -> indices into links, in edge order
	datasets  []string  // sorted data sets appearing in any edge
	dsIndex   map[string]int
	dsOf      []int32 // table data set rank -> index into datasets, -1 if absent
	dsDegree  []int   // index into datasets -> incident edges
}

// Assemble builds a graph over t from links naming functions by table
// position. Each link is put in canonical orientation (the smaller key
// first) and the links are ordered by (Function1, Function2, Class)
// through t's key ranks, by counting rather than by comparing; the
// adjacency lists are laid out by counting too. Classes must lie in
// [0, 256). Assemble takes ownership of links.
func Assemble(t *Table, links []Link) *Graph {
	classes := 1
	for i := range links {
		l := &links[i]
		if t.rank[l.F2] < t.rank[l.F1] {
			l.F1, l.F2 = l.F2, l.F1
		}
		classes = max(classes, int(l.Class)+1)
	}
	// Two stable counting passes, least significant key first.
	tmp := make([]Link, len(links))
	countingSort(tmp, links, t.numRanks*classes, func(l *Link) int { return int(t.rank[l.F2])*classes + int(l.Class) })
	countingSort(links, tmp, t.numRanks, func(l *Link) int { return int(t.rank[l.F1]) })
	g := &Graph{tab: t, links: links}

	// Nodes in first appearance along the edge order, identified by key
	// rank; degrees first, so the adjacency lists carve one backing array.
	nodeOf := make([]int32, t.numRanks)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	dsCount := make([]int, len(t.dsNames))
	for _, l := range links {
		for _, f := range [2]uint32{l.F1, l.F2} {
			r := t.rank[f]
			if nodeOf[r] < 0 {
				nodeOf[r] = int32(len(g.nodes))
				fn := &t.fns[f]
				g.nodes = append(g.nodes, Node{Key: fn.Key, Dataset: fn.Dataset, Spec: fn.Spec})
			}
			g.nodes[nodeOf[r]].Degree++
		}
		dsCount[t.ds[l.F1]]++
		if t.ds[l.F2] != t.ds[l.F1] {
			dsCount[t.ds[l.F2]]++
		}
	}
	g.nodeByKey = make(map[string]int, len(g.nodes))
	adjBacking := make([]int32, 2*len(links))
	g.adj = make([][]int32, len(g.nodes))
	off := 0
	for i, n := range g.nodes {
		g.nodeByKey[n.Key] = i
		g.adj[i] = adjBacking[off : off : off+n.Degree]
		off += n.Degree
	}
	g.dsOf = make([]int32, len(t.dsNames))
	g.dsIndex = make(map[string]int)
	for r, cnt := range dsCount {
		g.dsOf[r] = -1
		if cnt > 0 {
			g.dsOf[r] = int32(len(g.datasets))
			g.dsIndex[t.dsNames[r]] = len(g.datasets)
			g.datasets = append(g.datasets, t.dsNames[r])
			g.dsDegree = append(g.dsDegree, cnt)
		}
	}
	for i, l := range links {
		n1, n2 := nodeOf[t.rank[l.F1]], nodeOf[t.rank[l.F2]]
		g.adj[n1] = append(g.adj[n1], int32(i))
		g.adj[n2] = append(g.adj[n2], int32(i))
	}
	return g
}

// countingSort stably places src into dst in ascending key order, keys in
// [0, n).
func countingSort(dst, src []Link, n int, key func(*Link) int) {
	next := make([]int, n+1)
	for i := range src {
		next[key(&src[i])+1]++
	}
	for k := 1; k <= n; k++ {
		next[k] += next[k-1]
	}
	for i := range src {
		k := key(&src[i])
		dst[next[k]] = src[i]
		next[k]++
	}
}

// edge materializes link i, its strings taken from the table.
func (g *Graph) edge(i int32) Edge {
	l := &g.links[i]
	a, b := &g.tab.fns[l.F1], &g.tab.fns[l.F2]
	return Edge{
		Function1: a.Key, Function2: b.Key,
		Dataset1: a.Dataset, Dataset2: b.Dataset,
		Spec1: a.Spec, Spec2: b.Spec,
		SRes: a.SRes, TRes: a.TRes, Class: l.Class,
		Tau: l.Tau, Rho: l.Rho, PValue: l.PValue, QValue: l.QValue,
	}
}

// linkDatasets returns the indices into g.datasets of link i's two data sets.
func (g *Graph) linkDatasets(i int32) (int32, int32) {
	l := &g.links[i]
	return g.dsOf[g.tab.ds[l.F1]], g.dsOf[g.tab.ds[l.F2]]
}

// NumEdges returns the number of materialized relationships.
func (g *Graph) NumEdges() int { return len(g.links) }

// Nodes returns a copy of the node set, ordered by first appearance in the
// canonical edge order.
func (g *Graph) Nodes() []Node { return append([]Node{}, g.nodes...) }

// Edges returns all edges in canonical order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.links))
	for i := range out {
		out[i] = g.edge(int32(i))
	}
	return out
}

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
		out[i] = g.edge(ei)
	}
	return out
}

// DatasetEdges returns the edges incident to any function of a data set, in
// canonical order (nil when the data set has no relationships). It scans
// the edge list: no per-data-set list is kept.
func (g *Graph) DatasetEdges(ds string) []Edge {
	d, ok := g.dsIndex[ds]
	if !ok {
		return nil
	}
	out := make([]Edge, 0, g.dsDegree[d])
	for i := range g.links {
		if a, b := g.linkDatasets(int32(i)); a == int32(d) || b == int32(d) {
			out = append(out, g.edge(int32(i)))
		}
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

// TopK returns the k highest-ranked edges by the given criterion among
// those with q-value <= maxQ, ties broken by canonical edge order so the
// result is deterministic. k <= 0 or k > the edges kept returns them all
// ranked; maxQ <= 0 applies no filter. Combined with ByQValue this answers
// "the k most trustworthy relationships under the graph's correction".
func (g *Graph) TopK(k int, by RankBy, maxQ float64) []Edge {
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
	for i, l := range g.links {
		if maxQ > 0 && l.QValue > maxQ {
			continue
		}
		out = append(out, g.edge(int32(i)))
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

// Rollup aggregates the edges with q-value <= maxQ to data-set
// granularity, sorted by the data set pair; maxQ <= 0 applies no filter.
// Data set pairs whose every edge is filtered out do not appear in the
// result. Relations are keyed by data set index, so no two distinct pairs
// can share a key whatever their names contain.
func (g *Graph) Rollup(maxQ float64) []DatasetRelation {
	agg := make(map[[2]int32]*DatasetRelation)
	var keys [][2]int32
	for i, l := range g.links {
		if maxQ > 0 && l.QValue > maxQ {
			continue
		}
		a, b := g.linkDatasets(int32(i))
		if b < a {
			a, b = b, a
		}
		k := [2]int32{a, b}
		r, ok := agg[k]
		if !ok {
			r = &DatasetRelation{Dataset1: g.datasets[a], Dataset2: g.datasets[b], MinPValue: l.PValue, MinQValue: l.QValue}
			agg[k] = r
			keys = append(keys, k)
		}
		r.Edges++
		if t := abs(l.Tau); t > r.MaxAbsTau {
			r.MaxAbsTau = t
		}
		if l.Rho > r.MaxRho {
			r.MaxRho = l.Rho
		}
		if l.PValue < r.MinPValue {
			r.MinPValue = l.PValue
		}
		if l.QValue < r.MinQValue {
			r.MinQValue = l.QValue
		}
	}
	slices.SortFunc(keys, func(x, y [2]int32) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
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
	s, ok := g.dsIndex[start]
	if !ok {
		return nil
	}
	dist := map[string]int{start: 0}
	hops := make([]int, len(g.datasets)) // hop distance + 1; 0 = not reached
	hops[s] = 1
	for hop, grew := 1, true; hop <= k && grew; hop++ {
		grew = false
		for i := range g.links {
			a, b := g.linkDatasets(int32(i))
			for _, e := range [2][2]int32{{a, b}, {b, a}} {
				if from, to := e[0], e[1]; hops[from] == hop && hops[to] == 0 {
					hops[to] = hop + 1
					dist[g.datasets[to]] = hop
					grew = true
				}
			}
		}
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
	st := Stats{Nodes: len(g.nodes), Edges: len(g.links), Datasets: len(g.datasets)}
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
	for i, ds := range g.datasets {
		dss = append(dss, Hub{Name: ds, Degree: g.dsDegree[i]})
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
	if len(g.links) != len(o.links) {
		return false
	}
	for i := range g.links {
		if g.edge(int32(i)) != o.edge(int32(i)) {
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
