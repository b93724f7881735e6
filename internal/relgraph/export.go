package relgraph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file renders a Graph for external tools: Graphviz DOT for visual
// exploration and a JSON document for machine consumption. Both outputs are
// deterministic — nodes and edges follow the canonical orders — so exports
// are diffable across runs.

// WriteDOT renders the graph as a Graphviz document: one cluster per data
// set, function nodes labeled by spec, edges labeled with tau and rho and
// weighted by |tau|.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph polygamy {")
	fmt.Fprintln(bw, "  node [shape=box, fontsize=10];")

	// Clusters: nodes grouped by data set, both in deterministic order.
	byDS := make(map[string][]Node)
	for _, n := range g.nodes {
		byDS[n.Dataset] = append(byDS[n.Dataset], n)
	}
	for ci, ds := range g.datasets {
		fmt.Fprintf(bw, "  subgraph cluster_%d {\n    label=%q;\n", ci, ds)
		nodes := byDS[ds]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key < nodes[j].Key })
		for _, n := range nodes {
			fmt.Fprintf(bw, "    %q [label=%q];\n", n.Key, n.Spec)
		}
		fmt.Fprintln(bw, "  }")
	}
	for i := range g.links {
		e := g.edge(int32(i))
		fmt.Fprintf(bw, "  %q -- %q [label=\"tau=%.2f rho=%.2f\", weight=%d];\n",
			e.Function1, e.Function2, e.Tau, e.Rho, 1+int(10*abs(e.Tau)))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// jsonGraph is the JSON document shape of a graph export.
type jsonGraph struct {
	Nodes    []jsonNode `json:"nodes"`
	Edges    []EdgeJSON `json:"edges"`
	Datasets []string   `json:"datasets"`
}

type jsonNode struct {
	Key     string `json:"key"`
	Dataset string `json:"dataset"`
	Spec    string `json:"spec"`
	Degree  int    `json:"degree"`
}

// EdgeJSON is the JSON form of one edge, with resolution and class names
// spelled out: the shape of the graph export's edges and of every edge
// list the daemon's graph endpoints return.
type EdgeJSON struct {
	Function1 string  `json:"function1"`
	Function2 string  `json:"function2"`
	Dataset1  string  `json:"dataset1"`
	Dataset2  string  `json:"dataset2"`
	Spatial   string  `json:"spatial"`
	Temporal  string  `json:"temporal"`
	Class     string  `json:"class"`
	Tau       float64 `json:"tau"`
	Rho       float64 `json:"rho"`
	PValue    float64 `json:"pValue"`
	QValue    float64 `json:"qValue"`
}

// MarshalJSON renders the graph as a {nodes, edges, datasets} document with
// resolution and class names spelled out.
func (g *Graph) MarshalJSON() ([]byte, error) {
	doc := jsonGraph{
		Nodes:    make([]jsonNode, 0, len(g.nodes)),
		Edges:    EdgesJSON(g.Edges()),
		Datasets: g.datasets,
	}
	if doc.Datasets == nil {
		doc.Datasets = []string{}
	}
	for _, n := range g.nodes {
		doc.Nodes = append(doc.Nodes, jsonNode(n))
	}
	return json.Marshal(doc)
}

// EdgesJSON converts edges to their JSON form. The result is never nil, so
// an empty list renders as [] rather than null.
func EdgesJSON(edges []Edge) []EdgeJSON {
	out := make([]EdgeJSON, 0, len(edges))
	for _, e := range edges {
		out = append(out, EdgeJSON{
			Function1: e.Function1, Function2: e.Function2,
			Dataset1: e.Dataset1, Dataset2: e.Dataset2,
			Spatial: e.SRes.String(), Temporal: e.TRes.String(), Class: e.Class.String(),
			Tau: e.Tau, Rho: e.Rho, PValue: e.PValue, QValue: e.QValue,
		})
	}
	return out
}

// WriteJSON writes the MarshalJSON document to w with a trailing newline.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g)
}
