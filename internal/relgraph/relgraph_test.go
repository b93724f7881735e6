package relgraph

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// edge builds a test edge between two function keys "<ds>/<spec>".
func edge(f1, f2 string, class feature.Class, tau, rho, p float64) Edge {
	split := func(key string) (ds, spec string) {
		parts := strings.SplitN(key, "/", 2)
		return parts[0], parts[1]
	}
	d1, s1 := split(f1)
	d2, s2 := split(f2)
	return Edge{
		Function1: f1, Function2: f2,
		Dataset1: d1, Dataset2: d2,
		Spec1: s1, Spec2: s2,
		SRes: spatial.City, TRes: temporal.Hour, Class: class,
		Tau: tau, Rho: rho, PValue: p, QValue: 2 * p, // a corrected family has q >= p
	}
}

// build assembles a graph from materialized edges over a table holding
// each distinct function once, in first-seen order.
func build(edges []Edge) *Graph {
	var fns []Function
	ids := make(map[string]uint32)
	id := func(key, ds, spec string, e Edge) uint32 {
		if i, ok := ids[key]; ok {
			return i
		}
		ids[key] = uint32(len(fns))
		fns = append(fns, Function{Key: key, Dataset: ds, Spec: spec, SRes: e.SRes, TRes: e.TRes})
		return ids[key]
	}
	links := make([]Link, len(edges))
	for i, e := range edges {
		links[i] = Link{
			F1: id(e.Function1, e.Dataset1, e.Spec1, e), F2: id(e.Function2, e.Dataset2, e.Spec2, e),
			Class: e.Class, Tau: e.Tau, Rho: e.Rho, PValue: e.PValue, QValue: e.QValue,
		}
	}
	return Assemble(NewTable(fns), links)
}

func testGraph() *Graph {
	return build([]Edge{
		edge("taxi/density", "weather/wind", feature.Salient, -0.9, 0.8, 0.001),
		edge("taxi/density", "weather/wind", feature.Extreme, -0.7, 0.5, 0.010),
		edge("weather/wind", "citibike/trips", feature.Salient, 0.6, 0.4, 0.020),
		edge("citibike/trips", "events/count", feature.Extreme, 0.95, 0.9, 0.002),
	})
}

func TestNewCanonicalises(t *testing.T) {
	// The same edges in reversed orientation and shuffled order must build
	// an identical graph.
	fwd := testGraph()
	var rev []Edge
	for _, e := range fwd.Edges() {
		e.Function1, e.Function2 = e.Function2, e.Function1
		e.Dataset1, e.Dataset2 = e.Dataset2, e.Dataset1
		e.Spec1, e.Spec2 = e.Spec2, e.Spec1
		rev = append([]Edge{e}, rev...)
	}
	if g := build(rev); !g.Equal(fwd) {
		t.Error("reversed/shuffled edges built a different graph")
	}
}

func TestGraphShape(t *testing.T) {
	g := testGraph()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("nodes=%d edges=%d, want 4/4", g.NumNodes(), g.NumEdges())
	}
	want := []string{"citibike", "events", "taxi", "weather"}
	got := g.Datasets()
	if len(got) != len(want) {
		t.Fatalf("datasets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("datasets[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := testGraph()
	n := g.Neighbors("weather/wind")
	if len(n) != 3 {
		t.Fatalf("weather/wind has %d incident edges, want 3", len(n))
	}
	for _, e := range n {
		if e.Function1 != "weather/wind" && e.Function2 != "weather/wind" {
			t.Errorf("edge %v not incident to weather/wind", e)
		}
	}
	if g.Neighbors("nope/none") != nil {
		t.Error("unknown function should have nil neighbors")
	}
}

func TestDatasetEdges(t *testing.T) {
	g := testGraph()
	if n := len(g.DatasetEdges("taxi")); n != 2 {
		t.Errorf("taxi has %d incident edges, want 2", n)
	}
	if n := len(g.DatasetEdges("citibike")); n != 2 {
		t.Errorf("citibike has %d incident edges, want 2", n)
	}
	if g.DatasetEdges("nope") != nil {
		t.Error("unknown dataset should have nil edges")
	}
}

func TestTopK(t *testing.T) {
	g := testGraph()
	top := g.TopK(2, ByScore, 0)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d edges", len(top))
	}
	if top[0].Tau != 0.95 || top[1].Tau != -0.9 {
		t.Errorf("TopK by score = %.2f, %.2f; want 0.95, -0.90", top[0].Tau, top[1].Tau)
	}
	top = g.TopK(1, ByStrength, 0)
	if top[0].Rho != 0.9 {
		t.Errorf("TopK by strength = %.2f, want 0.90", top[0].Rho)
	}
	if n := len(g.TopK(0, ByScore, 0)); n != g.NumEdges() {
		t.Errorf("TopK(0) returned %d edges, want all %d", n, g.NumEdges())
	}
}

func TestTopKByQValue(t *testing.T) {
	g := testGraph()
	top := g.TopK(0, ByQValue, 0)
	if len(top) != g.NumEdges() {
		t.Fatalf("TopK(0, ByQValue) returned %d edges", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].QValue < top[i-1].QValue {
			t.Fatalf("ByQValue not ascending: q[%d]=%g after q[%d]=%g",
				i, top[i].QValue, i-1, top[i-1].QValue)
		}
	}
	if top[0].QValue != 0.002 {
		t.Errorf("most significant edge q = %g, want 0.002", top[0].QValue)
	}
	// The q filter keeps exactly the edges at or below the cutoff.
	few := g.TopK(0, ByScore, 0.005)
	if len(few) != 2 {
		t.Fatalf("TopK(maxQ = 0.005) kept %d edges, want 2", len(few))
	}
	for _, e := range few {
		if e.QValue > 0.005 {
			t.Errorf("edge with q = %g survived maxQ = 0.005", e.QValue)
		}
	}
	if n := len(g.TopK(1, ByQValue, 0.005)); n != 1 {
		t.Errorf("TopK(k = 1, maxQ = 0.005) returned %d edges", n)
	}
}

func TestRollup(t *testing.T) {
	g := testGraph()
	roll := g.Rollup(0)
	if len(roll) != 3 {
		t.Fatalf("rollup has %d relations, want 3", len(roll))
	}
	// taxi|weather aggregates two edges (one per class).
	var tw *DatasetRelation
	for i := range roll {
		if roll[i].Dataset1 == "taxi" && roll[i].Dataset2 == "weather" {
			tw = &roll[i]
		}
		if roll[i].Dataset1 >= roll[i].Dataset2 {
			t.Errorf("rollup pair %q/%q not ordered", roll[i].Dataset1, roll[i].Dataset2)
		}
	}
	if tw == nil {
		t.Fatal("taxi|weather relation missing")
	}
	if tw.Edges != 2 || tw.MaxAbsTau != 0.9 || tw.MaxRho != 0.8 || tw.MinPValue != 0.001 {
		t.Errorf("taxi|weather rollup = %+v", *tw)
	}
	if tw.MinQValue != 0.002 {
		t.Errorf("taxi|weather MinQValue = %g, want 0.002", tw.MinQValue)
	}
}

func TestRollupMaxQ(t *testing.T) {
	g := testGraph()
	// q-values are 2p: {0.002, 0.02, 0.04, 0.004}. A cutoff of 0.01 keeps
	// only taxi|weather (salient) and citibike|events.
	roll := g.Rollup(0.01)
	if len(roll) != 2 {
		t.Fatalf("Rollup(0.01) = %+v, want 2 relations", roll)
	}
	for _, r := range roll {
		if r.Edges != 1 {
			t.Errorf("relation %s|%s aggregates %d edges, want 1 after the q filter",
				r.Dataset1, r.Dataset2, r.Edges)
		}
		if r.MinQValue > 0.01 {
			t.Errorf("relation %s|%s MinQValue = %g exceeds the cutoff", r.Dataset1, r.Dataset2, r.MinQValue)
		}
	}
}

func TestKHop(t *testing.T) {
	g := testGraph()
	hops := g.KHop("taxi", 2)
	want := map[string]int{"taxi": 0, "weather": 1, "citibike": 2}
	if len(hops) != len(want) {
		t.Fatalf("KHop(taxi, 2) = %v", hops)
	}
	for ds, d := range want {
		if hops[ds] != d {
			t.Errorf("KHop[%s] = %d, want %d", ds, hops[ds], d)
		}
	}
	if hops := g.KHop("taxi", 3); hops["events"] != 3 {
		t.Errorf("KHop(taxi, 3)[events] = %d, want 3", hops["events"])
	}
	if g.KHop("nope", 2) != nil {
		t.Error("unknown start should yield nil")
	}
}

func TestStats(t *testing.T) {
	g := testGraph()
	st := g.Stats()
	if st.Nodes != 4 || st.Edges != 4 || st.Datasets != 4 {
		t.Errorf("stats sizes = %+v", st)
	}
	if st.MaxDegree != 3 || st.MinDegree != 1 {
		t.Errorf("degrees = [%d, %d], want [1, 3]", st.MinDegree, st.MaxDegree)
	}
	if st.MeanDegree != 2 {
		t.Errorf("mean degree = %v, want 2", st.MeanDegree)
	}
	if len(st.TopFunctions) == 0 || st.TopFunctions[0].Name != "weather/wind" {
		t.Errorf("top function = %+v, want weather/wind", st.TopFunctions)
	}
	empty := build(nil).Stats()
	if empty.Nodes != 0 || empty.Edges != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestWriteDOT(t *testing.T) {
	g := testGraph()
	var a, b bytes.Buffer
	if err := g.WriteDOT(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("DOT export is not deterministic")
	}
	out := a.String()
	for _, want := range []string{"graph polygamy {", `"taxi/density" -- "weather/wind"`, `label="taxi"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	g := testGraph()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Nodes []struct {
			Key    string `json:"key"`
			Degree int    `json:"degree"`
		} `json:"nodes"`
		Edges []struct {
			Class string  `json:"class"`
			Tau   float64 `json:"tau"`
		} `json:"edges"`
		Datasets []string `json:"datasets"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 4 || len(doc.Edges) != 4 || len(doc.Datasets) != 4 {
		t.Errorf("JSON doc sizes: %d nodes, %d edges, %d datasets",
			len(doc.Nodes), len(doc.Edges), len(doc.Datasets))
	}
	if doc.Edges[0].Class == "" {
		t.Error("edge class not spelled out in JSON")
	}
}

// TestRollupKeepsPipedNamesApart: data set names are unrestricted, so a
// rollup keyed on a joined string would fold ("x|y", "z") and ("x", "y|z")
// into one relation. They are two.
func TestRollupKeepsPipedNamesApart(t *testing.T) {
	g := build([]Edge{
		{Function1: "x|y/a", Function2: "z/b", Dataset1: "x|y", Dataset2: "z", Spec1: "a", Spec2: "b", Tau: 0.5, Rho: 0.5, PValue: 0.01, QValue: 0.01},
		{Function1: "x/a", Function2: "y|z/b", Dataset1: "x", Dataset2: "y|z", Spec1: "a", Spec2: "b", Tau: 0.7, Rho: 0.6, PValue: 0.02, QValue: 0.02},
	})
	roll := g.Rollup(0)
	want := []DatasetRelation{
		{Dataset1: "x", Dataset2: "y|z", Edges: 1, MaxAbsTau: 0.7, MaxRho: 0.6, MinPValue: 0.02, MinQValue: 0.02},
		{Dataset1: "x|y", Dataset2: "z", Edges: 1, MaxAbsTau: 0.5, MaxRho: 0.5, MinPValue: 0.01, MinQValue: 0.01},
	}
	if len(roll) != len(want) {
		t.Fatalf("rollup = %+v, want %+v", roll, want)
	}
	for i := range want {
		if roll[i] != want[i] {
			t.Errorf("relation %d = %+v, want %+v", i, roll[i], want[i])
		}
	}
}

// TestAssembleOrderMatchesStringOracle: assembly orders edges by key rank,
// never by comparing strings. Over names whose string order and key order
// disagree ("taxi" < "taxi-x" < "taxi2", yet "taxi-x/..." < "taxi/...") and
// a name holding a '/', the edge list and every incident list must come
// out exactly as a string sort of the canonicalised edges would put them.
func TestAssembleOrderMatchesStringOracle(t *testing.T) {
	names := []string{"taxi", "taxi-x", "taxi2", "a/b", "a"}
	specs := []string{"count", "density", "b/c"}
	var fns []Function
	for _, ds := range names {
		for _, sp := range specs {
			fns = append(fns, Function{Key: ds + "/" + sp + "@city,hour", Dataset: ds, Spec: sp, SRes: spatial.City, TRes: temporal.Hour})
		}
	}
	// Every cross-data-set function pair in both classes, named in a
	// scrambled order and orientation.
	var links []Link
	for i := range fns {
		for j := range fns {
			if fns[i].Dataset >= fns[j].Dataset {
				continue
			}
			for _, c := range []feature.Class{feature.Extreme, feature.Salient} {
				a, b := uint32(i), uint32(j)
				if (i+j)%2 == 0 {
					a, b = b, a
				}
				links = append(links, Link{F1: a, F2: b, Class: c, Tau: float64(i), Rho: float64(j), PValue: 0.5, QValue: 0.5})
			}
		}
	}
	for i := range links {
		j := (i*7919 + 13) % len(links)
		links[i], links[j] = links[j], links[i]
	}
	var oracle []Edge
	for _, l := range links {
		a, b := fns[l.F1], fns[l.F2]
		e := Edge{Function1: a.Key, Function2: b.Key, Dataset1: a.Dataset, Dataset2: b.Dataset, Spec1: a.Spec, Spec2: b.Spec,
			SRes: a.SRes, TRes: a.TRes, Class: l.Class, Tau: l.Tau, Rho: l.Rho, PValue: l.PValue, QValue: l.QValue}
		if e.Function2 < e.Function1 {
			e.Function1, e.Function2 = e.Function2, e.Function1
			e.Dataset1, e.Dataset2 = e.Dataset2, e.Dataset1
			e.Spec1, e.Spec2 = e.Spec2, e.Spec1
		}
		oracle = append(oracle, e)
	}
	sort.Slice(oracle, func(i, j int) bool {
		x, y := oracle[i], oracle[j]
		if x.Function1 != y.Function1 {
			return x.Function1 < y.Function1
		}
		if x.Function2 != y.Function2 {
			return x.Function2 < y.Function2
		}
		return x.Class < y.Class
	})
	g := Assemble(NewTable(fns), links)
	if got := g.Edges(); !slices.Equal(got, oracle) {
		t.Fatal("edge order differs from the string-sorting oracle")
	}
	for _, fn := range fns {
		var want []Edge
		for _, e := range oracle {
			if e.Function1 == fn.Key || e.Function2 == fn.Key {
				want = append(want, e)
			}
		}
		if got := g.Neighbors(fn.Key); !slices.Equal(got, want) {
			t.Errorf("Neighbors(%q) differs from the oracle", fn.Key)
		}
	}
	for _, ds := range names {
		var want []Edge
		for _, e := range oracle {
			if e.Dataset1 == ds || e.Dataset2 == ds {
				want = append(want, e)
			}
		}
		if got := g.DatasetEdges(ds); !slices.Equal(got, want) {
			t.Errorf("DatasetEdges(%q) differs from the oracle", ds)
		}
	}
	if want := slices.Sorted(slices.Values(names)); !slices.Equal(g.Datasets(), want) {
		t.Errorf("Datasets() = %q, want %q", g.Datasets(), want)
	}
}

// TestNewTableRanksIgnoreOrder: a table ranks each key by its place among
// the distinct keys in string order, whether the functions come with their
// keys ascending (ranked without a sort), shuffled, or repeated.
func TestNewTableRanksIgnoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 200 {
		var fns []Function
		for range rng.Intn(40) {
			ds := []string{"taxi", "taxi-x", "taxi2", "a/b", "a"}[rng.Intn(5)]
			key := ds + "/" + []string{"density", "avg_fare", "b/c"}[rng.Intn(3)] + "@city,hour"
			fns = append(fns, Function{Key: key, Dataset: ds})
		}
		keys := make([]string, len(fns))
		for i, f := range fns {
			keys[i] = f.Key
		}
		distinct := slices.Compact(slices.Sorted(slices.Values(keys)))
		sorted := slices.SortedFunc(slices.Values(fns), func(a, b Function) int { return strings.Compare(a.Key, b.Key) })
		shuffled := slices.Clone(sorted)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, in := range [][]Function{sorted, shuffled} {
			tab := NewTable(in)
			if tab.numRanks != len(distinct) {
				t.Fatalf("trial %d: %d ranks for %d distinct keys", trial, tab.numRanks, len(distinct))
			}
			for i, f := range in {
				if want, _ := slices.BinarySearch(distinct, f.Key); tab.rank[i] != uint32(want) {
					t.Fatalf("trial %d: %q ranked %d, want %d", trial, f.Key, tab.rank[i], want)
				}
			}
		}
	}
}

// NumNodes returns the number of functions participating in relationships.
func (g *Graph) NumNodes() int { return len(g.nodes) }
