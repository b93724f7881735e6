package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/store"
)

// TestCandidateRecordLayout pins the family record: at most 40 bytes, no
// pointer for the garbage collector to scan, and — on a little-endian host
// — exactly the graph section's record layout, which is what lets
// viewCandidates alias a snapshot mapping.
func TestCandidateRecordLayout(t *testing.T) {
	typ := reflect.TypeFor[candidate]()
	if typ.Size() > 40 || typ.Size() != candidateBytes {
		t.Errorf("candidate is %d bytes, want %d (at most 40)", typ.Size(), candidateBytes)
	}
	for i := range typ.NumField() {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint32, reflect.Int, reflect.Float64:
		default:
			t.Errorf("candidate field %s is a %s; a family must stay pointer-free", typ.Field(i).Name, k)
		}
	}
	var c candidate
	offsets := []uintptr{unsafe.Offsetof(c.posA), unsafe.Offsetof(c.posB), unsafe.Offsetof(c.class),
		unsafe.Offsetof(c.tau), unsafe.Offsetof(c.rho), unsafe.Offsetof(c.p)}
	if want := []uintptr{0, 4, 8, 16, 24, 32}; !slices.Equal(offsets, want) {
		t.Errorf("candidate field offsets %v, section layout %v", offsets, want)
	}
	want := []candidate{{posA: 3, posB: 9, class: 1, tau: -0.5, rho: 0.25, p: 0.01}, {posA: 1 << 31, p: 1}}
	slab := appendCandidates(nil, want)
	if len(slab) != candidateBytes*len(want) {
		t.Fatalf("%d records encode to %d bytes", len(want), len(slab))
	}
	if got := viewCandidates(slab, len(want)); !slices.Equal(got, want) {
		t.Errorf("records round-trip as %+v, want %+v", got, want)
	}
}

// TestFamiliesViewTheMapping: after a memory-mapped Open, the loaded
// families are views of the graph section, not heap copies.
func TestFamiliesViewTheMapping(t *testing.T) {
	f := flatSnapshotFramework(t)
	path := filepath.Join(t.TempDir(), "view.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := openPlanted(t, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	if zeroCopy, _ := g.LoadedSnapshot(); !zeroCopy || !hostLittleEndian {
		t.Skip("no zero-copy mapping on this platform")
	}
	sec, ok := g.mappings[len(g.mappings)-1].Section(store.SectionGraph)
	if !ok {
		t.Fatal("snapshot has no graph section")
	}
	lo := uintptr(unsafe.Pointer(&sec[0]))
	hi := lo + uintptr(len(sec))
	viewed := 0
	for k, fam := range g.published.Load().fams {
		if len(fam) == 0 {
			continue
		}
		if at := uintptr(unsafe.Pointer(&fam[0])); at < lo || at+uintptr(len(fam))*candidateBytes > hi {
			t.Errorf("family %v lies at %#x, outside the graph section [%#x, %#x)", k, at, lo, hi)
		}
		viewed++
	}
	if viewed == 0 {
		t.Fatal("no non-empty family was loaded; the check is vacuous")
	}
}

// awkwardCorpus names its data sets so that string order and key order
// disagree: "taxi" < "taxi-x" < "taxi2" as names, yet "taxi-x/..." <
// "taxi/..." < "taxi2/..." as function keys; "a/b" holds a '/'.
func awkwardCorpus(t *testing.T) *Framework {
	t.Helper()
	f := newFW(t)
	w1, t1 := plantedPair(10, randomHours(17, 40), nil)
	w2, t2 := plantedPair(11, randomHours(19, 40), randomHours(21, 20))
	for d, name := range map[*dataset.Dataset]string{w1: "taxi", t1: "taxi-x", w2: "taxi2", t2: "a/b"} {
		d.Name = name
	}
	for _, d := range []*dataset.Dataset{w1, t1, w2, t2} {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
}

// byStrings is the string-sorting oracle: rows by (Function1, Function2,
// Class) comparing the keys themselves.
func byStrings[T any](rows []T, key func(T) (string, string, int)) []T {
	out := slices.Clone(rows)
	sort.SliceStable(out, func(i, j int) bool {
		a1, a2, ac := key(out[i])
		b1, b2, bc := key(out[j])
		if a1 != b1 {
			return a1 < b1
		}
		if a2 != b2 {
			return a2 < b2
		}
		return ac < bc
	})
	return out
}

// TestAwkwardNameOrderParity: assembly and query selection order by key
// rank, never by string comparison; over names whose string and key orders
// disagree, the graph's edges, every incident list and the query rows must
// come out exactly as the string-sorting oracle orders them.
func TestAwkwardNameOrderParity(t *testing.T) {
	f := awkwardCorpus(t)
	clause := graphClause()
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	g, _ := f.RelGraph()
	edges := g.Edges()
	if len(edges) == 0 {
		t.Fatal("graph has no edges; the order checks are vacuous")
	}
	edgeKey := func(e relgraph.Edge) (string, string, int) { return e.Function1, e.Function2, int(e.Class) }
	if !slices.Equal(edges, byStrings(edges, edgeKey)) {
		t.Error("graph edge order differs from the string-sorting oracle")
	}
	swapped := false
	for _, e := range edges {
		if e.Function2 < e.Function1 {
			t.Fatalf("edge %v is not in canonical orientation", e)
		}
		swapped = swapped || e.Dataset1 > e.Dataset2
	}
	if !swapped {
		t.Error("no edge has its data sets out of name order; the corpus does not exercise key-order orientation")
	}
	for _, n := range g.Nodes() {
		var want []relgraph.Edge
		for _, e := range edges {
			if e.Function1 == n.Key || e.Function2 == n.Key {
				want = append(want, e)
			}
		}
		if got := g.Neighbors(n.Key); !slices.Equal(got, want) {
			t.Errorf("Neighbors(%q) differs from the oracle", n.Key)
		}
	}
	for _, ds := range f.Datasets() {
		var want []relgraph.Edge
		for _, e := range edges {
			if e.Dataset1 == ds || e.Dataset2 == ds {
				want = append(want, e)
			}
		}
		if got := g.DatasetEdges(ds); !slices.Equal(got, want) {
			t.Errorf("DatasetEdges(%q) differs from the oracle", ds)
		}
	}

	rels, _, err := f.Query(Query{Clause: Clause{SkipSignificance: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("query returned nothing; the row order check is vacuous")
	}
	relKey := func(r Relationship) (string, string, int) { return r.Function1, r.Function2, int(r.Class) }
	if !slices.Equal(rels, byStrings(rels, relKey)) {
		t.Error("query row order differs from the string-sorting oracle")
	}
}

// familyKeys resolves every stored family's positions against the current
// index: pair -> one "key1|key2|class" string per record.
func familyKeys(f *Framework) map[string]map[graphPair][]string {
	out := make(map[string]map[graphPair][]string)
	for sig, byPair := range f.families {
		out[sig] = make(map[graphPair][]string)
		for k, fam := range byPair {
			for _, c := range fam {
				out[sig][k] = append(out[sig][k], fmt.Sprintf("%s|%s|%v",
					f.index.funcs[k.A][c.posA].Key, f.index.funcs[k.B][c.posB].Key, c.class))
			}
		}
	}
	return out
}

// TestAppendKeepsFamilyPositions: a record names its functions by position
// in its data sets' key-sorted entry lists, and a clean append rebuilds the
// index — entries restitched over a grown domain included. Every family
// that survives the append must resolve to exactly the keys it named
// before.
func TestAppendKeepsFamilyPositions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pad   int
		slice *dataset.Dataset
	}{
		{"in-range append", 0, hourSlice("trips", "count", 203, 4000, 300)},
		{"tile-aligned extension", 48, hourSlice("noise", "level", 201, plantedHours+48, 24*10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFW(t, appendCorpus(t, tc.pad))
			if _, err := f.BuildGraph(graphClause()); err != nil {
				t.Fatal(err)
			}
			before := familyKeys(f)
			st, err := f.AppendSlice(tc.slice)
			if err != nil {
				t.Fatal(err)
			}
			if st.FellBack {
				t.Fatal("append fell back to a full rebuild")
			}
			after := familyKeys(f)
			kept := 0
			for sig, byPair := range after {
				for k, keys := range byPair {
					if want, ok := before[sig][k]; !ok || !slices.Equal(keys, want) {
						t.Errorf("family %v resolves to other keys after the append", k)
					}
					kept += len(keys)
				}
			}
			if kept == 0 {
				t.Fatal("no record survived the append; the check is vacuous")
			}
		})
	}
}
