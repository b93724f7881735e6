package core

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// The byte-identity fixtures elsewhere in this package are city-level: one
// region, so their tests never draw a toroidal shift. The corpus here is
// neighborhood-level and daily over regionalDays days — more than one Day,
// Week and Month tile — so every test at (·, neighborhood) takes its shifts
// from the framework's shared pool, and a windowed query compacts onto
// fewer steps than the full domain has.
const regionalDays = 400

// regionalDataset is a daily neighborhood-level data set over days
// [from, to): noise around a base level, with a spike at each (region, day)
// of events.
func regionalDataset(t testing.TB, name string, seed int64, from, to int, events [][2]int) *dataset.Dataset {
	t.Helper()
	regions := testCity(t).NumRegions(spatial.Neighborhood)
	at := map[[2]int]bool{}
	for _, e := range events {
		at[e] = true
	}
	rng := rand.New(rand.NewSource(seed))
	d := &dataset.Dataset{
		Name: name, SpatialRes: spatial.Neighborhood, TemporalRes: temporal.Day,
		Attrs: []string{"level"},
	}
	for day := from; day < to; day++ {
		for r := 0; r < regions; r++ {
			v := 25 + rng.NormFloat64()
			if at[[2]int{r, day}] {
				v = 90 + rng.Float64()*5
			}
			d.Tuples = append(d.Tuples, dataset.Tuple{Region: r, TS: ts(day, 0), Values: []float64{v}})
		}
	}
	return d
}

// regionalEvents draws n distinct (region, day) events.
func regionalEvents(t testing.TB, seed int64, n int) [][2]int {
	regions := testCity(t).NumRegions(spatial.Neighborhood)
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int]bool{}
	var out [][2]int
	for len(out) < n {
		e := [2]int{rng.Intn(regions), rng.Intn(regionalDays)}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// regionalCorpus is three data sets: alpha and beta spike together, gamma
// on its own. gamma stops at day gammaTo.
func regionalCorpus(t testing.TB, gammaTo int) []*dataset.Dataset {
	shared := regionalEvents(t, 41, 120)
	return []*dataset.Dataset{
		regionalDataset(t, "alpha", 1, 0, regionalDays, shared),
		regionalDataset(t, "beta", 2, 0, regionalDays, shared),
		regionalDataset(t, "gamma", 3, 0, gammaTo, regionalEvents(t, 43, 120)),
	}
}

// TestSharedShiftsByteIdentity asserts, on a multi-region corpus, what the
// shared shift sequence must leave intact: an incrementally grown graph, an
// appended corpus, a warm-opened snapshot and a graph rebuilt over a second
// warm open each answer exactly as a from-scratch build does — the unwindowed graph and
// all-pairs query, and a windowed query whose tests run on compacted graphs
// with fewer steps than the full domain.
func TestSharedShiftsByteIdentity(t *testing.T) {
	clause := Clause{Permutations: 150}
	windowed := clause
	windowed.Windowed, windowed.WindowFrom, windowed.WindowTo = true, ts(0, 0), ts(199, 0)

	type answers struct {
		edges    any
		all, win []Relationship
	}
	answer := func(f *Framework) answers {
		t.Helper()
		if _, err := f.BuildGraph(clause); err != nil {
			t.Fatal(err)
		}
		g, _ := f.RelGraph()
		all, _, err := f.Query(Query{Clause: clause})
		if err != nil {
			t.Fatal(err)
		}
		win, _, err := f.Query(Query{Clause: windowed})
		if err != nil {
			t.Fatal(err)
		}
		return answers{g.Edges(), all, win}
	}

	scratch := buildFW(t, regionalCorpus(t, regionalDays))
	want := answer(scratch)

	// The fixture must exercise what the test is about: multi-region tests
	// that find something, and a window that compacts.
	res := Resolution{spatial.Neighborhood, temporal.Day}
	if g := scratch.graphs[res]; g.NumRegions() < 2 || g.NumSteps() != regionalDays ||
		temporal.NumTilesFor(g.NumSteps(), temporal.Day) != 2 {
		t.Fatalf("fixture domain at %v: %d regions, %d steps", res, g.NumRegions(), g.NumSteps())
	}
	regional := func(rels []Relationship) (n int) {
		for _, r := range rels {
			if r.Res.Spatial == spatial.Neighborhood && r.PValue < 1 {
				n++
			}
		}
		return n
	}
	if regional(want.all) == 0 || regional(want.win) == 0 {
		t.Fatalf("fixture finds %d unwindowed and %d windowed neighborhood-level relationships; want both > 0",
			regional(want.all), regional(want.win))
	}

	check := func(stage string, f *Framework) {
		t.Helper()
		got := answer(f)
		if !reflect.DeepEqual(got.edges, want.edges) {
			t.Errorf("%s: graph edges differ from the from-scratch build", stage)
		}
		if !reflect.DeepEqual(got.all, want.all) {
			t.Errorf("%s: all-pairs query differs from the from-scratch build", stage)
		}
		if !reflect.DeepEqual(got.win, want.win) {
			t.Errorf("%s: windowed query differs from the from-scratch build", stage)
		}
	}

	// Incremental: two data sets and their graph first, the third after.
	ds := regionalCorpus(t, regionalDays)
	inc := buildFW(t, ds[:2])
	if _, err := inc.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddDataset(ds[2]); err != nil {
		t.Fatal(err)
	}
	if st, err := inc.BuildIndex(); err != nil || st.DatasetsIndexed != 1 {
		t.Fatalf("incremental index: %+v, %v", st, err)
	}
	check("incremental", inc)

	// Append: gamma's last 30 days arrive as a slice into a live graph.
	live := buildFW(t, regionalCorpus(t, regionalDays-30))
	if _, err := live.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	tail := regionalDataset(t, "gamma", 3, 0, regionalDays, regionalEvents(t, 43, 120))
	tail.Tuples = tail.Tuples[len(live.datasets["gamma"].Tuples):]
	if st, err := live.AppendSlice(tail); err != nil || st.FellBack {
		t.Fatalf("append: %+v, %v", st, err)
	}
	check("append", live)

	// Save → Open, then the graph rebuilt from scratch over a second warm
	// open.
	path := filepath.Join(t.TempDir(), "regional.snap")
	if err := scratch.Save(path); err != nil {
		t.Fatal(err)
	}
	open := func() *Framework {
		f, err := Open(path, OpenOptions{Options: scratch.opts, Datasets: regionalCorpus(t, regionalDays)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	check("save/open", open())
	rebuilt := open()
	rebuilt.mu.Lock()
	rebuilt.resetResults() // answer recomputes every pair over the opened index
	rebuilt.mu.Unlock()
	check("warm-open rebuild", rebuilt)
}
