package replica

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// The test corpus lives on the canonical seed+grid city so a follower
// can rebuild the exact city from the snapshot fingerprint seed and its
// own -grid flag, the way production followers do.
const (
	testSeed = 5
	testGrid = 8
	// testHours keeps fixtures fast while leaving room for planted events.
	testHours = 24 * 30
)

func testBase() int64 {
	return time.Date(2013, time.March, 1, 0, 0, 0, 0, time.UTC).Unix()
}

// testDatasets builds a deterministic pair of hourly city-level data
// sets with correlated planted events, plus extra hours when grow > 0
// (to simulate leader-side appends extending the corpus range).
func testDatasets(grow int) []*dataset.Dataset {
	rng := rand.New(rand.NewSource(42))
	wind := &dataset.Dataset{
		Name: "wind", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"speed"},
	}
	trips := &dataset.Dataset{
		Name: "trips", SpatialRes: spatial.City, TemporalRes: temporal.Hour,
		Attrs: []string{"count"},
	}
	base := testBase()
	for i := 0; i < testHours+grow; i++ {
		w := 10 + rng.NormFloat64()*0.4
		c := 400 + rng.NormFloat64()*3
		if i%37 == 5 { // planted storm hours: high wind, low ridership
			w = 55 + rng.Float64()*10
			c = 20 + rng.Float64()*4
		}
		ts := base + int64(i)*3600
		wind.Tuples = append(wind.Tuples, dataset.Tuple{Region: 0, TS: ts, Values: []float64{w}})
		trips.Tuples = append(trips.Tuples, dataset.Tuple{Region: 0, TS: ts, Values: []float64{c}})
	}
	return []*dataset.Dataset{wind, trips}
}

// leaderFramework assembles and indexes the test corpus the way a leader
// process would.
func leaderFramework(t testing.TB, grow int) *core.Framework {
	t.Helper()
	city, err := spatial.Generate(spatial.GridConfig(testSeed, testGrid))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{City: city, Workers: 2, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range testDatasets(grow) {
		if err := fw.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return fw
}

// leaderFixture is one snapshot-backed leader: a framework, its saved
// container, and the replication handler served over httptest.
type leaderFixture struct {
	fw   *core.Framework
	path string
	srv  *httptest.Server
}

// newLeaderFixture saves the framework's snapshot and serves the
// replication surface, optionally through wrap (fault injection).
func newLeaderFixture(t testing.TB, fw *core.Framework, wrap func(http.Handler) http.Handler) *leaderFixture {
	t.Helper()
	path := filepath.Join(t.TempDir(), "leader.snap")
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	var h http.Handler = NewLeader(NewSource(path))
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &leaderFixture{fw: fw, path: path, srv: srv}
}

// newTestFollower builds a follower pointed at the fixture with a tight
// client timeout so stalled-read faults fail fast.
func newTestFollower(t testing.TB, lf *leaderFixture) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		Leader:     lf.srv.URL,
		Path:       filepath.Join(t.TempDir(), "replica.snap"),
		Grid:       testGrid,
		Workers:    2,
		Poll:       10 * time.Millisecond,
		HTTPClient: &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// queryResults runs the reference query on a framework.
func queryResults(t testing.TB, fw *core.Framework) []core.Relationship {
	t.Helper()
	rels, _, err := fw.Query(core.Query{Clause: core.Clause{Permutations: 80}})
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

func mustSync(t testing.TB, f *Follower) {
	t.Helper()
	applied, err := f.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("sync applied nothing")
	}
}
