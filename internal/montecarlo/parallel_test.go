package montecarlo

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// spatialSets builds a pair of overlapping mixed-sign feature sets over a
// multi-region space-time graph.
func spatialSets(rng *rand.Rand, nVerts int) (*feature.Set, *feature.Set) {
	mk := func() *feature.Set {
		return &feature.Set{Positive: bitvec.New(nVerts), Negative: bitvec.New(nVerts)}
	}
	a, b := mk(), mk()
	for i := 0; i < 60; i++ {
		v := rng.Intn(nVerts)
		a.Positive.Set(v)
		b.Positive.Set(v)
		w := rng.Intn(nVerts)
		a.Negative.Set(w)
		b.Negative.Set(w)
	}
	return a, b
}

// TestChunkSeedDistinct: chunk seeds must differ across chunks and base
// seeds (no stream reuse between chunks).
func TestChunkSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 2, -5, 1 << 40} {
		for ci := 0; ci < 64; ci++ {
			s := chunkSeed(seed, ci)
			if seen[s] {
				t.Fatalf("duplicate chunk seed %d (seed=%d chunk=%d)", s, seed, ci)
			}
			seen[s] = true
		}
	}
}

// TestShiftPoolMemoIndependence: a result depends on the shift sequence and
// never on what a pool happens to have memoised. A family of tests sharing
// one pool, run concurrently, must report the same tau streams and Results
// whether the pool memoises nothing, one chunk, or every chunk.
func TestShiftPoolMemoIndependence(t *testing.T) {
	g, err := stgraph.New(16, 96, grid(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	adj := g.SpatialAdjacency()
	const perms, family = 230, 6 // 5 chunks, the last one ragged
	rng := rand.New(rand.NewSource(17))
	type pair struct{ a, b *feature.Set }
	pairs := make([]pair, family)
	for i := range pairs {
		pairs[i].a, pairs[i].b = spatialSets(rng, g.NumVertices())
	}
	type outcome struct {
		taus     []float64
		adaptive Result
	}
	// runFamily tests every pair against pool at once, each with its own
	// per-test seed, as a graph build does.
	runFamily := func(pool *ShiftPool) []outcome {
		out := make([]outcome, family)
		var wg sync.WaitGroup
		for i, p := range pairs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := Config{Permutations: perms, Seed: int64(100 + i), Shifts: pool}
				out[i].adaptive = Test(p.a, p.b, g, 0.3, cfg)
				cfg.Exhaustive = true
				taus := make([]float64, perms)
				test(p.a, p.b, g, 0.3, cfg, func(k int, tau float64) { taus[k] = tau }, chooseWalk)
				out[i].taus = taus
			}()
		}
		wg.Wait()
		return out
	}
	oneChunk := 4 * permChunk * len(adj)
	full := NewShiftPool(adj, 9)
	want := runFamily(full)
	if got := full.memoBytes(); got != 5*oneChunk {
		t.Fatalf("full pool memoised %d bytes, want 5 chunks = %d", got, 5*oneChunk)
	}
	for _, budget := range []int{0, oneChunk} {
		pool := newShiftPool(adj, 9, budget)
		if len(pool.memo) != budget/oneChunk {
			t.Fatalf("budget %d gives %d memo slots, want %d", budget, len(pool.memo), budget/oneChunk)
		}
		for i, got := range runFamily(pool) {
			if got.adaptive != want[i].adaptive {
				t.Errorf("budget=%d pair %d: Result %+v, fully memoised %+v",
					budget, i, got.adaptive, want[i].adaptive)
			}
			if !slices.Equal(got.taus, want[i].taus) {
				t.Errorf("budget=%d pair %d: tau stream differs from the fully memoised pool's",
					budget, i)
			}
		}
	}
}

// TestOneRegionShiftPoolHasNoMemo: a one-region domain's tests enumerate
// rotations and draw no shift, so its pool allocates no memo, while a pool
// of two regions or more still memoises up to the budget.
func TestOneRegionShiftPoolHasNoMemo(t *testing.T) {
	if p := NewShiftPool(grid(1, 1), 9); p.memo != nil {
		t.Errorf("one-region pool holds %d memo slots, want none", len(p.memo))
	}
	if p := NewShiftPool(grid(2, 1), 9); len(p.memo) != shiftPoolBudget/(4*permChunk*2) {
		t.Errorf("two-region pool holds %d memo slots, want %d", len(p.memo), shiftPoolBudget/(4*permChunk*2))
	}
}

// TestPreparedLanesPoolRace: concurrent tests over domains of different
// shapes share the prep and scratch pools, so a recycled buffer is refilled
// for a shape other than the one it last held. Every Result must equal the
// one the same test returns run alone.
func TestPreparedLanesPoolRace(t *testing.T) {
	type job struct {
		a, b *feature.Set
		g    *stgraph.Graph
		tau  float64
		cfg  Config
		want Result
	}
	var jobs []job
	for _, sh := range []struct{ w, h, steps, features int }{{1, 1, 3, 2}, {8, 6, 14, 90}, {8, 6, 2160, 1500}} {
		g := gridGraph(t, sh.w, sh.h, sh.steps)
		n := g.NumVertices()
		pool := NewShiftPool(g.SpatialAdjacency(), 3)
		for i := range 3 {
			a, b := denseSets(rand.New(rand.NewSource(int64(i))), n, float64(sh.features)/float64(n), 0, n)
			for _, tau := range []float64{0.05, -0.05} {
				cfg := Config{Permutations: 100, Seed: int64(i), Shifts: pool}
				jobs = append(jobs, job{a, b, g, tau, cfg, Test(a, b, g, tau, cfg)})
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k*7+w*5)%len(jobs)]
				if got := Test(j.a, j.b, j.g, j.tau, j.cfg); got != j.want {
					t.Errorf("%dx%d seed %d tau=%v: concurrent %+v, alone %+v",
						j.g.NumRegions(), j.g.NumSteps(), j.cfg.Seed, j.tau, got, j.want)
				}
			}
		}()
	}
	wg.Wait()
}
