package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stgraph"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/topology"
)

// syntheticFunction fabricates a scalar function on nRegions x enough
// steps to reach ~targetEdges edges, with noisy values plus planted spikes
// (so merge trees and thresholds do real work).
func syntheticFunction(seed int64, nRegions int, adj [][]int, targetEdges int) (*scalar.Function, error) {
	// edges per step ~ spatialEdges + nRegions (temporal); solve for steps.
	spatialEdges := 0
	for _, nbrs := range adj {
		spatialEdges += len(nbrs)
	}
	spatialEdges /= 2
	perStep := spatialEdges + nRegions
	steps := targetEdges / perStep
	if steps < 2 {
		steps = 2
	}
	g, err := stgraph.New(nRegions, steps, adj)
	if err != nil {
		return nil, err
	}
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC).Unix()
	tl, err := temporal.NewTimeline(start, start+int64(steps-1)*3600, temporal.Hour)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, g.NumVertices())
	for i := range vals {
		vals[i] = 100 + rng.NormFloat64()*5
	}
	for k := 0; k < len(vals)/500+1; k++ {
		vals[rng.Intn(len(vals))] = 300 + rng.Float64()*100
	}
	return &scalar.Function{
		Dataset: "bench", Spec: scalar.Spec{Kind: scalar.Density},
		SRes: spatial.Neighborhood, TRes: temporal.Hour,
		Timeline: tl, Graph: g, Values: vals, Observed: make([]bool, len(vals)),
	}, nil
}

// Figure7Row is one point of Figure 7: index creation and feature query
// times for a function with the given number of edges.
type Figure7Row struct {
	Edges    int
	CreateMS float64
	QueryMS  float64
}

// Figure7Sweep measures merge-tree index creation (join + split trees) and
// feature querying (threshold computation + salient and extreme feature
// identification) across function sizes, for the given spatial adjacency
// (city = single region 1D; neighborhood = planar region graph 3D).
func Figure7Sweep(seed int64, nRegions int, adj [][]int, sizes []int) ([]Figure7Row, error) {
	rows := make([]Figure7Row, 0, len(sizes))
	for _, edges := range sizes {
		fn, err := syntheticFunction(seed, nRegions, adj, edges)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		join := topology.ComputeJoin(fn.Graph, fn.Values)
		split := topology.ComputeSplit(fn.Graph, fn.Values)
		create := time.Since(t0)

		t1 := time.Now()
		ex := feature.NewExtractorWithTrees(fn, join, split)
		ex.Extract(feature.Salient)
		ex.Extract(feature.Extreme)
		query := time.Since(t1)

		rows = append(rows, Figure7Row{
			Edges:    fn.Graph.NumEdges(),
			CreateMS: float64(create.Microseconds()) / 1000,
			QueryMS:  float64(query.Microseconds()) / 1000,
		})
	}
	return rows, nil
}

// RunFigure7 reproduces Figure 7: near-linear index creation and feature
// query time in the size of the function, for city (1D) and neighborhood
// (3D) resolutions.
func RunFigure7(e *Env, w io.Writer) error {
	city, err := e.City()
	if err != nil {
		return err
	}
	sizes := []int{10_000, 30_000, 100_000, 300_000, 1_000_000}
	section(w, "Figure 7(a): city resolution (1D time series)")
	rows, err := Figure7Sweep(e.Cfg.Seed, 1, [][]int{nil}, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%12s %14s %14s\n", "# edges", "create (ms)", "query (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d %14.1f %14.1f\n", r.Edges, r.CreateMS, r.QueryMS)
	}

	section(w, "Figure 7(b): neighborhood resolution (2D space x time)")
	adj := city.Adjacency(spatial.Neighborhood)
	rows, err = Figure7Sweep(e.Cfg.Seed, len(adj), adj, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%12s %14s %14s\n", "# edges", "create (ms)", "query (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d %14.1f %14.1f\n", r.Edges, r.CreateMS, r.QueryMS)
	}
	fmt.Fprintln(w, "paper: both curves are near-linear in function size; <2 min at 30M edges")
	return nil
}

// RunFigure8 reproduces Figure 8: cumulative scalar-function computation
// and feature-identification time as data sets are added one by one, for
// the Urban collection (taxi arrives 4th, weather 8th) and the Open corpus.
func RunFigure8(e *Env, w io.Writer) error {
	col, err := e.Collection()
	if err != nil {
		return err
	}
	order := col.IndexingOrder()
	section(w, "Figure 8(a): NYC Urban — indexing time vs # data sets")
	// compute/features are cumulative task time across workers (the phases
	// run fused in one task per function); wall is end-to-end.
	fmt.Fprintf(w, "%4s %-16s %10s %12s %12s %12s\n", "k", "added", "# functions", "wall (s)", "compute (s)", "features (s)")
	for k := 1; k <= len(order); k++ {
		fw, err := newFramework(e, order[:k]...)
		if err != nil {
			return err
		}
		stats, err := fw.BuildIndex()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d %-16s %10d %12.2f %12.2f %12.2f\n",
			k, order[k-1].Name, stats.Functions, stats.WallDuration.Seconds(),
			stats.ComputeDuration.Seconds(), stats.IndexDuration.Seconds())
	}

	open, err := e.Open()
	if err != nil {
		return err
	}
	section(w, "Figure 8(b): NYC Open — indexing time vs # data sets")
	fmt.Fprintf(w, "%4s %10s %12s %12s %12s\n", "k", "# functions", "wall (s)", "compute (s)", "features (s)")
	step := len(open) / 4
	if step == 0 {
		step = 1
	}
	for k := step; k <= len(open); k += step {
		fw, err := newFramework(e, open[:k]...)
		if err != nil {
			return err
		}
		stats, err := fw.BuildIndex()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d %10d %12.2f %12.2f %12.2f\n",
			k, stats.Functions, stats.WallDuration.Seconds(),
			stats.ComputeDuration.Seconds(), stats.IndexDuration.Seconds())
	}
	fmt.Fprintln(w, "paper: large jumps when taxi (4th, size) and weather (8th, 228 attributes) arrive;")
	fmt.Fprintln(w, "       for NYC Open, feature identification dominates scalar function computation")
	return nil
}

// RunFigure9 reproduces Figure 9: the relationship evaluation rate stays
// roughly constant as data sets are added, because evaluation works on
// features, independent of raw data size.
func RunFigure9(e *Env, w io.Writer) error {
	fw, err := e.Framework()
	if err != nil {
		return err
	}
	names := fw.Datasets()
	section(w, "Figure 9: query performance — relationships per minute")
	fmt.Fprintf(w, "%4s %16s %12s %16s\n", "k", "# evaluated", "time (s)", "rel/min")
	clause := core.Clause{
		Permutations: e.Cfg.Permutations,
		Resolutions: []core.Resolution{
			{Spatial: spatial.City, Temporal: temporal.Week},
			{Spatial: spatial.City, Temporal: temporal.Day},
		},
	}
	for k := 2; k <= len(names); k++ {
		t0 := time.Now()
		_, stats, err := fw.Query(core.Query{Sources: names[:k], Targets: names[:k], Clause: clause})
		if err != nil {
			return err
		}
		el := time.Since(t0)
		rate := float64(stats.PairsConsidered) / el.Minutes()
		fmt.Fprintf(w, "%4d %16d %12.2f %16.0f\n", k, stats.PairsConsidered, el.Seconds(), rate)
	}
	fmt.Fprintln(w, "paper: consistently > 10^4 relationships/min; rate independent of raw data size")
	return nil
}

// RunFigure10 reproduces Figure 10: speedup of the framework with
// increasing workers (standing in for cluster nodes). Scalar computation
// and feature identification run fused in one task per function, so the
// indexing side is reported as a single wall-time curve rather than the
// paper's two separate job curves.
func RunFigure10(e *Env, w io.Writer) error {
	col, err := e.Collection()
	if err != nil {
		return err
	}
	maxW := runtime.NumCPU()
	workerCounts := []int{1, 2, 4, 8, 16, 20}
	section(w, "Figure 10: speedup vs workers (1 worker = 1 'node')")
	fmt.Fprintf(w, "%8s %12s %12s %12s %12s\n",
		"workers", "index (s)", "query (s)", "S(index)", "S(query)")
	var base [2]float64
	for _, workers := range workerCounts {
		if workers > maxW {
			break
		}
		city, err := e.City()
		if err != nil {
			return err
		}
		fw, err := core.New(core.Options{City: city, Workers: workers, Seed: e.Cfg.Seed})
		if err != nil {
			return err
		}
		for _, d := range col.Datasets {
			if err := fw.AddDataset(d); err != nil {
				return err
			}
		}
		stats, err := fw.BuildIndex()
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, _, err = fw.Query(core.Query{Clause: core.Clause{
			Permutations: e.Cfg.Permutations,
			Resolutions:  []core.Resolution{{Spatial: spatial.City, Temporal: temporal.Week}},
		}})
		if err != nil {
			return err
		}
		q := time.Since(t0).Seconds()
		ix := stats.WallDuration.Seconds()
		if workers == 1 {
			base = [2]float64{ix, q}
		}
		fmt.Fprintf(w, "%8d %12.2f %12.2f %12.2f %12.2f\n",
			workers, ix, q, base[0]/ix, base[1]/q)
	}
	fmt.Fprintln(w, "paper: near-linear speedup for scalar function computation; lower for feature")
	fmt.Fprintln(w, "       identification and relationship evaluation (straggler reducers)")
	return nil
}
