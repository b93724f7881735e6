package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/mathx"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/topology"
)

// timeString renders a function's step start as a date.
func timeString(f *scalar.Function, step int) string {
	return time.Unix(f.Timeline.StepStart(step), 0).UTC().Format("2006-01-02")
}

// RunFigure5 reproduces Figure 5: the persistence structure of the taxi
// density function's minima. (a/b) The minima split into a low-persistence
// cluster (noise) and a high-persistence cluster (salient valleys) — the
// split two-means finds automatically. (c) Across all time intervals, the
// function values of extreme-feature minima (hurricane collapses) are
// box-plot outliers of the salient-minima value distribution.
func RunFigure5(e *Env, w io.Writer) error {
	col, err := e.Collection()
	if err != nil {
		return err
	}
	fn, err := scalar.Compute(col.Dataset("taxi"), scalar.Spec{Kind: scalar.Density},
		col.City, spatial.City, temporal.Hour)
	if err != nil {
		return err
	}
	split := topology.ComputeSplit(fn.Graph, fn.Values)

	pers := make([]float64, len(split.Pairs))
	for i, p := range split.Pairs {
		pers[i] = p.Persistence
	}
	high, lowMax, highMin := mathx.TwoMeans(pers)
	var lowN, highN int
	var lowSum, highSum float64
	for i, p := range pers {
		if high[i] {
			highN++
			highSum += p
		} else {
			lowN++
			lowSum += p
		}
	}
	section(w, "Figure 5(a/b): persistence of the taxi-density minima")
	fmt.Fprintf(w, "minima: %d total\n", len(pers))
	if lowN > 0 {
		fmt.Fprintf(w, "low-persistence cluster:  %6d minima, mean persistence %8.2f (max %.2f)\n",
			lowN, lowSum/float64(lowN), lowMax)
	}
	if highN > 0 {
		fmt.Fprintf(w, "high-persistence cluster: %6d minima, mean persistence %8.2f (min %.2f)\n",
			highN, highSum/float64(highN), highMin)
	}
	if lowN > 0 && highN > 0 {
		fmt.Fprintf(w, "separation: high cluster starts at %.2f, low cluster ends at %.2f\n",
			highMin, lowMax)
	}

	// (c) Function values of salient minima across all intervals, with the
	// box-plot outlier threshold; the hurricane days must fall below it.
	// The paper's 5(c) spans the full multi-year range; at laptop scale
	// the daily function carries the outlier structure (hourly counts are
	// too discrete).
	daily, err := scalar.Compute(col.Dataset("taxi"), scalar.Spec{Kind: scalar.Density},
		col.City, spatial.City, temporal.Day)
	if err != nil {
		return err
	}
	dex := feature.NewExtractor(daily)
	dsplit := topology.ComputeSplit(daily.Graph, daily.Values)
	dpers := make([]float64, len(dsplit.Pairs))
	for i, p := range dsplit.Pairs {
		dpers[i] = p.Persistence
	}
	dhigh, _, _ := mathx.TwoMeans(dpers)
	var salientVals []float64
	for i, leaf := range dsplit.Leaves {
		if dhigh[i] {
			salientVals = append(salientVals, daily.Values[leaf])
		}
	}
	sort.Float64s(salientVals)
	q1, q2, q3 := mathx.Quartiles(salientVals)
	th := dex.Thresholds()
	section(w, "Figure 5(c): salient-minima values (daily) and the extreme outlier threshold")
	fmt.Fprintf(w, "salient minima values: Q1=%.1f median=%.1f Q3=%.1f\n", q1, q2, q3)
	fmt.Fprintf(w, "extreme threshold (Q1 - 1.5*IQR): %.2f\n", th.ExtremeNeg)
	extreme := dex.Extract(feature.Extreme)
	_, negCount := extreme.Count()
	fmt.Fprintf(w, "extreme negative features (days below threshold): %d\n", negCount)
	if negCount > 0 {
		var lowest []string
		for _, v := range extreme.Negative.Ones() {
			_, step := daily.Graph.RegionStep(v)
			lowest = append(lowest, timeString(daily, step))
		}
		fmt.Fprintf(w, "extreme days: %v (hurricanes: 2011-08-27/28, 2012-10-29/30)\n", lowest)
	}
	fmt.Fprintln(w, "paper: minima split into two persistence groups; hurricane-period values")
	fmt.Fprintln(w, "       are outliers of the salient-minima distribution")
	return nil
}
