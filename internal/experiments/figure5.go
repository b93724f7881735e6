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

// figure5Result is what Figure 5 computes. (a/b) The taxi density
// function's minima split by persistence into a low cluster (noise) and a
// high cluster (salient valleys) — the split two-means finds, with lowMax
// the low cluster's largest persistence and highMin the high cluster's
// smallest. (c) Across all time intervals, the values of the daily
// function's salient minima, summarised by quartiles, and the days that
// fall below the extreme threshold: the hurricane collapses.
type figure5Result struct {
	minima            int
	lowN, highN       int
	lowMean, highMean float64
	lowMax, highMin   float64

	q1, median, q3 float64
	extremeNeg     float64
	extremeDays    []string
}

// figure5 computes Figure 5 on the taxi density at (hour, city) and, for
// (c), at (day, city): at laptop scale the daily function carries the
// outlier structure the paper's multi-year 5(c) shows (hourly counts are
// too discrete).
func figure5(e *Env) (figure5Result, error) {
	var r figure5Result
	col, err := e.Collection()
	if err != nil {
		return r, err
	}
	fn, err := scalar.Compute(col.Dataset("taxi"), scalar.Spec{Kind: scalar.Density},
		col.City, spatial.City, temporal.Hour)
	if err != nil {
		return r, err
	}
	split := topology.ComputeSplit(fn.Graph, fn.Values)
	pers := make([]float64, len(split.Pairs))
	for i, p := range split.Pairs {
		pers[i] = p.Persistence
	}
	var high []bool
	high, r.lowMax, r.highMin = mathx.TwoMeans(pers)
	r.minima = len(pers)
	for i, p := range pers {
		if high[i] {
			r.highN++
			r.highMean += p
		} else {
			r.lowN++
			r.lowMean += p
		}
	}
	r.lowMean /= float64(max(r.lowN, 1))
	r.highMean /= float64(max(r.highN, 1))

	daily, err := scalar.Compute(col.Dataset("taxi"), scalar.Spec{Kind: scalar.Density},
		col.City, spatial.City, temporal.Day)
	if err != nil {
		return r, err
	}
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
	r.q1, r.median, r.q3 = mathx.Quartiles(salientVals)
	dex := feature.NewExtractor(daily)
	r.extremeNeg = dex.Thresholds().ExtremeNeg
	for _, v := range dex.Extract(feature.Extreme).Negative.Ones() {
		_, step := daily.Graph.RegionStep(v)
		r.extremeDays = append(r.extremeDays, timeString(daily, step))
	}
	return r, nil
}

// RunFigure5 prints Figure 5 (figure5).
func RunFigure5(e *Env, w io.Writer) error {
	r, err := figure5(e)
	if err != nil {
		return err
	}
	section(w, "Figure 5(a/b): persistence of the taxi-density minima")
	fmt.Fprintf(w, "minima: %d total\n", r.minima)
	if r.lowN > 0 {
		fmt.Fprintf(w, "low-persistence cluster:  %6d minima, mean persistence %8.2f (max %.2f)\n",
			r.lowN, r.lowMean, r.lowMax)
	}
	if r.highN > 0 {
		fmt.Fprintf(w, "high-persistence cluster: %6d minima, mean persistence %8.2f (min %.2f)\n",
			r.highN, r.highMean, r.highMin)
	}
	if r.lowN > 0 && r.highN > 0 {
		fmt.Fprintf(w, "separation: high cluster starts at %.2f, low cluster ends at %.2f\n",
			r.highMin, r.lowMax)
	}
	section(w, "Figure 5(c): salient-minima values (daily) and the extreme outlier threshold")
	fmt.Fprintf(w, "salient minima values: Q1=%.1f median=%.1f Q3=%.1f\n", r.q1, r.median, r.q3)
	fmt.Fprintf(w, "extreme threshold (Q1 - 1.5*IQR): %.2f\n", r.extremeNeg)
	fmt.Fprintf(w, "extreme negative features (days below threshold): %d\n", len(r.extremeDays))
	if len(r.extremeDays) > 0 {
		fmt.Fprintf(w, "extreme days: %v (hurricanes: 2011-08-27/28, 2012-10-29/30)\n", r.extremeDays)
	}
	fmt.Fprintln(w, "paper: minima split into two persistence groups; hurricane-period values")
	fmt.Fprintln(w, "       are outliers of the salient-minima distribution")
	return nil
}
