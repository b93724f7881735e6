// Package mathx provides the small numerical routines shared across the
// framework: order statistics (quartiles, IQR), moments, and the 1-D
// two-means clustering used for automatic feature-threshold selection
// (Section 3.3 of the Data Polygamy paper).
package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, or NaN for empty input.
// xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quartiles returns (Q1, Q2, Q3) of xs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, 0.25), quantileSorted(sorted, 0.5), quantileSorted(sorted, 0.75)
}

// IQR returns the inter-quartile range Q3 - Q1 of xs.
func IQR(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	return q3 - q1
}

// TwoMeans clusters 1-D values into two groups (k-means with k = 2) and
// returns the boundary between the low and high cluster along with the
// cluster assignment (false = low cluster, true = high cluster).
//
// Initialization is deterministic — centroids start at the min and max —
// which for 1-D two-means converges to the optimal split. If all values
// are identical, every point is assigned to the low cluster.
func TwoMeans(xs []float64) (highCluster []bool, lowMax, highMin float64) {
	n := len(xs)
	highCluster = make([]bool, n)
	if n == 0 {
		return highCluster, math.NaN(), math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo == hi {
		return highCluster, lo, math.NaN()
	}
	c0, c1 := lo, hi
	for iter := 0; iter < 100; iter++ {
		var s0, s1, n0, n1 float64
		for _, x := range xs {
			if math.Abs(x-c0) <= math.Abs(x-c1) {
				s0 += x
				n0++
			} else {
				s1 += x
				n1++
			}
		}
		if n0 == 0 || n1 == 0 {
			break
		}
		nc0, nc1 := s0/n0, s1/n1
		if nc0 == c0 && nc1 == c1 {
			break
		}
		c0, c1 = nc0, nc1
	}
	lowMax = math.Inf(-1)
	highMin = math.Inf(1)
	for i, x := range xs {
		if math.Abs(x-c0) <= math.Abs(x-c1) {
			lowMax = math.Max(lowMax, x)
		} else {
			highCluster[i] = true
			highMin = math.Min(highMin, x)
		}
	}
	if math.IsInf(highMin, 1) {
		highMin = math.NaN()
	}
	return highCluster, lowMax, highMin
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
