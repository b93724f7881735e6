package main

import (
	"math"
	"sort"
)

// median is the middle of vs (mean of the two middle values for an even
// count), 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of vs, 0 for no samples.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// interquartileMean is the mean of the middle half of vs: a "typical
// value" for samples spread over decades, where the median moves with
// whichever two samples happen to land in the middle.
func interquartileMean(vs []float64) float64 {
	s := sorted(vs)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	if len(mid) == 0 {
		return 0
	}
	return sum(mid) / float64(len(mid))
}

// tailPercentile applies the choosing-metrics rule: of the candidate
// percentiles, report the highest one that still has at least ten samples
// beyond it. With fewer than twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, perMille := range []int{900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), so a spread
// computed here matches the one the driver computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}
