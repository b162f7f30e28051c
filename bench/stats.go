package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile in n samples.
// The small slack keeps 99.9 % of 10 000 at 9990 despite p/100 not being
// exact in binary.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(rank, n))
}

// median sorts a copy of v and returns its middle value (mean of the two
// middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest percentile of tailLadder that still
// has at least ten samples strictly beyond it in a sample of n, or 0 when
// not even the median does.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (exclusive method) computes them, so the
// spread -compare prints is the one the acceptance driver checks.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}
