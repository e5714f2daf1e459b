package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs, or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// rank returns the nearest rank (1-based) of the p-th percentile among n
// samples. The epsilon keeps 99.9 % of 10,000 at 9,990, which the binary
// fraction 99.9/100 would push to 9,991.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p percent of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// highestPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it, and its value; a tail read from fewer
// samples is an anecdote, not a percentile. With fewer than twenty samples
// it falls back to the median.
func highestPercentile(xs []float64) (p, value float64) {
	p = tailPercentiles[0]
	for _, c := range tailPercentiles {
		if len(xs)-rank(c, len(xs)) >= 10 {
			p = c
		}
	}
	return p, percentile(xs, p)
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is what the acceptance driver computes spreads from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
