package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: the helpers must sort
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The reported tail is the highest percentile that still has ten samples
// beyond it.
func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		p, v := highestPercentile(seq(c.n))
		if p != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, p, c.want)
		}
		if beyond := c.n - int(v); c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v leaves only %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,10,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	// Zeroes (a class without samples) are left out, not multiplied in.
	if got := geomean([]float64{0, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Errorf("geomean(0,4,9) = %v, want 6", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the acceptance driver computes spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}
