package metrics

import (
	"math"
	"time"
)

// Stddev returns the standard deviation of the repetitions in seconds.
func (m *Measurement) Stddev() float64 {
	if len(m.Runs) < 2 {
		return 0
	}
	mean := m.Mean().Seconds()
	var sum float64
	for _, r := range m.Runs {
		d := r.Seconds() - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(m.Runs)-1))
}

// Mean returns the arithmetic mean of the repetitions.
func (m *Measurement) Mean() time.Duration {
	if len(m.Runs) == 0 {
		return 0
	}
	var total time.Duration
	for _, r := range m.Runs {
		total += r
	}
	return total / time.Duration(len(m.Runs))
}
