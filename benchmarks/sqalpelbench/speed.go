package main

import (
	"sort"
	"sync"
	"time"
)

// The reference box is two virtual processors of a shared host, and what the
// host's other guests do moves its speed by a tenth or two for minutes on
// end: two runs of one binary a few minutes apart differ by more than the
// changes the benchmark has to resolve. A longer window does not average
// that away, so the window measures the host beside the platform. Between
// operations it times a fixed reference kernel, and every cycle's times are
// multiplied by referenceKernelMS / (the median kernel time of that cycle):
// the end-to-end times are milliseconds of a host running at the reference
// speed. On a quiet reference box the factor is about 1 and the numbers are
// about what the clock read, which the report prints beside them.

// referenceKernelMS is what the reference kernel takes on the quiet
// reference box. It is a unit, not a measurement: changing it rescales every
// end-to-end time of every workload.
const referenceKernelMS = 1.1

// kernelEvery is the least time between two samples of the host's speed.
// The kernel then takes about a fortieth of the window, which the cycles'
// wall times do not include.
const kernelEvery = 40 * time.Millisecond

var kernelSink uint64

// referenceKernel does a fixed piece of work shaped like a small aggregation
// and sort — pseudo-random keys, a map of heap-allocated groups, a sort with
// a closure — and returns how long it took in ms. It allocates, chases
// pointers and branches the way the engines do, so the host slows it down
// when it slows them down, and it calls nothing of the platform, so no change
// to the platform moves it.
func referenceKernel() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	keys := make([]int64, 0, 8192)
	groups := map[int64]*[4]float64{}
	for i := 0; i < 8192; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int64(x % 3000)
		keys = append(keys, int64(x%1000003))
		g := groups[k]
		if g == nil {
			g = new([4]float64)
			groups[k] = g
		}
		g[0] += float64(k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	kernelSink += uint64(len(groups)) + uint64(keys[0])
	return ms(time.Since(t0))
}

// speedometer samples the host's speed while a window runs.
type speedometer struct {
	mu    sync.Mutex
	last  time.Time
	cycle []float64     // kernel times (ms) since the last endCycle
	spent time.Duration // what the kernel took since the last endCycle
	all   []float64     // every kernel time of the window
}

func (s *speedometer) sample() {
	t0 := time.Now()
	v := referenceKernel()
	s.cycle = append(s.cycle, v)
	s.all = append(s.all, v)
	s.last = time.Now()
	s.spent += s.last.Sub(t0)
}

// burst samples the host n times in a row.
func (s *speedometer) burst(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.sample()
	}
}

// tick samples the host if kernelEvery has passed since the last sample.
func (s *speedometer) tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.last) >= kernelEvery {
		s.sample()
	}
}

// endCycle returns the factor that scales the ending cycle's times to the
// reference speed and the time the kernel took out of the cycle, and begins
// the next cycle.
func (s *speedometer) endCycle() (factor float64, spent time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cycle) == 0 {
		s.sample()
	}
	factor, spent = referenceKernelMS/median(s.cycle), s.spent
	s.cycle, s.spent = s.cycle[:0], 0
	return factor, spent
}
