package main

import (
	"math"
	"testing"
	"time"
)

// A cycle measured on a host at half the reference speed: its wall time,
// less what the kernel took, and its samples are halved; one kernel sample
// that a stall hit does not move the median.
func TestCycleScaling(t *testing.T) {
	var w windowResult
	w.speed.cycle = []float64{2 * referenceKernelMS, 2 * referenceKernelMS, 9 * referenceKernelMS}
	w.speed.spent = 10 * time.Millisecond
	i := w.closeCycle(110*time.Millisecond, 4, []sample{{"a", 3}})
	w.file(i, sample{"page", 8}, false)

	c := w.cycles[i]
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("factor", c.factor, 0.5)
	near("wall (ms)", ms(c.wall), 50)
	near("raw wall (ms)", ms(c.rawWall), 100)
	near("ops/s", w.opsPerSecond(), 80)
	near("ops/s on the clock", w.rawOpsPerSecond(), 40)
	if len(c.lat) != 1 {
		t.Fatalf("cycle holds %d latencies, want 1: a side operation is not the workload's own", len(c.lat))
	}
	near("own sample", c.lat[0], 1.5)
	near("class a", w.classes["a"][0], 1.5)
	near("class page", w.classes["page"][0], 4)
	if len(w.speed.cycle) != 0 || w.speed.spent != 0 {
		t.Errorf("the next cycle does not start empty")
	}
}

// The kernel must do the same work every time, or it measures nothing.
func TestReferenceKernelRepeats(t *testing.T) {
	before := kernelSink
	referenceKernel()
	first := kernelSink - before
	referenceKernel()
	if second := kernelSink - before - first; second != first {
		t.Errorf("kernel results differ: %d then %d", first, second)
	}
}
