package main

import (
	"fmt"
	"sort"
	"time"
)

// The end-to-end run sets the workload up at least minSetups times, and
// again until the set-ups have taken setupBudget or there are maxSetups of
// them, and reports the median: a single set-up time is too noisy to bound,
// and one of a few hundredths of a second (search_variants) needs many.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// cycle is one repetition of a workload's fixed unit of work: every cycle of
// a window holds the same mix of operations. Its times are scaled to the
// reference host speed (see speedometer).
type cycle struct {
	wall time.Duration
	ops  int
	lat  []float64 // latency (ms) of each of the cycle's operations
	// factor is what the cycle's raw times were multiplied by; rawWall is
	// the cycle's wall time as the clock read it.
	factor  float64
	rawWall time.Duration
}

// sample is one operation's latency as the clock read it.
type sample struct {
	class string
	ms    float64
}

// windowResult is what one measured window of a workload observed.
type windowResult struct {
	wall   time.Duration
	ops    int
	failed int
	// cycles are the window's cycles in order. The end-to-end rate and
	// percentiles are medians over them: the machine's second-to-second
	// noise and a window's slow start move a pooled mean or tail, they
	// move the typical cycle much less.
	cycles []cycle
	// sideOps are operations beside the workload's own (the readers' page
	// fetches): attempted and checked, but not part of ops_per_s.
	sideOps int
	// classes holds the latency samples (ms, scaled) of each operation class
	// over the whole window, for class_geomean_ms; the readers' pages are
	// classes too.
	classes map[string][]float64
	// planHits and planMisses are the plan-cache lookups of the window.
	planHits, planMisses uint64
	leaseLost            int
	// speed measures the host while the window runs.
	speed speedometer
}

func (w *windowResult) add(class string, v float64) {
	if w.classes == nil {
		w.classes = map[string][]float64{}
	}
	w.classes[class] = append(w.classes[class], v)
}

// tick lets the speedometer take a sample if one is due. The workloads call
// it between operations, never inside one.
func (w *windowResult) tick() { w.speed.tick() }

// closeCycle ends a cycle that took wall on the clock: it scales the cycle's
// wall time (less what the speedometer itself took) and its samples to the
// reference host speed and files them. It returns the cycle's index, for
// samples that are only known later (see file).
func (w *windowResult) closeCycle(wall time.Duration, ops int, samples []sample) int {
	factor, spent := w.speed.endCycle()
	c := cycle{ops: ops, factor: factor, rawWall: wall - spent}
	c.wall = time.Duration(float64(c.rawWall) * factor)
	w.cycles = append(w.cycles, c)
	i := len(w.cycles) - 1
	for _, s := range samples {
		w.file(i, s, true)
	}
	return i
}

// file scales a sample by the factor of cycle i and adds it to its class
// and, if it is one of the workload's own operations, to the cycle.
func (w *windowResult) file(i int, s sample, own bool) {
	c := &w.cycles[i]
	v := s.ms * c.factor
	w.add(s.class, v)
	if own {
		c.lat = append(c.lat, v)
	}
}

// latencies returns the latency samples of every cycle's operations.
func (w *windowResult) latencies() []float64 {
	var out []float64
	for _, c := range w.cycles {
		out = append(out, c.lat...)
	}
	return out
}

// rawOpsPerSecond is the rate as the clock read it, over the cycles.
func (w *windowResult) rawOpsPerSecond() float64 {
	return w.overCycles(func(c cycle) float64 { return float64(c.ops) / c.rawWall.Seconds() })
}

// overCycles returns the median over the cycles of f.
func (w *windowResult) overCycles(f func(c cycle) float64) float64 {
	vals := make([]float64, len(w.cycles))
	for i, c := range w.cycles {
		vals[i] = f(c)
	}
	return median(vals)
}

func (w *windowResult) opsPerSecond() float64 {
	return w.overCycles(func(c cycle) float64 { return float64(c.ops) / c.wall.Seconds() })
}

func (w *windowResult) p50() float64 {
	return w.overCycles(func(c cycle) float64 { return median(c.lat) })
}

func (w *windowResult) p95() float64 {
	return w.overCycles(func(c cycle) float64 { return percentile(c.lat, 95) })
}

// classGeomean is the geometric mean over the classes of each class's
// median: every class weighs the same however many samples it has, so a
// loss on the short operations is not drowned by the long ones.
func (w *windowResult) classGeomean() float64 {
	names := make([]string, 0, len(w.classes))
	for c := range w.classes {
		names = append(names, c)
	}
	sort.Strings(names)
	meds := make([]float64, 0, len(names))
	for _, c := range names {
		meds = append(meds, median(w.classes[c]))
	}
	return geomean(meds)
}

// workloadImpl is one named workload.
type workloadImpl interface {
	// setup builds a fresh state, releasing the previous one.
	setup() error
	// window measures for about d; rec is nil in the untraced run.
	window(d time.Duration, rec *recorder) (*windowResult, error)
	// verify checks the outputs of the last window; it may consume the state.
	verify(rep *report, win *windowResult)
	// close releases the state.
	close()
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// workloadProcs is the GOMAXPROCS a workload runs under: as many processors
// as it has clients. tpch_power and search_variants are one client working
// through the engines in its own process, so a second processor would only
// carry the garbage collector, and how the shared host schedules that one
// beside the first is noise the workload does not need. The drains are two
// clients (two driver workers, or one and a reader) over a server.
func workloadProcs(name string) int {
	switch name {
	case "tpch_power", "search_variants":
		return 1
	}
	return 2
}

func newWorkload(cfg config) workloadImpl {
	switch cfg.workload {
	case "tpch_power":
		return newTPCHPower(cfg)
	case "search_variants":
		return newSearchVariants(cfg)
	case "task_drain":
		return newTaskDrain(cfg, false)
	case "task_drain_readers":
		return newTaskDrain(cfg, true)
	}
	return nil
}

// count adds a window's operations to the run's attempted and failed.
func (r *report) count(win *windowResult) {
	r.attempted += win.ops + win.sideOps
	r.failed += win.failed
}

// runEndToEnd is the untraced run: set-up (repeated, median reported), one
// measured window, the correctness checks.
func runEndToEnd(cfg config, impl workloadImpl, rep *report) error {
	var setups, clock []float64
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		// A set-up cannot be interrupted to sample the host, so it is scaled
		// by what the kernel takes right before and right after it.
		var host speedometer
		host.burst(5)
		t0 := time.Now()
		if err := impl.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		host.burst(5)
		factor, _ := host.endCycle()
		total += dt
		clock = append(clock, dt.Seconds())
		setups = append(setups, dt.Seconds()*factor)
	}
	rep.set("setup_s", median(setups))
	rep.note("set-up times (s) at the reference host speed: %.4g, median reported; on the clock: %.4g", setups, clock)

	win, err := impl.window(cfg.window, nil)
	if err != nil {
		return err
	}
	impl.verify(rep, win)
	reportWindow(rep, win)
	rep.set("peak_rss_mb", peakRSSMB())
	return nil
}

// reportWindow turns a window into the end-to-end metrics and notes.
func reportWindow(rep *report, win *windowResult) {
	rep.count(win)
	lat := win.latencies()
	rep.set("ops_per_s", win.opsPerSecond())
	rep.set("op_p50_ms", win.p50())
	rep.set("op_p95_ms", win.p95())
	rep.set("class_geomean_ms", win.classGeomean())
	rep.note("window %.3fs, %d cycles, %d operations, %d latency samples; the rate and percentiles reported are medians over the cycles, at the reference host speed",
		win.wall.Seconds(), len(win.cycles), win.ops, len(lat))
	kernel := win.speed.all
	factors := make([]float64, len(win.cycles))
	for i, c := range win.cycles {
		factors[i] = c.factor
	}
	factors = sorted(factors)
	rep.note("  host speed: reference kernel %.4f ms (median of %d samples, %.4f to %.4f; the reference is %.4g ms), so the cycles' times were multiplied by %.4f (median, %.4f to %.4f)",
		median(kernel), len(kernel), percentile(kernel, 5), percentile(kernel, 95), referenceKernelMS,
		median(factors), factors[0], factors[len(factors)-1])
	rep.note("  on the clock: %.4f ops/s (median over the cycles); pooled over the window at reference speed: p50 %.4f ms, p95 %.4f ms", win.rawOpsPerSecond(), median(lat), percentile(lat, 95))
	names := make([]string, 0, len(win.classes))
	for c := range win.classes {
		names = append(names, c)
	}
	sort.Strings(names)
	if len(names) > 16 {
		names = nil // tpch_power's 66 classes are summarised per engine instead
	}
	for _, c := range names {
		s := win.classes[c]
		rep.note("  class %-28s n=%-6d p50 %10.4f ms  p95 %10.4f ms", c, len(s), median(s), percentile(s, 95))
	}
	if win.planHits+win.planMisses > 0 {
		rep.note("plan cache: %d hits, %d misses", win.planHits, win.planMisses)
	}
}

// runTraced is the traced run: an untraced reference window and a traced
// window of a third of the length each, then the per-layer probes.
func runTraced(cfg config, impl workloadImpl, rep *report, env map[string]string) error {
	d := cfg.window / 3
	if err := impl.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ref, err := impl.window(d, nil)
	if err != nil {
		return err
	}
	impl.verify(rep, ref)
	rep.count(ref)

	if err := impl.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	traced, err := impl.window(d, rec)
	if err != nil {
		return err
	}
	impl.verify(rep, traced)
	rep.count(traced)
	spans := rec.snapshot()
	path, err := writeTrace(cfg.outDir, cfg.workload, cfg.seed, env, spans)
	if err != nil {
		return err
	}
	rep.note("trace: %d spans written to %s", len(spans), path)

	shares := layerShares(spans)
	for _, l := range layers {
		rep.set("share."+l, shares[l])
	}
	rep.set("trace.cover_ratio", 1-shares["harness"])
	refRate, tracedRate := ref.opsPerSecond(), traced.opsPerSecond()
	if tracedRate > 0 {
		rep.set("trace.window_overhead_ratio", refRate/tracedRate)
	}
	rep.note("reference window %.0f ops/s, traced window %.0f ops/s", refRate, tracedRate)
	if n := ref.planHits + ref.planMisses; n > 0 {
		rep.set("plan.cache_hit_ratio", float64(ref.planHits)/float64(n))
	} else {
		rep.set("plan.cache_hit_ratio", 0)
	}
	pct, pmax := highestPercentile(ref.latencies())
	rep.set("op_pmax_ms", pmax)
	rep.set("op_pmax_pct", pct)
	rep.set("driver.lease_lost", float64(ref.leaseLost+traced.leaseLost))

	impl.close()
	return runProbes(cfg, rep)
}
