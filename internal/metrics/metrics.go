// Package metrics implements the measurement discipline of the sqalpel
// experiment driver: each query is executed a configurable number of times
// (five by default, as in the paper), the wall-clock time of every step is
// recorded, the system load is sampled at the beginning and the end of the
// run, and an open-ended key/value list carries system-specific performance
// indicators for post inspection. A target that traces its operators hands
// over the span tree as JSON, which the measurement keeps as the bytes the
// target wrote (Measurement.Trace): the driver sends them as they are, and
// nothing on its path decodes them.
//
// Measurements are cancellable: MeasureContext checks its context between
// repetitions and forwards a per-repetition deadline to targets that
// implement ContextTarget, which is how the concurrent scheduler
// (internal/sched) bounds and aborts in-flight work.
package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"sqalpel/internal/sysload"
	"sqalpel/internal/trace"
)

// DefaultRuns is the default number of repetitions per experiment.
const DefaultRuns = 5

// SimulatedDurationKey is a reserved Extra key: when a target's Run reports
// it, its value (integer nanoseconds) replaces the wall-clock time of that
// repetition and the key is consumed rather than recorded. Simulator
// targets use it to make measurements fully reproducible — the
// parallelism-determinism tests rely on it, and it lets a driver replay
// archived traces through the unchanged measurement pipeline.
const SimulatedDurationKey = "sqalpel_simulated_ns"

// Measurement is the outcome of measuring one query on one target.
type Measurement struct {
	// Runs are the wall-clock times of the individual repetitions, in the
	// order they were executed.
	Runs []time.Duration
	// Rows is the number of result rows of the last repetition.
	Rows int
	// Err holds the error message when the query failed; failed queries
	// carry no timings.
	Err string
	// LoadBefore and LoadAfter are the system load samples around the run.
	LoadBefore sysload.Load
	LoadAfter  sysload.Load
	// Extra is the open-ended key/value list of system specific indicators.
	Extra map[string]string
	// Trace is the per-operator span tree of the last traced repetition as
	// the bytes the target wrote under trace.MeasurementExtraKey: a driver
	// sends them as they are, and an in-process reader decodes them with
	// trace.ParseTrace. nil when the target does not trace.
	Trace json.RawMessage
}

// Failed reports whether the measurement captured an error.
func (m *Measurement) Failed() bool { return m.Err != "" }

// Min returns the fastest repetition; zero when the measurement failed.
func (m *Measurement) Min() time.Duration {
	if len(m.Runs) == 0 {
		return 0
	}
	min := m.Runs[0]
	for _, r := range m.Runs[1:] {
		if r < min {
			min = r
		}
	}
	return min
}

// Max returns the slowest repetition.
func (m *Measurement) Max() time.Duration {
	var max time.Duration
	for _, r := range m.Runs {
		if r > max {
			max = r
		}
	}
	return max
}

// Median returns the median repetition time.
func (m *Measurement) Median() time.Duration {
	if len(m.Runs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), m.Runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// Seconds returns the per-run times in seconds, the unit used by the
// platform's result records and analytics.
func (m *Measurement) Seconds() []float64 {
	out := make([]float64, len(m.Runs))
	for i, r := range m.Runs {
		out[i] = r.Seconds()
	}
	return out
}

// String summarises the measurement.
func (m *Measurement) String() string {
	if m.Failed() {
		return "error: " + m.Err
	}
	return fmt.Sprintf("%d runs, min %.4fs, median %.4fs, max %.4fs",
		len(m.Runs), m.Min().Seconds(), m.Median().Seconds(), m.Max().Seconds())
}

// Target is anything that can execute a query and report how many rows came
// back plus optional extra indicators. The engine adapters in the core
// package implement it; remote JDBC-style targets would too.
type Target interface {
	// Run executes the query once and returns the number of result rows and
	// system-specific extras.
	Run(query string) (rows int, extra map[string]string, err error)
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(query string) (int, map[string]string, error)

// Run implements Target.
func (f TargetFunc) Run(query string) (int, map[string]string, error) { return f(query) }

// ContextTarget is a Target that honours context cancellation and deadlines
// while executing. The built-in engine targets (core.EngineTarget) do: the
// context reaches the executors, which stop mid-query. Targets that merely
// implement Target are still usable under MeasureContext, but a repetition
// already in flight cannot be interrupted — cancellation then takes effect
// between repetitions.
type ContextTarget interface {
	Target
	// RunContext executes the query once, aborting when the context is
	// cancelled or its deadline passes.
	RunContext(ctx context.Context, query string) (rows int, extra map[string]string, err error)
}

// Options configure a measurement.
type Options struct {
	// Runs is the number of repetitions; zero means DefaultRuns.
	Runs int
	// Timeout bounds a single repetition; zero means no limit. Targets that
	// implement ContextTarget are aborted mid-flight; plain targets are
	// measured to completion and the repetition is then failed post hoc.
	Timeout time.Duration
}

// Measure runs the query against the target with the configured number of
// repetitions and captures timings, load and extras.
func Measure(target Target, query string, opts Options) *Measurement {
	return MeasureContext(context.Background(), target, query, opts)
}

// MeasureContext is Measure with cancellation: the context is checked before
// every repetition, and opts.Timeout bounds each individual repetition.
func MeasureContext(ctx context.Context, target Target, query string, opts Options) *Measurement {
	runs := opts.Runs
	if runs <= 0 {
		runs = DefaultRuns
	}
	m := &Measurement{Extra: map[string]string{}, LoadBefore: sysload.Sample()}
	var traced string // the span tree of the last traced repetition
	keepTrace := func() {
		if traced != "" {
			m.Trace = json.RawMessage(traced)
		}
	}
	fail := func(err error) *Measurement {
		m.Err = err.Error()
		m.Runs = nil
		m.LoadAfter = sysload.Sample()
		keepTrace()
		return m
	}
	for i := 0; i < runs; i++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		rows, extra, elapsed, err := runOnce(ctx, target, query, opts.Timeout)
		if err != nil {
			return fail(err)
		}
		if v, ok := extra[SimulatedDurationKey]; ok {
			if ns, perr := strconv.ParseInt(v, 10, 64); perr == nil {
				elapsed = time.Duration(ns)
			}
		}
		if i == 0 {
			// Sized for the first repetition's extras and the load samples.
			m.Runs = make([]time.Duration, 0, runs)
			m.Extra = make(map[string]string, len(extra)+2*len(sysload.Keys))
		}
		m.Runs = append(m.Runs, elapsed)
		m.Rows = rows
		for k, v := range extra {
			// The simulated duration is consumed, not recorded; skipping it
			// here (instead of deleting it from the target's map) keeps
			// shared extra maps safe under concurrent measurement.
			if k == SimulatedDurationKey {
				continue
			}
			// Operator traces ride the same reserved-key channel: kept as
			// Measurement.Trace (last repetition wins), never recorded as a
			// plain extra.
			if k == trace.MeasurementExtraKey {
				traced = v
				continue
			}
			m.Extra[k] = v
		}
	}
	m.LoadAfter = sysload.Sample()
	keepTrace()
	for i, v := range m.LoadBefore.Values() {
		m.Extra[beforeKeys[i]] = v
	}
	for i, v := range m.LoadAfter.Values() {
		m.Extra[afterKeys[i]] = v
	}
	return m
}

// beforeKeys and afterKeys name the load samples around a run in its
// extras: sysload.Keys prefixed with "before_" and "after_".
var beforeKeys, afterKeys = loadKeys("before_"), loadKeys("after_")

func loadKeys(prefix string) (keys [len(sysload.Keys)]string) {
	for i, k := range sysload.Keys {
		keys[i] = prefix + k
	}
	return keys
}

// runOnce executes a single repetition under the per-repetition timeout. A
// panicking target fails the repetition instead of the process.
func runOnce(ctx context.Context, target Target, query string, timeout time.Duration) (rows int, extra map[string]string, elapsed time.Duration, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			rows, extra, err = 0, nil, fmt.Errorf("panic: %v (query %q)", r, query)
		}
	}()
	start := time.Now()
	if ct, ok := target.(ContextTarget); ok {
		rows, extra, err = ct.RunContext(ctx, query)
	} else {
		rows, extra, err = target.Run(query)
	}
	elapsed = time.Since(start)
	if err == nil && timeout > 0 && elapsed > timeout {
		err = fmt.Errorf("query exceeded the %s timeout (took %s)", timeout, elapsed.Round(time.Millisecond))
	}
	return rows, extra, elapsed, err
}
