package metrics

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/trace"
)

func fixedTarget(delay time.Duration, rows int) Target {
	return TargetFunc(func(query string) (int, map[string]string, error) {
		time.Sleep(delay)
		return rows, map[string]string{"engine": "fake"}, nil
	})
}

func TestMeasureDefaults(t *testing.T) {
	m := Measure(fixedTarget(time.Millisecond, 7), "SELECT 1", Options{})
	if m.Failed() {
		t.Fatalf("unexpected failure: %s", m.Err)
	}
	if len(m.Runs) != DefaultRuns {
		t.Errorf("runs = %d, want %d", len(m.Runs), DefaultRuns)
	}
	if m.Rows != 7 {
		t.Errorf("rows = %d, want 7", m.Rows)
	}
	if m.Min() <= 0 || m.Max() < m.Min() || m.Mean() < m.Min() || m.Mean() > m.Max() {
		t.Errorf("summary stats inconsistent: min=%v mean=%v max=%v", m.Min(), m.Mean(), m.Max())
	}
	if m.Extra["engine"] != "fake" {
		t.Errorf("extras = %v", m.Extra)
	}
	if _, ok := m.Extra["before_load_avg_1"]; !ok {
		t.Error("load averages should be attached to extras")
	}
	if len(m.Seconds()) != DefaultRuns {
		t.Error("Seconds() length mismatch")
	}
	if !strings.Contains(m.String(), "5 runs") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestMeasureCustomRuns(t *testing.T) {
	calls := 0
	target := TargetFunc(func(query string) (int, map[string]string, error) {
		calls++
		return 1, nil, nil
	})
	m := Measure(target, "SELECT 1", Options{Runs: 3})
	if len(m.Runs) != 3 {
		t.Errorf("runs = %d, want 3", len(m.Runs))
	}
	if calls != 3 {
		t.Errorf("target calls = %d, want 3, one per measured run", calls)
	}
}

func TestMeasureFailure(t *testing.T) {
	target := TargetFunc(func(query string) (int, map[string]string, error) {
		return 0, nil, errors.New("syntax error near FROM")
	})
	m := Measure(target, "SELECT", Options{})
	if !m.Failed() {
		t.Fatal("expected failure")
	}
	if len(m.Runs) != 0 {
		t.Error("failed measurements must not carry timings")
	}
	if m.Min() != 0 || m.Mean() != 0 || m.Median() != 0 {
		t.Error("summary of a failed measurement should be zero")
	}
	if !strings.Contains(m.String(), "error") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestSummaryStatistics(t *testing.T) {
	m := &Measurement{Runs: []time.Duration{
		40 * time.Millisecond,
		10 * time.Millisecond,
		20 * time.Millisecond,
		30 * time.Millisecond,
		50 * time.Millisecond,
	}}
	if m.Min() != 10*time.Millisecond {
		t.Errorf("min = %v", m.Min())
	}
	if m.Max() != 50*time.Millisecond {
		t.Errorf("max = %v", m.Max())
	}
	if m.Mean() != 30*time.Millisecond {
		t.Errorf("mean = %v", m.Mean())
	}
	if m.Median() != 30*time.Millisecond {
		t.Errorf("median = %v", m.Median())
	}
	if m.Stddev() <= 0 {
		t.Errorf("stddev = %v", m.Stddev())
	}
	even := &Measurement{Runs: []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}}
	if even.Median() != 15*time.Millisecond {
		t.Errorf("even median = %v", even.Median())
	}
}

// ctxTarget counts executions and honours cancellation; it implements
// ContextTarget.
type ctxTarget struct {
	calls int
	block time.Duration
}

func (c *ctxTarget) Run(string) (int, map[string]string, error) {
	c.calls++
	return 1, nil, nil
}

func (c *ctxTarget) RunContext(ctx context.Context, query string) (int, map[string]string, error) {
	c.calls++
	if c.block > 0 {
		select {
		case <-time.After(c.block):
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	return 1, nil, nil
}

func TestMeasureContextCancelledBeforeStart(t *testing.T) {
	target := &ctxTarget{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := MeasureContext(ctx, target, "SELECT 1", Options{Runs: 3})
	if !m.Failed() {
		t.Fatal("cancelled measurement should fail")
	}
	if target.calls != 0 {
		t.Errorf("target executed %d times after cancellation", target.calls)
	}
	if len(m.Runs) != 0 {
		t.Errorf("failed measurement should carry no timings, got %d", len(m.Runs))
	}
}

func TestMeasureContextTimeoutAbortsContextTarget(t *testing.T) {
	target := &ctxTarget{block: time.Minute}
	start := time.Now()
	m := MeasureContext(context.Background(), target, "SELECT 1", Options{Runs: 3, Timeout: 5 * time.Millisecond})
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not abort the blocked repetition")
	}
	if !m.Failed() || !strings.Contains(m.Err, "context deadline exceeded") {
		t.Errorf("measurement = %+v", m)
	}
	if target.calls != 1 {
		t.Errorf("aborted measurement should stop after the first repetition, got %d", target.calls)
	}
}

func TestMeasureTimeoutFailsSlowPlainTargets(t *testing.T) {
	// Plain targets cannot be interrupted; the repetition is failed post hoc.
	m := Measure(fixedTarget(15*time.Millisecond, 1), "SELECT 1", Options{Runs: 2, Timeout: time.Millisecond})
	if !m.Failed() || !strings.Contains(m.Err, "timeout") {
		t.Errorf("measurement = %+v", m)
	}
}

func TestMeasureWithoutTimeoutUnchanged(t *testing.T) {
	m := Measure(fixedTarget(0, 7), "SELECT 1", Options{Runs: 2})
	if m.Failed() || len(m.Runs) != 2 || m.Rows != 7 {
		t.Errorf("measurement = %+v", m)
	}
}

// TestMeasurePanicFailsTheRepetition: a panicking target fails the
// measurement — the error says panic and names the query — instead of
// taking the process down.
func TestMeasurePanicFailsTheRepetition(t *testing.T) {
	m := Measure(TargetFunc(func(string) (int, map[string]string, error) { panic("boom") }), "SELECT 42", Options{Runs: 3})
	if !m.Failed() || !strings.Contains(m.Err, "panic: boom") || !strings.Contains(m.Err, `"SELECT 42"`) || len(m.Runs) != 0 {
		t.Errorf("measurement of a panicking target = %+v", m)
	}
}

// TestTraceKeptAsWritten pins what a measurement keeps of its span trees:
// the bytes the last traced repetition wrote, unparsed — also bytes that
// are no trace at all, which only a reader that decodes them refuses — and
// the last traced one when a later repetition fails or writes none.
func TestTraceKeptAsWritten(t *testing.T) {
	run := 0
	target := TargetFunc(func(string) (int, map[string]string, error) {
		run++
		switch run {
		case 1:
			return 1, map[string]string{trace.MeasurementExtraKey: `{"schema_version":1,"spans":[]}`}, nil
		case 2:
			return 1, map[string]string{trace.MeasurementExtraKey: `not a trace <&>`}, nil
		case 3:
			return 1, nil, nil
		}
		return 0, nil, errors.New("failed")
	})
	for runs, want := range map[int]string{1: `{"schema_version":1,"spans":[]}`, 3: `not a trace <&>`, 4: `not a trace <&>`} {
		run = 0
		m := Measure(target, "SELECT 1", Options{Runs: runs})
		if string(m.Trace) != want || m.Failed() != (runs == 4) {
			t.Errorf("%d runs: trace %q (failed %v), want %q", runs, m.Trace, m.Failed(), want)
		}
		if _, ok := m.Extra[trace.MeasurementExtraKey]; ok {
			t.Errorf("%d runs: the trace was recorded as an extra", runs)
		}
	}
	if m := Measure(fixedTarget(0, 1), "SELECT 1", Options{Runs: 2}); m.Trace != nil {
		t.Errorf("an untraced measurement kept a trace: %q", m.Trace)
	}
}
