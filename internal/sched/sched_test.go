package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqalpel/internal/metrics"
)

// countingTarget records how often each query executed.
type countingTarget struct {
	mu    sync.Mutex
	calls map[string]int
	delay time.Duration
}

func (c *countingTarget) Run(query string) (int, map[string]string, error) {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = map[string]int{}
	}
	c.calls[query]++
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if strings.Contains(query, "boom") {
		return 0, nil, errors.New("simulated failure")
	}
	return len(query), nil, nil
}

func (c *countingTarget) count(query string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[query]
}

func TestMeasureAlignsResultsWithCells(t *testing.T) {
	target := &countingTarget{}
	s := New(Options{Workers: 8})
	var cells []Cell
	for i := 0; i < 20; i++ {
		cells = append(cells, Cell{Target: "t", Runner: target, SQL: fmt.Sprintf("SELECT %02d", i), Runs: 1})
	}
	results := s.Measure(context.Background(), cells)
	if len(results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(results), len(cells))
	}
	for i, r := range results {
		if r.Cell.SQL != cells[i].SQL {
			t.Errorf("result %d holds cell %q, want %q", i, r.Cell.SQL, cells[i].SQL)
		}
		if r.Measurement == nil || r.Measurement.Failed() {
			t.Errorf("result %d failed: %v", i, r.Measurement)
		}
		if r.Measurement.Rows != len(cells[i].SQL) {
			t.Errorf("result %d rows = %d, want %d", i, r.Measurement.Rows, len(cells[i].SQL))
		}
	}
}

func TestResultCacheDeduplicatesByTargetAndNormalizedSQL(t *testing.T) {
	target := &countingTarget{}
	s := New(Options{Workers: 4})
	cells := []Cell{
		{Target: "a", Runner: target, SQL: "SELECT 1", Runs: 2},
		{Target: "a", Runner: target, SQL: "  SELECT  1 ;", Runs: 2}, // same normalized identity
		{Target: "b", Runner: target, SQL: "SELECT 1", Runs: 2},      // other target measures again
	}
	results := s.Measure(context.Background(), cells)
	if got := target.count("SELECT 1") + target.count("  SELECT  1 ;"); got != 4 {
		t.Errorf("the duplicate cell should be served from cache; %d executions, want 4 (2 runs x 2 targets)", got)
	}
	// The replay is the cache entry itself, shared read-only; only
	// Result.Cached tells it from the fresh execution.
	if results[0].Cached || !results[1].Cached {
		t.Errorf("Cached = %v, %v; want the duplicate cell alone replayed", results[0].Cached, results[1].Cached)
	}
	if results[1].Measurement != results[0].Measurement {
		t.Error("the replay should share the measuring cell's measurement")
	}
	if results[0].Measurement == results[2].Measurement {
		t.Error("different targets must not share measurements")
	}
	measured, cached := s.Stats()
	if measured != 2 || cached != 1 {
		t.Errorf("stats = (%d measured, %d cached), want (2, 1)", measured, cached)
	}

	// A second round over the same cells is fully cached.
	s.Measure(context.Background(), cells)
	if got := target.count("SELECT 1") + target.count("  SELECT  1 ;"); got != 4 {
		t.Errorf("re-measuring cached cells executed queries: %d, want 4", got)
	}
}

func TestParallelAndSerialProduceSameOutcomes(t *testing.T) {
	var cells []Cell
	mk := func() []Cell {
		target := &countingTarget{}
		cells = nil
		for i := 0; i < 12; i++ {
			sql := fmt.Sprintf("SELECT %d", i)
			if i%5 == 0 {
				sql += " boom"
			}
			cells = append(cells, Cell{Target: "t", Runner: target, SQL: sql, Runs: 1})
		}
		return cells
	}
	serial := New(Options{Workers: 1}).Measure(context.Background(), mk())
	parallel := New(Options{Workers: 8}).Measure(context.Background(), mk())
	for i := range serial {
		if serial[i].Measurement.Failed() != parallel[i].Measurement.Failed() {
			t.Errorf("cell %d: failure disagrees between workers=1 and workers=8", i)
		}
		if serial[i].Measurement.Rows != parallel[i].Measurement.Rows {
			t.Errorf("cell %d: rows disagree between workers=1 and workers=8", i)
		}
	}
}

func TestCancelledMeasurementsFailAndAreNotCached(t *testing.T) {
	target := &countingTarget{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Options{Workers: 2})
	results := s.Measure(ctx, []Cell{{Target: "t", Runner: target, SQL: "SELECT 1", Runs: 1}})
	if !results[0].Measurement.Failed() {
		t.Fatal("cancelled cell should come back failed")
	}
	measured, _ := s.Stats()
	if measured != 0 {
		t.Errorf("cancelled measurement should be evicted from the cache, measured = %d", measured)
	}
	// A later, live call measures for real.
	results = s.Measure(context.Background(), []Cell{{Target: "t", Runner: target, SQL: "SELECT 1", Runs: 1}})
	if results[0].Measurement.Failed() {
		t.Errorf("re-measure after cancellation failed: %s", results[0].Measurement.Err)
	}
}

// slowContextTarget blocks until its context is done.
type slowContextTarget struct{ aborted atomic.Bool }

func (s *slowContextTarget) Run(string) (int, map[string]string, error) {
	return 0, nil, errors.New("Run should not be used when RunContext exists")
}

func (s *slowContextTarget) RunContext(ctx context.Context, query string) (int, map[string]string, error) {
	<-ctx.Done()
	s.aborted.Store(true)
	return 0, nil, ctx.Err()
}

func TestTimeoutAbortsContextTargets(t *testing.T) {
	target := &slowContextTarget{}
	s := New(Options{Workers: 1, Timeout: 5 * time.Millisecond})
	start := time.Now()
	results := s.Measure(context.Background(), []Cell{{Target: "t", Runner: target, SQL: "SELECT sleep()", Runs: 3}})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout did not bound the run, took %s", elapsed)
	}
	if !results[0].Measurement.Failed() {
		t.Error("timed out measurement should be failed")
	}
	if !target.aborted.Load() {
		t.Error("target never observed the context deadline")
	}
	var _ metrics.ContextTarget = target // the scheduler relies on this path
}

// TestPanickingTargetFailsOnlyItsCell: a target that panics mid-run under
// the worker pool fails its own cell with the panic and the query named;
// every other cell is measured and the process survives.
func TestPanickingTargetFailsOnlyItsCell(t *testing.T) {
	target := &countingTarget{}
	panicking := metrics.TargetFunc(func(query string) (int, map[string]string, error) {
		panic("executor bug")
	})
	var cells []Cell
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{Target: "t", Runner: target, SQL: fmt.Sprintf("SELECT %d", i), Runs: 2})
	}
	cells[3] = Cell{Target: "p", Runner: panicking, SQL: "SELECT 3", Runs: 2}
	results := New(Options{Workers: 2}).Measure(context.Background(), cells)
	for i, r := range results {
		if i == 3 {
			if err := r.Measurement.Err; !strings.Contains(err, "panic: executor bug") || !strings.Contains(err, `"SELECT 3"`) {
				t.Errorf("panicking cell: error %q, want the panic and the query", err)
			}
			continue
		}
		if r.Measurement.Failed() || len(r.Measurement.Runs) != 2 {
			t.Errorf("cell %d beside the panicking one: %v", i, r.Measurement)
		}
	}
}
