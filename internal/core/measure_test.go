package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sqalpel/internal/engine"
	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
	"sqalpel/internal/sysload"
)

// statsEngine reports fixed counters for every execution of the wrapped
// engine.
type statsEngine struct {
	engine.Engine
	stats plan.Stats
}

func (e *statsEngine) Execute(db *engine.Database, sql string, opts engine.ExecOptions) (*engine.Result, error) {
	res, err := e.Engine.Execute(db, sql, opts)
	if err == nil {
		res.Stats = e.stats
	}
	return res, err
}

// TestExtrasMatchSprintf: the stats extras an engine target reports and
// the load extras a measurement records are the strings fmt.Sprintf wrote
// for them, "%d" and "%.2f", counters at their edges included (the load
// averages' edges are sysload's TestValuesMatchSprintf).
func TestExtrasMatchSprintf(t *testing.T) {
	stats := plan.Stats{RowsScanned: math.MaxInt64, TuplesMaterialized: math.MinInt64, IntermediatesMaterialized: -1,
		GuardCasts: 0, FilterPasses: 10, HashJoins: -9223372036854775807, Batches: 1}
	want := map[string]string{}
	for k, v := range stats.Map() {
		want[k] = fmt.Sprintf("%d", v)
	}
	target := &EngineTarget{Engine: &statsEngine{Engine: engine.NewColEngine(), stats: stats}, DB: smallTPCH, Timeout: 10 * time.Second}
	_, extra, err := target.Run("SELECT count(*) FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(extra) != fmt.Sprint(want) {
		t.Errorf("extras = %v, want %v", extra, want)
	}
	m := metrics.Measure(target, "SELECT count(*) FROM nation", metrics.Options{Runs: 2})
	if m.Failed() {
		t.Fatal(m.Err)
	}
	for side, l := range map[string]sysload.Load{"before_": m.LoadBefore, "after_": m.LoadAfter} {
		want[side+"load_avg_1"] = fmt.Sprintf("%.2f", l.Avg1)
		want[side+"load_avg_5"] = fmt.Sprintf("%.2f", l.Avg5)
		want[side+"load_avg_15"] = fmt.Sprintf("%.2f", l.Avg15)
		want[side+"load_source"] = l.Source
	}
	if fmt.Sprint(m.Extra) != fmt.Sprint(want) {
		t.Errorf("measurement extras = %v, want %v", m.Extra, want)
	}
}

// BenchmarkMeasureTraced measures one traced repetition of a small query
// through metrics.Measure, as the experiment driver measures a task: the
// engine's work plus the measurement's own — two load samples, the stats
// extras and the span tree's JSON, which the measurement keeps unparsed.
func BenchmarkMeasureTraced(b *testing.B) {
	reg := engine.NewRegistry()
	for _, key := range []string{"vektor-2.0", "columba-2.0"} {
		target := &EngineTarget{Engine: reg.Get(key), DB: smallTPCH, Timeout: 30 * time.Second, Trace: true}
		b.Run(key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := metrics.Measure(target, "SELECT n_name, count(*) FROM nation GROUP BY n_name", metrics.Options{Runs: 1}); m.Failed() || m.Trace == nil {
					b.Fatalf("measurement failed: %s", m.Err)
				}
			}
		})
	}
}
