package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
	"sqalpel/internal/workload"
)

// smallTPCH is shared by the core tests.
var smallTPCH = datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.0005, Seed: 3})

func newNationProject(t *testing.T) *Project {
	t.Helper()
	p, err := NewProject("nation", workload.NationBaselineQuery, ProjectOptions{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.AddEngineTarget("", engine.NewColEngine(), smallTPCH)
	p.AddEngineTarget("", engine.NewRowEngine(), smallTPCH)
	return p
}

func TestNewProjectFromBaseline(t *testing.T) {
	p := newNationProject(t)
	if p.Pool().Size() != 1 {
		t.Errorf("fresh pool size = %d, want 1 (baseline)", p.Pool().Size())
	}
	if len(p.Targets()) != 2 {
		t.Errorf("targets = %v", p.Targets())
	}
	space, err := p.Space()
	if err != nil {
		t.Fatal(err)
	}
	if space.Templates == 0 || space.Space == 0 {
		t.Errorf("space summary = %+v", space)
	}
	if !strings.Contains(p.GrammarText(), "l_projection") {
		t.Error("grammar text missing derived rules")
	}
	if !strings.Contains(p.Summary(), "nothing measured") {
		t.Errorf("summary = %q", p.Summary())
	}
}

func TestNewProjectFromGrammar(t *testing.T) {
	p, err := NewProjectFromGrammar("figure1", workload.NationSampleGrammar, ProjectOptions{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Baseline == "" {
		t.Error("baseline should be realised from the grammar")
	}
	if _, err := NewProjectFromGrammar("bad", "not a grammar", ProjectOptions{}); err == nil {
		t.Error("invalid grammar should fail")
	}
	if _, err := NewProject("bad", "not sql", ProjectOptions{}); err == nil {
		t.Error("invalid SQL should fail")
	}
}

func TestProjectEndToEnd(t *testing.T) {
	p := newNationProject(t)
	if err := p.SeedPool(6); err != nil {
		t.Fatal(err)
	}
	grown := p.GrowPool(6)
	if grown == 0 {
		t.Error("grow added nothing")
	}
	if err := p.Run(1); err != nil {
		t.Fatal(err)
	}
	runs := p.Runs()
	if len(runs) < 2*p.Pool().Size()-2 {
		t.Errorf("runs = %d for pool of %d and 2 targets", len(runs), p.Pool().Size())
	}
	hist := p.History("columba-1.0")
	if len(hist) == 0 {
		t.Error("empty history")
	}
	comps := p.Components("columba-1.0")
	if len(comps) == 0 {
		t.Error("empty components")
	}
	speed := p.Speedup("columba-1.0", "tuplestore-1.0")
	if len(speed.Points) == 0 {
		t.Error("empty speedup")
	}
	if p.Pool().Size() >= 2 {
		if _, err := p.Diff(1, 2); err != nil {
			t.Errorf("diff failed: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := p.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "query_id") {
		t.Error("CSV export missing header")
	}
	if !strings.Contains(p.Summary(), "measured") {
		t.Errorf("summary = %q", p.Summary())
	}
	// Discriminative queries exist in at least one direction on TPC-H
	// nation-style scans.
	fa, err := p.Discriminative("columba-1.0", "tuplestore-1.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := p.Discriminative("tuplestore-1.0", "columba-1.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa)+len(fb) == 0 {
		t.Error("no discriminative queries found at all")
	}
}

func TestRunNeedsTwoTargets(t *testing.T) {
	p, err := NewProject("solo", workload.NationBaselineQuery, ProjectOptions{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.AddEngineTarget("", engine.NewColEngine(), smallTPCH)
	if err := p.Run(1); err == nil {
		t.Error("run with a single target should fail")
	}
}

func TestEngineTargetReportsStats(t *testing.T) {
	target := &EngineTarget{Engine: engine.NewColEngine(), DB: smallTPCH, Timeout: 10 * time.Second}
	rows, extra, err := target.Run("SELECT count(*) FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Errorf("rows = %d", rows)
	}
	if extra["rows_scanned"] == "" {
		t.Errorf("extras = %v", extra)
	}
	if _, _, err := target.Run("SELECT broken FROM nowhere"); err == nil {
		t.Error("bad query should fail")
	}
}

func TestMeasureAllAndExplicitPair(t *testing.T) {
	p := newNationProject(t)
	if err := p.SeedPool(3); err != nil {
		t.Fatal(err)
	}
	if err := p.MeasureAll(); err != nil {
		t.Fatal(err)
	}
	if len(p.Runs()) == 0 {
		t.Error("MeasureAll produced no runs")
	}
	if err := p.Run(1, "tuplestore-1.0", "columba-1.0"); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryTargetsAndMatrix registers every built-in engine — the three
// execution paradigms — measures the pool once and reads the pairwise
// discrimination matrix.
func TestRegistryTargetsAndMatrix(t *testing.T) {
	p, err := NewProject("nation", workload.NationBaselineQuery, ProjectOptions{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := p.AddRegistryTargets(smallTPCH)
	if len(keys) < 5 {
		t.Fatalf("registry targets = %v, want at least 5", keys)
	}
	if got := p.Targets(); len(got) != len(keys) {
		t.Fatalf("targets = %v", got)
	}
	families := map[string]bool{}
	for _, k := range keys {
		families[strings.SplitN(k, "-", 2)[0]] = true
	}
	for _, want := range []string{"tuplestore", "columba", "vektor"} {
		if !families[want] {
			t.Errorf("missing paradigm %s in %v", want, keys)
		}
	}
	if err := p.SeedPool(3); err != nil {
		t.Fatal(err)
	}
	if err := p.MeasureAll(); err != nil {
		t.Fatal(err)
	}
	cells, err := p.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(keys) * (len(keys) - 1); len(cells) != want {
		t.Errorf("matrix cells = %d, want %d", len(cells), want)
	}
}

func TestParallelProjectRunMatchesSerial(t *testing.T) {
	// The same project run with 1 and with 8 measurement workers over real
	// engines grows identical pools: the walk is driven by the pool seed and
	// the scheduler only changes wall-clock. (Findings on real engines are
	// timing-dependent, so only the pool trajectory is compared here; the
	// bit-identical findings guarantee is covered with simulated targets in
	// internal/discriminative.)
	poolOf := func(parallelism int) []string {
		p, err := NewProject("nation", workload.NationBaselineQuery, ProjectOptions{
			Runs: 1, Parallelism: parallelism, Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.AddEngineTarget("", engine.NewColEngine(), smallTPCH)
		p.AddEngineTarget("", engine.NewRowEngine(), smallTPCH)
		if err := p.SeedPool(6); err != nil {
			t.Fatal(err)
		}
		if err := p.MeasureAll(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range p.Pool().Entries() {
			out = append(out, e.SQL)
		}
		return out
	}
	serial := poolOf(1)
	parallel := poolOf(8)
	if len(serial) != len(parallel) {
		t.Fatalf("pool sizes diverged: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("pool entry %d diverged:\n serial:   %s\n parallel: %s", i+1, serial[i], parallel[i])
		}
	}
}

// TestQueryParallelismUnderScheduler drives vektor's morsel-parallel
// executor through the measurement scheduler: a project whose total
// concurrency budget is split between measurement workers and intra-query
// morsel workers must grow the same pool and measure the same row counts
// as a fully serial project. Under -race this doubles as the concurrency
// audit of the new hash table and morsel pool inside the sched worker
// fan-out.
func TestQueryParallelismUnderScheduler(t *testing.T) {
	q1, _ := workload.TPCHQuery("Q1")
	rowsOf := func(parallelism, queryParallelism int) map[int]float64 {
		p, err := NewProject("q1", q1.SQL, ProjectOptions{
			Runs:             1,
			Parallelism:      parallelism,
			QueryParallelism: queryParallelism,
			Timeout:          30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.AddEngineTarget("vektor-1.0", engine.NewVektorEngine(), smallTPCH)
		p.AddEngineTarget("columba-1.0", engine.NewColEngine(), smallTPCH)
		if err := p.SeedPool(5); err != nil {
			t.Fatal(err)
		}
		if err := p.MeasureAll(); err != nil {
			t.Fatal(err)
		}
		out := map[int]float64{}
		for _, r := range p.Runs() {
			if r.Target == "vektor-1.0" && r.Error == "" {
				out[r.QueryID]++
			}
		}
		return out
	}
	serial := rowsOf(1, 1)
	shared := rowsOf(8, 4)
	if len(serial) != len(shared) {
		t.Fatalf("measured %d vs %d vektor outcomes", len(serial), len(shared))
	}
	for id := range serial {
		if _, ok := shared[id]; !ok {
			t.Errorf("query %d measured serially but not under the shared budget", id)
		}
	}
}

// TestProjectTimeoutReachesEngineTargets: the project's Timeout is the one
// its engine targets run under; without one they keep the 30 s default.
func TestProjectTimeoutReachesEngineTargets(t *testing.T) {
	for _, tc := range []struct{ set, want time.Duration }{{time.Hour, time.Hour}, {0, 30 * time.Second}} {
		p, err := NewProject("nation", workload.NationBaselineQuery, ProjectOptions{Runs: 1, Timeout: tc.set})
		if err != nil {
			t.Fatal(err)
		}
		p.AddEngineTarget("col", engine.NewColEngine(), smallTPCH)
		if got := p.targets["col"].(*EngineTarget).Timeout; got != tc.want {
			t.Errorf("ProjectOptions.Timeout %v: the engine target runs under %v, want %v", tc.set, got, tc.want)
		}
	}
}

func TestEngineTargetRunContext(t *testing.T) {
	target := &EngineTarget{Engine: engine.NewColEngine(), DB: smallTPCH, Timeout: 30 * time.Second}
	rows, _, err := target.RunContext(context.Background(), "SELECT count(*) FROM nation")
	if err != nil || rows == 0 {
		t.Fatalf("RunContext = %d rows, err %v", rows, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := target.RunContext(ctx, "SELECT count(*) FROM nation"); err == nil {
		t.Error("cancelled context should refuse to execute")
	}
	var _ metrics.ContextTarget = target
}

// inflightEngine counts the executions of the wrapped engine that have not
// returned yet and signals the first one's start.
type inflightEngine struct {
	engine.Engine
	inflight atomic.Int32
	started  chan struct{}
	once     sync.Once
}

func (e *inflightEngine) Execute(db *engine.Database, sql string, opts engine.ExecOptions) (*engine.Result, error) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	e.once.Do(func() { close(e.started) })
	return e.Engine.Execute(db, sql, opts)
}

// TestRunContextStopsTheExecution: cancelling RunContext mid-query stops
// the execution itself — when RunContext returns, no execution is left
// running behind it to compete with the next repetition for a core.
func TestRunContextStopsTheExecution(t *testing.T) {
	eng := &inflightEngine{Engine: engine.NewColEngine(), started: make(chan struct{})}
	target := &EngineTarget{Engine: eng, DB: smallTPCH, Timeout: 30 * time.Second}
	// A correlated sub-query per part: tens of milliseconds on columba.
	sql := "SELECT count(*) FROM part p WHERE p.p_size < (SELECT count(*) FROM lineitem l WHERE l.l_partkey = p.p_partkey)"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-eng.started
		cancel()
	}()
	_, _, err := target.RunContext(ctx, sql)
	if n := eng.inflight.Load(); n != 0 {
		t.Errorf("%d executions still running after RunContext returned", n)
	}
	if !errors.Is(err, plan.ErrCancelled) {
		t.Errorf("cancelled RunContext: error %v, want %v", err, plan.ErrCancelled)
	}
}
