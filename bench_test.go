// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each benchmark
// prepares its workload outside the timed loop and reports the headline
// numbers of the corresponding artefact through b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the paper's story end to end:
//
//	Table 1   BenchmarkTable1TPCSurvey
//	Table 2   BenchmarkTable2QuerySpace
//	Figure 1  BenchmarkFigure1SampleGrammar
//	Figure 2  BenchmarkFigure2DominantComponents
//	Figure 3  BenchmarkFigure3Speedup
//	Figure 4  BenchmarkFigure4Differentials
//	Figure 5  BenchmarkFigure5GrammarPage
//	Figure 6  BenchmarkFigure6PoolPage
//	Figure 7  BenchmarkFigure7ExperimentHistory
//	ablations BenchmarkAblation*
//	substrate BenchmarkEnginesTPCH, BenchmarkParadigmsScanAggregation
package sqalpel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sqalpel/internal/analytics"
	"sqalpel/internal/core"
	"sqalpel/internal/datagen"
	"sqalpel/internal/derive"
	"sqalpel/internal/discriminative"
	"sqalpel/internal/engine"
	"sqalpel/internal/grammar"
	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
	"sqalpel/internal/pool"
	"sqalpel/internal/server"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/tpcsurvey"
	"sqalpel/internal/trace"
	"sqalpel/internal/vexec"
	"sqalpel/internal/workload"
)

// --- shared fixtures ---------------------------------------------------------

var (
	tpchSmallOnce sync.Once
	tpchSmall     *engine.Database // SF 0.005, the "1x" instance
	tpchLargeOnce sync.Once
	tpchLarge     *engine.Database // SF 0.05, the "10x" instance
)

func smallTPCH() *engine.Database {
	tpchSmallOnce.Do(func() {
		tpchSmall = datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.005, Seed: 11})
	})
	return tpchSmall
}

func largeTPCH() *engine.Database {
	tpchLargeOnce.Do(func() {
		tpchLarge = datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.05, Seed: 11})
	})
	return tpchLarge
}

// q1Project builds a measured Q1 project on the given database with both
// engines as targets; it is the workhorse behind the Figure 2/3/4/7 benches.
func q1Project(b *testing.B, db *engine.Database, runs int) *core.Project {
	b.Helper()
	q1, _ := workload.TPCHQuery("Q1")
	project, err := core.NewProject("q1", q1.SQL, core.ProjectOptions{Runs: runs, Pool: pool.Options{Seed: 17}})
	if err != nil {
		b.Fatal(err)
	}
	project.AddEngineTarget("columba-1.0", engine.NewColEngine(), db)
	project.AddEngineTarget("tuplestore-1.0", engine.NewRowEngine(), db)
	if err := project.SeedPool(10); err != nil {
		b.Fatal(err)
	}
	project.GrowPool(10)
	if err := project.MeasureAll(); err != nil {
		b.Fatal(err)
	}
	return project
}

// --- Table 1 -------------------------------------------------------------------

// BenchmarkTable1TPCSurvey regenerates the TPC benchmark census of Table 1.
func BenchmarkTable1TPCSurvey(b *testing.B) {
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = tpcsurvey.Render()
	}
	if !strings.Contains(rendered, "TPC-C") {
		b.Fatal("census rendering broken")
	}
	b.ReportMetric(float64(tpcsurvey.TotalReports()), "reports")
	b.ReportMetric(float64(len(tpcsurvey.BenchmarksWithoutResults())), "benchmarks_without_results")
}

// --- Table 2 -------------------------------------------------------------------

// BenchmarkTable2QuerySpace regenerates the TPC-H query-space table: for each
// of the 22 queries the baseline is converted into a grammar and its space is
// enumerated. The per-query sub-benchmarks report the tag, template and space
// counts the paper tabulates.
func BenchmarkTable2QuerySpace(b *testing.B) {
	enumOpts := grammar.EnumerateOptions{TemplateCap: grammar.DefaultTemplateCap, LiteralOnce: true}
	for _, id := range workload.TPCHIDs() {
		q, _ := workload.TPCHQuery(id)
		b.Run(id, func(b *testing.B) {
			var sum grammar.SpaceSummary
			var err error
			for i := 0; i < b.N; i++ {
				sum, err = derive.Summary(q.SQL, derive.DefaultOptions(), enumOpts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sum.Tags), "tags")
			b.ReportMetric(float64(sum.Templates), "templates")
			if sum.Capped {
				b.ReportMetric(1, "capped")
			} else {
				b.ReportMetric(float64(sum.Space), "space")
			}
		})
	}
}

// --- Figure 1 ------------------------------------------------------------------

// BenchmarkFigure1SampleGrammar parses the paper's sample grammar, checks it,
// enumerates its space and generates concrete sentences from it.
func BenchmarkFigure1SampleGrammar(b *testing.B) {
	var space grammar.SpaceSummary
	for i := 0; i < b.N; i++ {
		g, err := grammar.Parse(workload.NationSampleGrammar)
		if err != nil {
			b.Fatal(err)
		}
		if rep := g.Check(); !rep.OK() {
			b.Fatalf("grammar not clean: %v", rep)
		}
		space, err = g.Space(grammar.DefaultEnumerateOptions())
		if err != nil {
			b.Fatal(err)
		}
		gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Generate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(space.Templates), "templates")
	b.ReportMetric(float64(space.Space), "space")
}

// --- Figure 2 ------------------------------------------------------------------

// BenchmarkFigure2DominantComponents reproduces the dominant-component
// analysis: Q1 variants are measured on the column engine and the marginal
// cost of every lexical term is computed. The paper's observation is that the
// sum_charge expression (two multiplications with overflow-guarding casts) is
// by far the most expensive component; the benchmark reports its rank and its
// marginal cost relative to the mean term.
func BenchmarkFigure2DominantComponents(b *testing.B) {
	// Build a Q1 pool whose variants differ mostly in projection terms
	// (prune and alter morphs), then measure every variant on the column
	// engine only — the paired-difference attribution needs exactly these
	// one-term-apart variants.
	q1, _ := workload.TPCHQuery("Q1")
	g, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	pl, err := pool.New(g, pool.Options{Seed: 29})
	if err != nil {
		b.Fatal(err)
	}
	pl.SetSteering(pool.Steering{Strategies: []pool.Strategy{pool.StrategyPrune, pool.StrategyAlter}})
	if _, err := pl.SeedRandom(6); err != nil {
		b.Fatal(err)
	}
	pl.Grow(24)
	target := &core.EngineTarget{Engine: engine.NewColEngine(), DB: smallTPCH(), Timeout: time.Minute}
	var runs []analytics.Run
	for _, e := range pl.Entries() {
		m := metrics.Measure(target, e.SQL, metrics.Options{Runs: 2})
		run := analytics.Run{
			QueryID: e.ID, SQL: e.SQL, Strategy: string(e.Strategy), ParentID: e.ParentID,
			Components: e.Components, Terms: e.Terms(), Target: "columba-1.0",
		}
		if m.Failed() {
			run.Error = m.Err
		} else {
			run.Seconds = m.Min().Seconds()
		}
		runs = append(runs, run)
	}
	b.ResetTimer()
	var comps []analytics.Component
	for i := 0; i < b.N; i++ {
		comps = analytics.Components(runs, "columba-1.0")
	}
	b.StopTimer()
	if len(comps) == 0 {
		b.Fatal("no components")
	}
	rank := -1
	for i, c := range comps {
		if strings.Contains(c.Term, "sum_charge") {
			rank = i + 1
			break
		}
	}
	if rank < 0 {
		b.Fatal("sum_charge term not present in the analysis")
	}
	b.ReportMetric(float64(rank), "sum_charge_rank")
	b.ReportMetric(comps[0].Delta*1000, "dominant_delta_ms")
}

// --- Figure 3 ------------------------------------------------------------------

// BenchmarkFigure3Speedup reproduces the relative-speedup figure: the Q1
// variants are measured on the column engine over a small instance and an
// instance ten times larger; the per-variant slowdown factors and their
// spread around the baseline query's factor are reported.
func BenchmarkFigure3Speedup(b *testing.B) {
	q1, _ := workload.TPCHQuery("Q1")
	project, err := core.NewProject("q1-scale", q1.SQL, core.ProjectOptions{Runs: 2, Pool: pool.Options{Seed: 23}})
	if err != nil {
		b.Fatal(err)
	}
	project.AddEngineTarget("sf1", engine.NewColEngine(), smallTPCH())
	project.AddEngineTarget("sf10", engine.NewColEngine(), largeTPCH())
	if err := project.SeedPool(8); err != nil {
		b.Fatal(err)
	}
	project.GrowPool(8)
	if err := project.MeasureAll(); err != nil {
		b.Fatal(err)
	}
	runs := project.Runs()
	b.ResetTimer()
	var sum analytics.SpeedupSummary
	for i := 0; i < b.N; i++ {
		sum = analytics.Speedup(runs, "sf1", "sf10")
	}
	b.StopTimer()
	if len(sum.Points) == 0 {
		b.Fatal("no speedup points")
	}
	b.ReportMetric(sum.BaselineFactor, "baseline_factor")
	b.ReportMetric(sum.Min, "min_factor")
	b.ReportMetric(sum.Median, "median_factor")
	b.ReportMetric(sum.Max, "max_factor")
	b.ReportMetric(float64(len(sum.Points)), "variants")
}

// --- Figure 4 ------------------------------------------------------------------

// BenchmarkFigure4Differentials reproduces the query-differential page: the
// syntactic difference between the baseline Q1 and one of its pruned variants
// plus the per-system timings.
func BenchmarkFigure4Differentials(b *testing.B) {
	project := q1Project(b, smallTPCH(), 2)
	runs := project.Runs()
	// Pick the baseline and the first morphed variant.
	other := 0
	for _, e := range project.Pool().Entries() {
		if e.ID != 1 {
			other = e.ID
			break
		}
	}
	b.ResetTimer()
	var d analytics.Differential
	var err error
	for i := 0; i < b.N; i++ {
		d, err = analytics.Diff(runs, 1, other)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(d.OnlyA)+len(d.OnlyB)), "differing_tokens")
	b.ReportMetric(float64(len(d.Times)), "targets_compared")
}

// --- Figures 5, 6, 7: the platform pages ----------------------------------------

// platformFixture builds a running platform with one measured project and
// returns the base URL plus the project id.
func platformFixture(b *testing.B) (*httptest.Server, int, int) {
	b.Helper()
	srv := httptest.NewServer(server.New(server.Options{}))
	b.Cleanup(srv.Close)

	post := func(path, token string, body map[string]any) map[string]any {
		payload, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", srv.URL+path, bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("X-Sqalpel-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]any{}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode >= 400 {
			b.Fatalf("POST %s: %d %v", path, resp.StatusCode, out)
		}
		return out
	}

	token := post("/api/register", "", map[string]any{"nickname": "bench", "email": "bench@example.org"})["token"].(string)
	created := post("/api/projects", token, map[string]any{"name": "bench-project", "public": true})
	pid := int(created["project"].(map[string]any)["id"].(float64))
	key := created["key"].(string)
	exp := post(fmt.Sprintf("/api/projects/%d/experiments", pid), token, map[string]any{
		"title": "nation", "baseline_sql": workload.NationBaselineQuery, "seed_random": 6,
	})
	eid := int(exp["experiment_id"].(float64))

	// Contribute results through the driver protocol using a real engine.
	db := smallTPCH()
	target := &core.EngineTarget{Engine: engine.NewColEngine(), DB: db, Timeout: 10 * time.Second}
	for {
		resp := post("/api/task/request", "", map[string]any{
			"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop",
		})
		if _, ok := resp["id"]; !ok {
			break
		}
		taskID := int(resp["id"].(float64))
		sql := resp["sql"].(string)
		start := time.Now()
		_, _, err := target.Run(sql)
		secs := time.Since(start).Seconds()
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		post("/api/task/complete", "", map[string]any{
			"key": key, "task_id": taskID, "seconds": []float64{secs}, "error": errMsg,
		})
	}
	return srv, pid, eid
}

func fetch(b *testing.B, url string) string {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(data)
}

// BenchmarkFigure5GrammarPage renders the "query sqalpel" page: the baseline
// query and its derived grammar.
func BenchmarkFigure5GrammarPage(b *testing.B) {
	srv, pid, eid := platformFixture(b)
	url := fmt.Sprintf("%s/projects/%d/experiments/%d/grammar", srv.URL, pid, eid)
	b.ResetTimer()
	var page string
	for i := 0; i < b.N; i++ {
		page = fetch(b, url)
	}
	if !strings.Contains(page, "Derived grammar") {
		b.Fatal("grammar page incomplete")
	}
	b.ReportMetric(float64(len(page)), "page_bytes")
}

// BenchmarkFigure6PoolPage renders the query-pool page with its strategy
// colour coding.
func BenchmarkFigure6PoolPage(b *testing.B) {
	srv, pid, eid := platformFixture(b)
	url := fmt.Sprintf("%s/projects/%d/experiments/%d/pool", srv.URL, pid, eid)
	b.ResetTimer()
	var page string
	for i := 0; i < b.N; i++ {
		page = fetch(b, url)
	}
	if !strings.Contains(page, "Query pool") {
		b.Fatal("pool page incomplete")
	}
	b.ReportMetric(float64(strings.Count(page, "<tr>")), "pool_rows")
}

// BenchmarkFigure7ExperimentHistory reproduces the experiment-history figure:
// per-query execution times annotated with the morph action, the provenance
// edge and the component count, with failed queries flagged as errors.
func BenchmarkFigure7ExperimentHistory(b *testing.B) {
	project := q1Project(b, smallTPCH(), 2)
	runs := project.Runs()
	b.ResetTimer()
	var points []analytics.HistoryPoint
	for i := 0; i < b.N; i++ {
		points = analytics.History(runs, "columba-1.0")
	}
	b.StopTimer()
	if len(points) == 0 {
		b.Fatal("empty history")
	}
	morphs, errors := 0, 0
	for _, p := range points {
		if p.ParentID != 0 {
			morphs++
		}
		if p.IsError {
			errors++
		}
	}
	b.ReportMetric(float64(len(points)), "queries")
	b.ReportMetric(float64(morphs), "morphed_queries")
	b.ReportMetric(float64(errors), "error_queries")
}

// --- substrate: the two engines on the TPC-H power run ---------------------------

// BenchmarkEnginesTPCH runs all 22 TPC-H queries on each engine; the
// per-engine wall-clock comparison is the raw material every discriminative
// experiment builds on. The power run uses a smaller instance than the
// figure benchmarks so the correlated sub-query queries stay affordable.
func BenchmarkEnginesTPCH(b *testing.B) {
	db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.002, Seed: 11})
	for _, eng := range engine.NewRegistry().Engines() {
		eng := eng
		b.Run(engine.EngineKey(eng.Name(), eng.Version()), func(b *testing.B) {
			opts := engine.ExecOptions{}
			for i := 0; i < b.N; i++ {
				for _, q := range workload.TPCH() {
					if _, err := eng.Execute(db, q.SQL, opts); err != nil {
						b.Fatalf("%s: %v", q.ID, err)
					}
				}
			}
		})
	}
}

// BenchmarkInterpreterPass is one hot-plan pass of the 22 TPC-H queries on
// each interpreter paradigm at the instance size tpch_power gives columba:
// what is left of an interpreter's time once column references are read
// through plan-assigned slots, with the allocations of a pass.
func BenchmarkInterpreterPass(b *testing.B) {
	db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.0005, Seed: 11})
	reg := engine.NewRegistry()
	for _, key := range []string{"tuplestore-1.0", "columba-2.0"} {
		eng := reg.Get(key)
		b.Run(key, func(b *testing.B) {
			opts := engine.ExecOptions{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range workload.TPCH() {
					if _, err := eng.Execute(db, q.SQL, opts); err != nil {
						b.Fatalf("%s: %v", q.ID, err)
					}
				}
			}
		})
	}
}

// BenchmarkTraceOverhead quantifies the per-operator tracing seam. The
// "seam-disabled" sub-benchmark drives the exact operations an operator
// performs when no tracer is installed — nil-tracer span lookup, Timer
// start/stop, delta merge — and must report 0 B/op and 0 allocs/op: that is
// the zero-cost contract the engines rely on to leave tracing compiled in.
// The query sub-benchmarks measure a full vektor Q6 with tracing off and on;
// their difference is the price of -trace, recorded in EXPERIMENTS.md.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("seam-disabled", func(b *testing.B) {
		var tr *trace.Tracer
		opID := "scan.0"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := tr.Span(opID, trace.KindScan)
			tm := sp.Start()
			tm.Done(1024)
			sp.Merge(trace.SpanDelta{WallNS: 5, Rows: 1024, Batches: 1})
		}
	})

	db := smallTPCH()
	q6, _ := workload.TPCHQuery("Q6")
	eng := engine.NewVektorEngine()
	b.Run("query-disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(db, q6.SQL, engine.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := trace.NewTracer()
			if _, err := eng.Execute(db, q6.SQL, engine.ExecOptions{Tracer: tr}); err != nil {
				b.Fatal(err)
			}
			if qt := tr.Trace("vektor-1.0"); len(qt.Spans) == 0 {
				b.Fatal("traced execution produced no spans")
			}
		}
	})
}

// BenchmarkEnginesQ1 isolates the paper's flagship query on both engines and
// on the improved column-engine release (the guard-cast ablation at the
// engine level).
func BenchmarkEnginesQ1(b *testing.B) {
	db := smallTPCH()
	q1, _ := workload.TPCHQuery("Q1")
	reg := engine.NewRegistry()
	for _, key := range []string{"tuplestore-1.0", "columba-1.0", "columba-2.0", "vektor-1.0"} {
		eng := reg.Get(key)
		b.Run(key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(db, q1.SQL, engine.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCache quantifies the shared logical-plan layer: the same
// query executed with the plan cache on (front end paid once, repetitions
// reuse the plan) versus re-parsed and re-analyzed on every execution — the
// pre-plan behaviour. The instance is deliberately tiny so the front-end
// share of the measurement is visible; Q19's OR-of-conjuncts predicate makes
// it the analysis-heaviest TPC-H query. A third sub-benchmark isolates the
// pure front-end cost per execution.
func BenchmarkPlanCache(b *testing.B) {
	db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.0002, Seed: 11})
	q19, _ := workload.TPCHQuery("Q19")
	opts := engine.ExecOptions{}

	b.Run("cached", func(b *testing.B) {
		eng := engine.NewColEngine()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(db, q19.SQL, opts); err != nil {
				b.Fatal(err)
			}
		}
		if pc, ok := eng.(engine.PlanCached); ok {
			_, misses := pc.PlanCacheStats()
			b.ReportMetric(float64(misses), "plans_built")
		}
	})
	b.Run("replan-every-run", func(b *testing.B) {
		eng := engine.NewColEngine()
		eng.(engine.PlanCached).SetPlanCache(nil)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(db, q19.SQL, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frontend-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Build(db, q19.SQL); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParadigmsScanAggregation compares the four execution paradigms
// head to head on the scan-heavy aggregation queries the vectorized engine
// is built for (TPC-H Q1 and Q6 plus SSB Q1.1): tuple-at-a-time
// interpretation, column-at-a-time interpretation with materialised boxed
// intermediates, batch-vectorized execution over typed vectors with
// selection vectors, and compiled execution through fused closure
// pipelines. The per-paradigm speedup over columba is the headline number
// of the vektor subsystem.
func BenchmarkParadigmsScanAggregation(b *testing.B) {
	tpch := smallTPCH()
	ssb := datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.002})
	q1, _ := workload.TPCHQuery("Q1")
	q6, _ := workload.TPCHQuery("Q6")
	var ssbQ11 workload.Query
	for _, q := range workload.SSB() {
		if q.ID == "SSB-Q1.1" {
			ssbQ11 = q
		}
	}
	cases := []struct {
		name string
		db   *engine.Database
		sql  string
	}{
		{"TPCH-Q1", tpch, q1.SQL},
		{"TPCH-Q6", tpch, q6.SQL},
		{"SSB-Q1.1", ssb, ssbQ11.SQL},
	}
	paradigms := []struct {
		name string
		eng  engine.Engine
	}{
		{"tuple-at-a-time", engine.NewRowEngine()},
		{"column-at-a-time", engine.NewColEngine()},
		{"batch-vectorized", engine.NewVektorEngine()},
		{"compiled", engine.NewFusilEngine()},
	}
	for _, tc := range cases {
		for _, p := range paradigms {
			tc, p := tc, p
			b.Run(tc.name+"/"+p.name, func(b *testing.B) {
				var rows int
				for i := 0; i < b.N; i++ {
					res, err := p.eng.Execute(tc.db, tc.sql, engine.ExecOptions{})
					if err != nil {
						b.Fatal(err)
					}
					rows = res.NumRows()
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// --- vexec hash paths -------------------------------------------------------------

// vexecBenchCatalog is a typed vexec catalog (also implementing the planner's
// schema view) with a fact table f(ik int, sk string, v float) and a dimension
// table d(ik int, sk string, dv int); ik/sk cycle over `dims` distinct keys.
type vexecBenchCatalog map[string]*vexec.Table

func (c vexecBenchCatalog) VTable(name string) (*vexec.Table, error) {
	if t, ok := c[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

func (c vexecBenchCatalog) TableColumns(name string) ([]string, bool) {
	t, ok := c[name]
	if !ok {
		return nil, false
	}
	out := make([]string, len(t.Cols))
	for i, col := range t.Cols {
		out[i] = col.Name
	}
	return out, true
}

func newVexecBenchCatalog(rows, dims int) vexecBenchCatalog {
	ik := vexec.NewVector(sqlsem.KindInt, rows)
	sk := vexec.NewVector(sqlsem.KindString, rows)
	v := vexec.NewVector(sqlsem.KindFloat, rows)
	for i := 0; i < rows; i++ {
		ik.Ints[i] = int64(i % dims)
		sk.Strs[i] = fmt.Sprintf("key-%d", i%dims)
		v.Floats[i] = float64(i) / 3
	}
	dik := vexec.NewVector(sqlsem.KindInt, dims)
	dsk := vexec.NewVector(sqlsem.KindString, dims)
	dv := vexec.NewVector(sqlsem.KindInt, dims)
	for i := 0; i < dims; i++ {
		dik.Ints[i] = int64(i)
		dsk.Strs[i] = fmt.Sprintf("key-%d", i)
		dv.Ints[i] = int64(i * 7)
	}
	return vexecBenchCatalog{
		"f": vexec.NewTable("f",
			vexec.TableColumn{Name: "ik", Vec: ik},
			vexec.TableColumn{Name: "sk", Vec: sk},
			vexec.TableColumn{Name: "v", Vec: v},
		),
		"d": vexec.NewTable("d",
			vexec.TableColumn{Name: "ik", Vec: dik},
			vexec.TableColumn{Name: "sk", Vec: dsk},
			vexec.TableColumn{Name: "dv", Vec: dv},
		),
	}
}

// BenchmarkVexecHashPaths isolates the hash-heavy vexec operators — hash
// join, hash aggregation and DISTINCT — on single-int, single-string and
// compound keys. The typed single-key paths hash unboxed vector payloads
// directly; the compound path encodes rows into a reusable byte buffer. The
// allocation counts are the headline numbers: none of the paths builds a
// per-row string key. Plans are prebuilt so the loop measures pure execution.
func BenchmarkVexecHashPaths(b *testing.B) {
	cat := newVexecBenchCatalog(20000, 400)
	cases := []struct {
		name string
		sql  string
	}{
		{"join/typed-int", "SELECT count(*) FROM f, d WHERE f.ik = d.ik"},
		{"join/typed-string", "SELECT count(*) FROM f, d WHERE f.sk = d.sk"},
		{"join/compound", "SELECT count(*) FROM f, d WHERE f.ik = d.ik AND f.sk = d.sk"},
		{"agg/typed-int", "SELECT ik, count(*), sum(v) FROM f GROUP BY ik"},
		{"agg/typed-string", "SELECT sk, count(*) FROM f GROUP BY sk"},
		{"agg/compound", "SELECT ik, sk, count(*) FROM f GROUP BY ik, sk"},
		{"distinct/typed-int", "SELECT DISTINCT ik FROM f"},
		{"distinct/compound", "SELECT DISTINCT ik, sk FROM f"},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			stmt, err := sqlparser.Parse(tc.sql)
			if err != nil {
				b.Fatal(err)
			}
			p, err := plan.BuildStmt(cat, stmt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vexec.ExecutePlan(cat, p, vexec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashAggregate isolates the aggregation breaker's per-row and
// per-group costs on the four shapes that stress different parts of the
// typed aggregation table: many aggregates over few groups (the Q1 shape:
// kernel cost per row), one aggregate over many groups (state growth — the
// allocation count must not follow the group count), a DISTINCT aggregate
// (one (group, value) set instead of a table per group) and the global
// group. Plans are prebuilt; allocations are the second headline number.
func BenchmarkHashAggregate(b *testing.B) {
	few, many := newVexecBenchCatalog(200000, 4), newVexecBenchCatalog(200000, 20000)
	for _, tc := range []struct {
		name string
		cat  vexecBenchCatalog
		sql  string
	}{
		{"few_groups_8_aggs", few, "SELECT sk, sum(v), sum(ik), avg(v), avg(ik), min(v), max(v), count(v), count(*) FROM f GROUP BY sk"},
		{"many_groups_1_agg", many, "SELECT ik, sum(v) FROM f GROUP BY ik"},
		{"count_distinct", many, "SELECT ik, count(DISTINCT sk), sum(DISTINCT ik) FROM f GROUP BY ik"},
		{"global_group", few, "SELECT sum(v), avg(v), max(ik), count(*) FROM f"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			stmt, err := sqlparser.Parse(tc.sql)
			if err != nil {
				b.Fatal(err)
			}
			p, err := plan.BuildStmt(tc.cat, stmt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vexec.ExecutePlan(tc.cat, p, vexec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newJoinChainCatalog builds c1..c6 of rows rows each: ci.k joins c(i-1).j
// one to one, f is a filter column, p a payload and w0..w<width-1> columns
// no query below reads — the width late materialization must not pay for.
func newJoinChainCatalog(rows, width int) vexecBenchCatalog {
	cat := vexecBenchCatalog{}
	for ti := 1; ti <= 6; ti++ {
		k := vexec.NewVector(sqlsem.KindInt, rows)
		j := vexec.NewVector(sqlsem.KindInt, rows)
		p := vexec.NewVector(sqlsem.KindFloat, rows)
		for i := 0; i < rows; i++ {
			k.Ints[i] = int64(i)
			j.Ints[i] = int64((i + ti) % rows)
			p.Floats[i] = float64(i%1000) / 8
		}
		cols := []vexec.TableColumn{{Name: "k", Vec: k}, {Name: "j", Vec: j}, {Name: "f", Vec: k}, {Name: "p", Vec: p}}
		for w := 0; w < width; w++ {
			cols = append(cols, vexec.TableColumn{Name: fmt.Sprintf("w%d", w), Vec: p})
		}
		name := fmt.Sprintf("c%d", ti)
		cat[name] = vexec.NewTable(name, cols...)
	}
	return cat
}

// benchVexecPlan runs one prebuilt plan per iteration, reporting allocations.
func benchVexecPlan(b *testing.B, cat vexecBenchCatalog, sql string) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.BuildStmt(cat, stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vexec.ExecutePlan(cat, p, vexec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinChain measures a Q5-shaped chain of filtered inputs joined
// one to one, aggregating the first and last payloads: 2, 4 and 6 tables of
// 12 columns, and 6 tables of 40. Joins compose row ids and a column is
// gathered once, where read, so bytes and allocations follow the number of
// steps and of referenced columns — not the width of the tables (6_tables
// and 6_tables_wide allocate the same) and not the position of a column in
// the chain.
func BenchmarkJoinChain(b *testing.B) {
	chain := func(n int) string {
		from, where := "c1", "c1.f < 40000"
		for i := 2; i <= n; i++ {
			from += fmt.Sprintf(", c%d", i)
			where += fmt.Sprintf(" AND c%d.j = c%d.k AND c%d.f < 45000", i-1, i, i)
		}
		return fmt.Sprintf("SELECT count(*), sum(c1.p), sum(c%d.p) FROM %s WHERE %s", n, from, where)
	}
	narrow, wide := newJoinChainCatalog(50000, 8), newJoinChainCatalog(50000, 36)
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("%d_tables", n), func(b *testing.B) { benchVexecPlan(b, narrow, chain(n)) })
	}
	b.Run("6_tables_wide", func(b *testing.B) { benchVexecPlan(b, wide, chain(6)) })
}

// BenchmarkExistsPairConjunct is the Q21 shape: a correlated EXISTS and NOT
// EXISTS over the same fact table, each with a non-equi pair conjunct next
// to the correlation key. The probe hashes typed keys and evaluates the
// pair conjuncts over a view that gathers the two columns they name, not
// the full width of both sides.
func BenchmarkExistsPairConjunct(b *testing.B) {
	benchVexecPlan(b, newJoinChainCatalog(50000, 8),
		"SELECT count(*) FROM c1 l1, c2 WHERE c2.k = l1.j AND c2.f < 30000 "+
			"AND EXISTS (SELECT * FROM c1 l2 WHERE l2.j = l1.j AND l2.p <> l1.p + 1) "+
			"AND NOT EXISTS (SELECT * FROM c1 l3 WHERE l3.j = l1.j AND l3.k <> l1.k AND l3.p > 100)")
}

// BenchmarkVexecParallelism measures morsel-driven intra-query parallelism
// on a scan-heavy aggregation and a fact-dimension join at 1, 2, 4 and 8
// morsel workers. The results are bit-identical at every worker count (the
// morsel merges replay the serial order), so the sub-benchmark wall-clocks
// divide directly into the scaling column of EXPERIMENTS.md.
func BenchmarkVexecParallelism(b *testing.B) {
	cat := newVexecBenchCatalog(200000, 1000)
	for _, tc := range []struct {
		name string
		sql  string
	}{
		{"agg", "SELECT ik, count(*), sum(v), avg(v) FROM f WHERE v > 100 GROUP BY ik"},
		{"join", "SELECT count(*), sum(f.v) FROM f, d WHERE f.ik = d.ik AND d.dv > 70"},
	} {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			b.Fatal(err)
		}
		p, err := plan.BuildStmt(cat, stmt)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := vexec.ExecutePlan(cat, p, vexec.Options{Parallelism: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStringEncodings isolates the storage-encoding fast paths of the
// typed data layer: string equality, prefix LIKE and IN over a
// low-cardinality dictionary-encoded key (the predicates evaluate on
// integer codes, not strings), a dictionary-keyed group-by, and selective
// range scans over a clustered column where zone maps prove most blocks
// unsatisfiable and the scan never reads them. Plans are prebuilt so the
// loop measures pure execution; allocation counts are reported because the
// scan-frame reuse and code-domain predicates are allocation ablations too.
func BenchmarkStringEncodings(b *testing.B) {
	cat := newVexecBenchCatalog(200000, 64)
	cases := []struct {
		name string
		sql  string
	}{
		{"filter/string-eq", "SELECT count(*) FROM f WHERE sk = 'key-7'"},
		{"filter/like-prefix", "SELECT count(*) FROM f WHERE sk LIKE 'key-1%'"},
		{"filter/in-list", "SELECT count(*) FROM f WHERE sk IN ('key-3', 'key-5', 'key-9')"},
		{"agg/dict-key", "SELECT sk, count(*), sum(v) FROM f GROUP BY sk"},
		{"zonescan/narrow", "SELECT count(*), sum(v) FROM f WHERE v >= 33000 AND v < 33400"},
		{"zonescan/empty", "SELECT count(*) FROM f WHERE v < -1"},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			stmt, err := sqlparser.Parse(tc.sql)
			if err != nil {
				b.Fatal(err)
			}
			p, err := plan.BuildStmt(cat, stmt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vexec.ExecutePlan(cat, p, vexec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- pool growth -----------------------------------------------------------------

// BenchmarkPoolGrow times the search front end of one search_variants round
// on the four baselines the benchmark of record morphs: core.NewProject
// (derive the grammar, enumerate its templates, seed the baseline) and
// Project.GrowPool(60), reported apart. ns/op is the sum; Grow(1500) — more
// than Q12's whole space holds — is its own sub-benchmark.
func BenchmarkPoolGrow(b *testing.B) {
	for _, id := range []string{"Q1", "Q2", "Q12", "Q18"} {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id+"/GrowPool60", func(b *testing.B) {
			b.ReportAllocs()
			var create, grow time.Duration
			templates := 0
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				project, err := core.NewProject(id, q.SQL, core.ProjectOptions{Pool: pool.Options{Seed: int64(i) + 1}})
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if grown := project.GrowPool(60); grown != 60 {
					b.Fatalf("GrowPool(60) added %d variants", grown)
				}
				create += t1.Sub(t0)
				grow += time.Since(t1)
				templates = len(project.Pool().Generator().Enumeration().Templates)
			}
			b.ReportMetric(float64(create.Microseconds())/float64(b.N)/1000, "newproject_ms")
			b.ReportMetric(float64(grow.Microseconds())/float64(b.N)/1000, "growpool60_ms")
			b.ReportMetric(float64(templates), "templates")
		})
		b.Run(id+"/Grow1500", func(b *testing.B) {
			b.ReportAllocs()
			g, err := derive.FromSQL(q.SQL, derive.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			added := 0
			for i := 0; i < b.N; i++ {
				pl, err := pool.New(g, pool.Options{Seed: int64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				added = len(pl.Grow(1500))
			}
			b.ReportMetric(float64(added), "variants")
		})
	}
}

// --- ablations --------------------------------------------------------------------

// BenchmarkAblationLiteralOnce quantifies how much the paper's literal-once
// rule shrinks the query space compared to allowing literal repetition.
func BenchmarkAblationLiteralOnce(b *testing.B) {
	q3, _ := workload.TPCHQuery("Q3")
	g, err := derive.FromSQL(q3.SQL, derive.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var withRule, withoutRule grammar.SpaceSummary
	for i := 0; i < b.N; i++ {
		withRule, err = g.Space(grammar.EnumerateOptions{TemplateCap: 20000, LiteralOnce: true})
		if err != nil {
			b.Fatal(err)
		}
		withoutRule, err = g.Space(grammar.EnumerateOptions{TemplateCap: 20000, LiteralOnce: false})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(withRule.Templates), "templates_literal_once")
	b.ReportMetric(float64(withoutRule.Templates), "templates_repetition")
}

// BenchmarkAblationOrdered quantifies the effect of the order-insensitive
// counting the paper adopts (optimizers normalise expression lists) versus
// counting ordered variants.
func BenchmarkAblationOrdered(b *testing.B) {
	q1, _ := workload.TPCHQuery("Q1")
	g, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var unordered, ordered grammar.SpaceSummary
	for i := 0; i < b.N; i++ {
		unordered, err = g.Space(grammar.EnumerateOptions{TemplateCap: 20000, LiteralOnce: true})
		if err != nil {
			b.Fatal(err)
		}
		ordered, err = g.Space(grammar.EnumerateOptions{TemplateCap: 20000, LiteralOnce: true, OrderSensitive: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(unordered.Space), "space_unordered")
	b.ReportMetric(float64(ordered.Space), "space_ordered")
}

// BenchmarkAblationGuidedVsRandom compares the paper's guided morphing walk
// against blind random sampling of the space: after the same number of
// measurements, how extreme is the best discriminative ratio each approach
// found between the two engines?
func BenchmarkAblationGuidedVsRandom(b *testing.B) {
	q1, _ := workload.TPCHQuery("Q1")
	db := smallTPCH()
	targets := func() map[string]*core.EngineTarget {
		return map[string]*core.EngineTarget{
			"columba-1.0":    {Engine: engine.NewColEngine(), DB: db, Timeout: 30 * time.Second},
			"tuplestore-1.0": {Engine: engine.NewRowEngine(), DB: db, Timeout: 30 * time.Second},
		}
	}

	bestRatio := func(s *discriminative.Search) float64 {
		best := 1.0
		for _, dir := range [][2]string{{"columba-1.0", "tuplestore-1.0"}, {"tuplestore-1.0", "columba-1.0"}} {
			if f := s.Better(dir[0], dir[1], 1); len(f) > 0 && f[0].Ratio > best {
				best = f[0].Ratio
			}
		}
		return best
	}

	var guidedBest, randomBest float64
	for i := 0; i < b.N; i++ {
		// Guided: seed a small pool, then let the search morph the extremes.
		guidedGrammar, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		guidedPool, err := pool.New(guidedGrammar, pool.Options{Seed: 41})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := guidedPool.SeedRandom(5); err != nil {
			b.Fatal(err)
		}
		tg := targets()
		guidedSearch, err := discriminative.New(guidedPool, map[string]metrics.Target{
			"columba-1.0": tg["columba-1.0"], "tuplestore-1.0": tg["tuplestore-1.0"],
		}, discriminative.Options{Runs: 1, GrowPerRound: 5, TopK: 2})
		if err != nil {
			b.Fatal(err)
		}
		guidedSearch.Run("columba-1.0", "tuplestore-1.0", 3)
		guidedBest = bestRatio(guidedSearch)

		// Random: the same total number of queries, all sampled blindly.
		randomGrammar, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		randomPool, err := pool.New(randomGrammar, pool.Options{Seed: 41})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := randomPool.SeedRandom(guidedPool.Size() - 1); err != nil {
			b.Fatal(err)
		}
		tg2 := targets()
		randomSearch, err := discriminative.New(randomPool, map[string]metrics.Target{
			"columba-1.0": tg2["columba-1.0"], "tuplestore-1.0": tg2["tuplestore-1.0"],
		}, discriminative.Options{Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		randomSearch.MeasurePending()
		randomBest = bestRatio(randomSearch)
	}
	b.ReportMetric(guidedBest, "guided_best_ratio")
	b.ReportMetric(randomBest, "random_best_ratio")
}

// BenchmarkSchedulerWorkers regenerates the serial-vs-parallel wall-clock
// table of EXPERIMENTS.md: the same TPC-H Q1 demo pool is measured on the
// three engine paradigms with 1, 2, 4 and 8 measurement workers. The pool
// and therefore the work are identical in every variant — the pool seed
// drives the walk and the scheduler only changes the fan-out — so the
// sub-benchmark wall-clocks divide directly into the speedup column.
func BenchmarkSchedulerWorkers(b *testing.B) {
	q1, _ := workload.TPCHQuery("Q1")
	db := smallTPCH()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				project, err := core.NewProject("sched-q1", q1.SQL, core.ProjectOptions{
					Runs:        1,
					Parallelism: workers,
					Timeout:     30 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				project.AddEngineTarget("columba-1.0", engine.NewColEngine(), db)
				project.AddEngineTarget("tuplestore-1.0", engine.NewRowEngine(), db)
				project.AddEngineTarget("vektor-1.0", engine.NewVektorEngine(), db)
				if err := project.SeedPool(8); err != nil {
					b.Fatal(err)
				}
				project.GrowPool(8)
				b.StartTimer()
				if err := project.MeasureAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
