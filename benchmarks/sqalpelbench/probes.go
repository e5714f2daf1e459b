package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"sqalpel/internal/core"
	"sqalpel/internal/derive"
	"sqalpel/internal/discriminative"
	"sqalpel/internal/driver"
	"sqalpel/internal/engine"
	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
	"sqalpel/internal/pool"
	"sqalpel/internal/repository"
	"sqalpel/internal/sched"
	"sqalpel/internal/server"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/trace"
	"sqalpel/internal/workload"
)

// The probes time single layers through their public functions. They do
// not depend on the workload: the traced run of every workload reports all
// of them, next to the shares its own traced window gives, so that a move in
// an end-to-end metric can be laid beside the layer that should explain it.

type probeSizes struct {
	tpch        tpchSizes
	variants    int // pool variants for the front-end and ranking probes
	exhaustSeed int // SeedRandom(n) on Q6's 15-variant space
	passes      map[string]int
	tracedPass  map[string]int
	cells       int // scheduler cells
	measures    int // metrics.Measure calls
	tasks       int // tasks of each peeled platform pass
	pageReps    int
}

var (
	probeNormal = probeSizes{tpch: tpchNormal, variants: 200, exhaustSeed: 200,
		passes: map[string]int{vektor: 5, fusil: 3, columba: 2}, tracedPass: map[string]int{vektor: 3, fusil: 2},
		cells: 1000, measures: 300, tasks: 240, pageReps: 15}
	probeSmoke = probeSizes{tpch: tpchSmoke, variants: 30, exhaustSeed: 10,
		passes: map[string]int{vektor: 2, fusil: 2, columba: 1}, tracedPass: map[string]int{vektor: 1, fusil: 1},
		cells: 80, measures: 20, tasks: 24, pageReps: 3}
)

func runProbes(cfg config, rep *report) error {
	sizes := probeNormal
	if cfg.smoke {
		sizes = probeSmoke
	}
	t0 := time.Now()
	if err := probeFrontEnd(rep, sizes); err != nil {
		return fmt.Errorf("front-end probes: %w", err)
	}
	if err := probeMeasurement(rep, sizes); err != nil {
		return fmt.Errorf("measurement probes: %w", err)
	}
	if err := probeEngines(rep, sizes); err != nil {
		return fmt.Errorf("engine probes: %w", err)
	}
	if err := probePlatform(cfg, rep, sizes); err != nil {
		return fmt.Errorf("platform probes: %w", err)
	}
	rep.note("probes took %.2f s", time.Since(t0).Seconds())
	return nil
}

// timeIt returns the median wall time of reps calls of f.
func timeIt(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// seededPool derives the grammar of a TPC-H baseline and fills a pool.
func seededPool(baseline string, seed int64, n int) (*pool.Pool, error) {
	q, err := workload.TPCHQuery(baseline)
	if err != nil {
		return nil, err
	}
	g, err := derive.FromSQL(q.SQL, derive.DefaultOptions())
	if err != nil {
		return nil, err
	}
	p, err := pool.New(g, pool.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	if _, err := p.SeedRandom(n); err != nil {
		return nil, err
	}
	return p, nil
}

// probeFrontEnd times parsing, plan building, grammar derivation, pool
// seeding and growth, pool exhaustion and discriminative ranking.
func probeFrontEnd(rep *report, sizes probeSizes) error {
	db := tpchDB(tpchSmoke.sfColumba) // plan building needs the schema only
	var texts []string
	for _, q := range workload.TPCH() {
		texts = append(texts, q.SQL)
	}
	variants, err := seededPool("Q1", 7, sizes.variants)
	if err != nil {
		return err
	}
	for _, e := range variants.Entries() {
		texts = append(texts, e.SQL)
	}
	var parse, build []float64
	for _, sql := range texts {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return err
		}
		if _, err := plan.BuildStmt(db, stmt); err != nil {
			return err
		}
		parse = append(parse, us(timeIt(5, func() { _, _ = sqlparser.Parse(sql) })))
		build = append(build, us(timeIt(5, func() { _, _ = plan.BuildStmt(db, stmt) })))
	}
	rep.set("sqlparser.parse_us", median(parse))
	rep.set("plan.build_us", median(build))
	rep.note("front end: %d statements (22 TPC-H + %d Q1 variants)", len(texts), len(texts)-22)

	var grammar []float64
	for _, id := range searchNormal.baselines {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			return err
		}
		grammar = append(grammar, ms(timeIt(5, func() { _, _ = derive.FromSQL(q.SQL, derive.DefaultOptions()) })))
	}
	rep.set("derive.grammar_ms", median(grammar))

	var seedUS, growUS []float64
	for s := int64(1); s <= 5; s++ {
		t0 := time.Now()
		p, err := seededPool("Q1", s, sizes.variants)
		if err != nil {
			return err
		}
		seedUS = append(seedUS, us(time.Since(t0))/float64(p.Size()))
		t0 = time.Now()
		added := len(p.Grow(sizes.variants))
		if added == 0 {
			return fmt.Errorf("pool growth added nothing")
		}
		growUS = append(growUS, us(time.Since(t0))/float64(added))
	}
	rep.set("pool.seed_us_per_variant", median(seedUS))
	rep.set("pool.grow_us_per_variant", median(growUS))

	// Asking a 15-variant space for more variants than it holds: the time
	// goes to retries that cannot succeed.
	t0 := time.Now()
	exhausted, err := seededPool("Q6", 7, sizes.exhaustSeed)
	if err != nil {
		return err
	}
	rep.set("pool.exhaust_ms", ms(time.Since(t0)))
	rep.note("pool exhaustion: SeedRandom(%d) on Q6 ended with %d variants", sizes.exhaustSeed, exhausted.Size())

	// Ranking over simulated outcomes, so that only the ranking is timed.
	simulated := func(scale uint64) metrics.Target {
		return metrics.TargetFunc(func(q string) (int, map[string]string, error) {
			ns := 1000 + hashOf(q)%scale
			return 1, map[string]string{metrics.SimulatedDurationKey: fmt.Sprint(ns)}, nil
		})
	}
	search, err := discriminative.New(variants, map[string]metrics.Target{"a": simulated(100000), "b": simulated(70000)}, discriminative.Options{Runs: 1})
	if err != nil {
		return err
	}
	search.MeasurePending()
	rep.set("discriminative.rank_ms", ms(timeIt(21, func() {
		search.Better("a", "b", 10)
		search.Better("b", "a", 10)
	})))
	return nil
}

// probeMeasurement times the measurement discipline and the scheduler on
// targets that do nothing, so that only their own overhead is left.
func probeMeasurement(rep *report, sizes probeSizes) error {
	noop := metrics.TargetFunc(func(string) (int, map[string]string, error) { return 0, nil, nil })
	per := make([]float64, sizes.measures)
	for i := range per {
		t0 := time.Now()
		m := metrics.Measure(noop, "SELECT 1", metrics.Options{Runs: metrics.DefaultRuns})
		per[i] = us(time.Since(t0)) / float64(len(m.Runs))
	}
	rep.set("metrics.overhead_us_per_run", median(per))

	var dispatch, waits []float64
	for round := 0; round < 3; round++ {
		var mu sync.Mutex
		var submitted time.Time
		entered := metrics.TargetFunc(func(string) (int, map[string]string, error) {
			w := ms(time.Since(submitted))
			mu.Lock()
			waits = append(waits, w)
			mu.Unlock()
			return 0, nil, nil
		})
		cells := make([]sched.Cell, sizes.cells)
		for i := range cells {
			cells[i] = sched.Cell{Target: "noop", Runner: entered, SQL: fmt.Sprintf("SELECT %d", i), Runs: 1}
		}
		s := sched.New(sched.Options{Workers: 2})
		submitted = time.Now()
		s.Measure(context.Background(), cells)
		dispatch = append(dispatch, us(time.Since(submitted))/float64(len(cells)))
	}
	rep.set("sched.dispatch_us_per_cell", median(dispatch))
	rep.set("sched.queue_wait_ms_p50", median(waits))

	// One cell in four repeats an earlier SQL text, so a quarter must come
	// from the scheduler's result cache.
	cells := make([]sched.Cell, sizes.cells)
	for i := range cells {
		cells[i] = sched.Cell{Target: "noop", Runner: noop, SQL: fmt.Sprintf("SELECT %d", i%(len(cells)*3/4)), Runs: 1}
	}
	s := sched.New(sched.Options{Workers: 2})
	s.Measure(context.Background(), cells)
	measured, cached := s.Stats()
	rep.set("sched.cache_hit_ratio", float64(cached)/float64(measured+cached))
	return nil
}

// opKindOf maps a span kind of the engines' trace plane to its bucket.
func opKindOf(kind string) string {
	switch kind {
	case trace.KindScan:
		return "scan"
	case trace.KindFilter:
		return "filter"
	case trace.KindHashJoin, trace.KindCross, trace.KindJoinTree:
		return "join"
	case trace.KindAgg:
		return "aggregate"
	case trace.KindSort:
		return "sort"
	case trace.KindSubquery:
		return "subquery"
	}
	return "other"
}

// probeEngines runs TPC-H passes on the three engines: untraced for the
// per-query times, the pass times and the allocation counts, traced for
// the operator times and the tracing overhead.
func probeEngines(rep *report, sizes probeSizes) error {
	queries := workload.TPCH()
	reg := engine.NewRegistry()
	dbs := map[string]*engine.Database{vektor: tpchDB(sizes.tpch.sfMain), columba: tpchDB(sizes.tpch.sfColumba)}
	dbs[fusil] = dbs[vektor]
	opts := engine.ExecOptions{Parallelism: 1}

	// pass executes the 22 queries once and returns the per-query times.
	pass := func(key string, tracer func() *trace.Tracer, each func(i int, res *engine.Result, tr *trace.Tracer)) ([]time.Duration, error) {
		out := make([]time.Duration, len(queries))
		for i, q := range queries {
			o := opts
			if tracer != nil {
				o.Tracer = tracer()
			}
			t0 := time.Now()
			res, err := reg.Get(key).Execute(dbs[key], q.SQL, o)
			out[i] = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", q.ID, key, err)
			}
			if each != nil {
				each(i, res, o.Tracer)
			}
		}
		return out, nil
	}
	sum := func(ds []time.Duration) time.Duration {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return t
	}

	// Typed import: the plans are built first, so what the first pass takes
	// longer than a warm one is the import of the boxed tables into typed
	// vectors (and whatever else the engine sets up lazily).
	for _, q := range queries {
		if _, err := reg.Explain(dbs[vektor], q.SQL); err != nil {
			return err
		}
	}
	first, err := pass(vektor, nil, nil)
	if err != nil {
		return err
	}

	fallbacks, err := countFallbacks(reg, dbs[vektor], queries)
	if err != nil {
		return err
	}
	rep.set("engine.fallback_queries", float64(fallbacks))

	power := map[string]float64{}
	for _, key := range benchEngines {
		if _, err := pass(key, nil, nil); err != nil { // warm-up
			return err
		}
		perQuery := make([][]float64, len(queries))
		var powers, allocMB, allocs []float64
		var rows, skipped int64
		for p := 0; p < sizes.passes[key]; p++ {
			rows, skipped = 0, 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ds, err := pass(key, nil, func(_ int, res *engine.Result, _ *trace.Tracer) {
				rows += res.Stats.RowsScanned
				skipped += res.Stats.BlocksSkipped
			})
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			for i, d := range ds {
				perQuery[i] = append(perQuery[i], ms(d))
			}
			powers = append(powers, sum(ds).Seconds())
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		}
		power[key] = median(powers)
		rep.set("engine.power_s."+key, power[key])
		rep.set("engine.alloc_mb_per_pass."+key, median(allocMB))
		rep.set("engine.allocs_per_pass."+key, median(allocs))
		if key != columba {
			for i, q := range queries {
				rep.set("engine.query_ms."+key+"."+q.ID, median(perQuery[i]))
			}
		}
		if key == vektor {
			rep.set("engine.rows_scanned_per_pass", float64(rows))
			rep.set("engine.blocks_skipped_per_pass", float64(skipped))
			rep.set("engine.typed_import_ms", ms(sum(first))-power[key]*1e3)
		}
		// The fixed cost of an execution: a five-row count has next to no
		// operator work, so what is left is plan-cache and typed-cache
		// lookups, dispatch and result boxing.
		fixed := timeIt(200, func() { _, _ = reg.Get(key).Execute(dbs[key], "SELECT count(*) FROM region", opts) })
		rep.set("engine.fixed_cost_us."+key, us(fixed))
	}
	rep.note("engine probes: vektor-2.0 and fusil-1.0 at SF %s, columba-2.0 at SF %s", sfKey(sizes.tpch.sfMain), sfKey(sizes.tpch.sfColumba))

	// Traced passes. Operator times are summed as the engines' trace plane
	// reports them: streaming operators (scan, filter) count their own time,
	// one-shot operators (join, aggregate, sort) include the pipeline they
	// drain, and a nested sub-query counts under its own span and its host's.
	for _, key := range []string{vektor, fusil} {
		prefix := "vexec.op_ms."
		if key == fusil {
			prefix = "cexec.op_ms."
		}
		byKind := map[string][]float64{}
		var powers []float64
		for p := 0; p < sizes.tracedPass[key]; p++ {
			kinds := map[string]int64{}
			ds, err := pass(key, trace.NewTracer, func(_ int, _ *engine.Result, tr *trace.Tracer) {
				for _, sp := range tr.Trace(key).Spans {
					kinds[opKindOf(sp.Kind)] += sp.WallNS
				}
			})
			if err != nil {
				return err
			}
			powers = append(powers, sum(ds).Seconds())
			for _, k := range opKinds {
				byKind[k] = append(byKind[k], float64(kinds[k])/1e6)
			}
		}
		for _, k := range opKinds {
			rep.set(prefix+k, median(byKind[k]))
		}
		if key == vektor {
			rep.set("trace.overhead_ratio", median(powers)/power[key])
		}
	}
	return nil
}

// walBytes sums the sizes of the write-ahead logs of a store directory.
func walBytes(dir string) (int64, error) {
	return sumFiles(dir, func(name string) bool { return strings.HasSuffix(name, ".wal") })
}

// sumFiles sums the sizes of the files of the store's current generation
// that match.
func sumFiles(dir string, match func(name string) bool) (int64, error) {
	current, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		return 0, err
	}
	gen := filepath.Join(dir, strings.TrimSpace(string(current)))
	entries, err := os.ReadDir(gen)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !match(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

const probePlatformKey = "bench"

// platformFixture is a fresh platform for one peeled pass: one project, one
// experiment of sizes.tasks queries. The server grows the pool from a seed
// it derives from the project id, so every fixture holds the identical task
// sequence.
type platformFixture struct {
	dir     string
	store   *repository.Store
	handler http.Handler
	project drainProject
}

func newPlatformFixture(cfg config, name string, tasks int, durable bool) (*platformFixture, error) {
	f := &platformFixture{}
	if durable {
		f.dir = filepath.Join(cfg.outDir, "tmp", fmt.Sprintf("probe-%s-%d", name, os.Getpid()))
		os.RemoveAll(f.dir)
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, err
		}
		store, err := repository.Open(f.dir, drainNormal.shards)
		if err != nil {
			return nil, err
		}
		f.store = store
	} else {
		f.store = repository.NewStoreShards(drainNormal.shards)
	}
	f.handler = server.New(server.Options{Store: f.store})
	projects, err := createProjects(handlerPoster(f.handler), []string{"Q1"}, tasks-1)
	if err != nil {
		f.close()
		return nil, err
	}
	f.project = projects[0]
	return f, nil
}

func (f *platformFixture) close() {
	if f.store != nil && f.dir != "" {
		_ = f.store.Close() // the directory is removed next
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// peel leases and completes every task of a fixture through one layer's
// entry points and returns how long each lease and each completion took. All
// passes share this loop, so they differ only in the layer they enter at.
func peel(want, batch int, lease func(max int) ([]*repository.Task, error), complete func(*repository.Task) error) (leases, completions []time.Duration, tasks []*repository.Task, err error) {
	for {
		t0 := time.Now()
		leased, err := lease(batch)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(leased) == 0 {
			break
		}
		leases = append(leases, time.Since(t0))
		for _, task := range leased {
			t0 = time.Now()
			if err := complete(task); err != nil {
				return nil, nil, nil, err
			}
			completions = append(completions, time.Since(t0))
		}
		tasks = append(tasks, leased...)
	}
	if len(tasks) != want {
		return nil, nil, nil, fmt.Errorf("completed %d tasks, want %d", len(tasks), want)
	}
	return leases, completions, tasks, nil
}

// medianOf converts durations with unit (ms or us) and returns their median.
func medianOf(ds []time.Duration, unit func(time.Duration) float64) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = unit(d)
	}
	return median(vals)
}

// probePlatform runs the peeled passes: the same task sequence is leased and
// completed through the driver over loopback HTTP, through Server.ServeHTTP
// without a socket, through the durable Store directly and through an
// in-memory Store. Each difference is one layer's own time: HTTP transport,
// handler and JSON, write-ahead log and fsync.
func probePlatform(cfg config, rep *report, sizes probeSizes) error {
	// The completion every pass reports: five repetitions and the extras an
	// engine target attaches, fixed so that the bytes logged repeat.
	const batch, runs = 4, metrics.DefaultRuns
	measurement := &metrics.Measurement{Extra: map[string]string{}}
	for i := 0; i < runs; i++ {
		measurement.Runs = append(measurement.Runs, time.Duration(1000+i)*time.Microsecond)
	}
	for k, v := range (engine.Stats{RowsScanned: 600, RowsReturned: 4, Groups: 4, AggRows: 590}).Map() {
		measurement.Extra[k] = fmt.Sprint(v)
	}

	// Pass 1: driver over loopback HTTP.
	fx, err := newPlatformFixture(cfg, "http", sizes.tasks, true)
	if err != nil {
		return err
	}
	defer fx.close()
	srv := httptest.NewServer(fx.handler)
	defer srv.Close()
	client, err := driver.NewClient(driver.Config{Server: srv.URL, Key: fx.project.key, DBMS: vektor, Platform: probePlatformKey,
		Experiment: fx.project.experiment, Runs: runs, Timeout: time.Minute, Workers: 1, Batch: batch})
	if err != nil {
		return err
	}
	leases, completions, tasks, err := peel(sizes.tasks, batch, client.RequestTasks,
		func(task *repository.Task) error { return client.Report(task.ID, measurement) })
	if err != nil {
		return fmt.Errorf("driver pass: %w", err)
	}
	rep.set("driver.request_ms_p50", medianOf(leases, ms))
	rep.set("driver.report_ms_p50", medianOf(completions, ms))

	// What the driver spends measuring one of these tasks for real.
	target := &core.EngineTarget{Engine: engine.NewRegistry().Get(vektor), DB: tpchDB(drainNormal.sf), Parallelism: 1}
	var measure []float64
	for _, task := range tasks {
		t0 := time.Now()
		if m := metrics.Measure(target, task.SQL, metrics.Options{Runs: runs}); m.Failed() {
			return fmt.Errorf("measuring a task: %s", m.Err)
		}
		measure = append(measure, ms(time.Since(t0)))
	}
	rep.set("driver.measure_ms_p50", median(measure))

	// The store now holds sizes.tasks results: read them, render the pages,
	// checkpoint, and recover.
	rep.set("repository.results_read_us_p50", us(timeIt(50, func() { fx.store.Results("", fx.project.id) })))
	pages := map[string]string{
		"pool":    fmt.Sprintf("/projects/%d/experiments/%d/pool", fx.project.id, fx.project.experiment),
		"history": fmt.Sprintf("/projects/%d/history", fx.project.id),
		"results": fmt.Sprintf("/api/projects/%d/results", fx.project.id),
		"trace":   fmt.Sprintf("/projects/%d/trace?query=1", fx.project.id),
	}
	for _, route := range pageRoutes {
		var pageErr error
		d := timeIt(sizes.pageReps, func() {
			w := httptest.NewRecorder()
			fx.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, pages[route], nil))
			if w.Code != http.StatusOK {
				pageErr = fmt.Errorf("GET %s: status %d", pages[route], w.Code)
			}
		})
		if pageErr != nil {
			return pageErr
		}
		rep.set("server.page_ms_p50."+route, ms(d))
	}
	isSnapshot := func(name string) bool { return strings.Contains(name, ".snap.") }
	snapBefore, err := sumFiles(fx.dir, isSnapshot)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := fx.store.Checkpoint(); err != nil {
		return err
	}
	rep.set("repository.checkpoint_ms", ms(time.Since(t0)))
	snapAfter, err := sumFiles(fx.dir, isSnapshot)
	if err != nil {
		return err
	}
	rep.set("repository.checkpoint_bytes", float64(snapAfter-snapBefore))
	srv.Close()
	if err := fx.store.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	recovered, err := repository.Open(fx.dir, drainNormal.shards)
	if err != nil {
		return err
	}
	rep.set("repository.recover_ms", ms(time.Since(t0)))
	fx.store = recovered
	if n := len(recovered.Results("", fx.project.id)); n != sizes.tasks {
		return fmt.Errorf("recovered %d results, want %d", n, sizes.tasks)
	}

	// Pass 2: Server.ServeHTTP with a recorder, no socket.
	fx2, err := newPlatformFixture(cfg, "handler", sizes.tasks, true)
	if err != nil {
		return err
	}
	defer fx2.close()
	post := handlerPoster(fx2.handler)
	leases, completions, _, err = peel(sizes.tasks, batch,
		func(max int) ([]*repository.Task, error) {
			status, body, _ := post("/api/task/request", "", map[string]any{"key": fx2.project.key,
				"experiment_id": fx2.project.experiment, "dbms": vektor, "platform": probePlatformKey, "max": max})
			if status == http.StatusNoContent {
				return nil, nil
			}
			var lease struct {
				Tasks []*repository.Task `json:"tasks"`
			}
			if err := json.Unmarshal(body, &lease); err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("lease status %d: %s", status, bytes.TrimSpace(body))
			}
			return lease.Tasks, nil
		},
		func(task *repository.Task) error {
			status, body, _ := post("/api/task/complete", "", map[string]any{"key": fx2.project.key, "task_id": task.ID,
				"seconds": measurement.Seconds(), "error": "", "extra": measurement.Extra})
			if status != http.StatusCreated {
				return fmt.Errorf("completion status %d: %s", status, bytes.TrimSpace(body))
			}
			return nil
		})
	if err != nil {
		return fmt.Errorf("handler pass: %w", err)
	}
	rep.set("server.request_us_p50", medianOf(leases, us))
	rep.set("server.complete_us_p50", medianOf(completions, us))

	// Passes 3 and 4: the Store directly, durable and in memory.
	direct := func(name string, durable bool) (leases, completions []time.Duration, logged int64, err error) {
		f, err := newPlatformFixture(cfg, name, sizes.tasks, durable)
		if err != nil {
			return nil, nil, 0, err
		}
		defer f.close()
		var before, after int64
		if durable {
			if before, err = walBytes(f.dir); err != nil {
				return nil, nil, 0, err
			}
		}
		leases, completions, _, err = peel(sizes.tasks, batch,
			func(max int) ([]*repository.Task, error) {
				return f.store.RequestTasks(f.project.key, f.project.experiment, vektor, probePlatformKey, max)
			},
			func(task *repository.Task) error {
				_, err := f.store.CompleteTaskTraced(task.ID, f.project.key, measurement.Seconds(), "", measurement.Extra, nil)
				return err
			})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s pass: %w", name, err)
		}
		if durable {
			if after, err = walBytes(f.dir); err != nil {
				return nil, nil, 0, err
			}
		}
		return leases, completions, after - before, nil
	}
	leases, completions, logged, err := direct("store", true)
	if err != nil {
		return err
	}
	rep.set("repository.lease_us_p50", medianOf(leases, us))
	rep.set("repository.complete_us_p50", medianOf(completions, us))
	rep.set("repository.wal_bytes_per_task", float64(logged)/float64(sizes.tasks))
	_, completions, _, err = direct("memory", false)
	if err != nil {
		return err
	}
	rep.set("repository.mem_complete_us_p50", medianOf(completions, us))
	rep.note("platform probes: %d tasks a pass, leases of %d, %d repetitions a completion", sizes.tasks, batch, runs)
	return nil
}
