// Package core is the public façade of the sqalpel library: it ties the
// query-space grammar, the SQL-to-grammar deriver, the query pool with its
// morphing strategies, the execution engines, the measurement harness, the
// discriminative search and the analytics into one convenient API.
//
// A typical local session looks like:
//
//	db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.01})
//	project, _ := core.NewProject("q1", baselineSQL, core.ProjectOptions{})
//	project.AddEngineTarget("columba-1.0", engine.NewColEngine(), db)
//	project.AddEngineTarget("tuplestore-1.0", engine.NewRowEngine(), db)
//	project.GrowPool(20)
//	project.Run(3)
//	findings := project.Discriminative("columba-1.0", "tuplestore-1.0", 5)
//
// The same types also feed the platform (internal/server) and the benchmark
// harness that regenerates the paper's tables and figures.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"sqalpel/internal/analytics"
	"sqalpel/internal/derive"
	"sqalpel/internal/discriminative"
	"sqalpel/internal/engine"
	"sqalpel/internal/grammar"
	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
	"sqalpel/internal/pool"
	"sqalpel/internal/trace"
)

// EngineTarget adapts an Engine plus a Database to the metrics.Target
// interface used by the measurement harness. It stands in for the JDBC
// connections of the paper's experiment driver. The built-in engines only
// read the database during execution and their plan cache is
// concurrency-safe, so an EngineTarget is safe for concurrent use by the
// scheduler's worker pool; repeated repetitions of one query share a single
// cached logical plan, keeping the measured timings free of front-end work.
// An execution runs on the caller's goroutine and stops mid-query when its
// context is cancelled or its time budget runs out.
type EngineTarget struct {
	Engine engine.Engine
	DB     *engine.Database
	// Timeout bounds every execution (context.WithTimeout on the caller's
	// context): an execution past it fails with plan.ErrTimeBudget. Zero
	// leaves the caller's context alone.
	Timeout time.Duration
	// Parallelism is the intra-query morsel worker cap forwarded to every
	// execution (engines without morsel support ignore it); 0 or 1 runs
	// serially.
	Parallelism int
	// Trace enables per-operator span collection (internal/trace): every
	// execution carries its serialized QueryTrace back through the reserved
	// measurement extra, whose bytes Measurement.Trace keeps as they are.
	Trace bool
}

// SetTrace toggles per-operator tracing; the experiment driver uses it when
// its configuration asks for traces.
func (t *EngineTarget) SetTrace(on bool) { t.Trace = on }

// Run executes the query once.
func (t *EngineTarget) Run(query string) (int, map[string]string, error) {
	return t.RunContext(context.Background(), query)
}

// RunContext executes the query once on the caller's goroutine, under the
// context tightened by the target's Timeout; it implements
// metrics.ContextTarget. The engine polls that context mid-query, so a
// cancellation or an expired deadline stops the execution, and RunContext
// returns only once it has stopped.
func (t *EngineTarget) RunContext(ctx context.Context, query string) (int, map[string]string, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if t.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.Timeout)
		defer cancel()
	}
	opts := engine.ExecOptions{Context: ctx, Parallelism: t.Parallelism}
	var tr *trace.Tracer
	if t.Trace {
		tr = trace.NewTracer()
		opts.Tracer = tr
	}
	res, err := t.Engine.Execute(t.DB, query, opts)
	if err != nil {
		return 0, nil, err
	}
	stats := res.Stats.Map()
	extra := make(map[string]string, len(stats)+1)
	for k, v := range stats {
		extra[k] = strconv.FormatInt(v, 10)
	}
	if tr != nil {
		key := engine.EngineKey(t.Engine.Name(), t.Engine.Version())
		if data, jerr := tr.Trace(key).JSON(); jerr == nil {
			extra[trace.MeasurementExtraKey] = string(data)
		}
	}
	return res.NumRows(), extra, nil
}

// ProjectOptions configure a local project.
type ProjectOptions struct {
	// Pool configures the query pool (seed, cap, enumeration).
	Pool pool.Options
	// Runs is the number of repetitions per measurement (default 5).
	Runs int
	// Parallelism is how many measurement cells the scheduler runs at
	// once. 0 or 1 measures serially. The findings are identical at any
	// worker count — only wall-clock changes.
	Parallelism int
	// Timeout bounds a single query repetition: every execution of the
	// project's engine targets and every repetition the search measures.
	// Zero bounds the engine targets by defaultEngineTimeout (30 s) and
	// leaves other targets unbounded.
	Timeout time.Duration
}

// defaultEngineTimeout bounds an engine target's executions when the
// project sets no Timeout.
const defaultEngineTimeout = 30 * time.Second

// Project is a local, in-process performance project: a grammar, its query
// pool and a set of target systems.
type Project struct {
	Name     string
	Baseline string
	Grammar  *grammar.Grammar

	opts    ProjectOptions
	pool    *pool.Pool
	targets map[string]metrics.Target
	search  *discriminative.Search
	// plans is shared by every engine target of the project, so the
	// repetition discipline (5 runs × every engine) pays the SQL
	// front end once per distinct variant.
	plans *plan.Cache
}

// NewProject derives the grammar from the baseline query and seeds the pool.
func NewProject(name, baselineSQL string, opts ProjectOptions) (*Project, error) {
	g, err := derive.FromSQL(baselineSQL, derive.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return newProject(name, baselineSQL, g, opts)
}

func newProject(name, baseline string, g *grammar.Grammar, opts ProjectOptions) (*Project, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p, err := pool.New(g, opts.Pool)
	if err != nil {
		return nil, err
	}
	proj := &Project{
		Name:     name,
		Baseline: baseline,
		Grammar:  g,
		opts:     opts,
		pool:     p,
		targets:  map[string]metrics.Target{},
		plans:    plan.NewCache(0),
	}
	if baseline == "" {
		proj.Baseline = p.Baseline().SQL
	}
	return proj, nil
}

// Pool exposes the query pool.
func (p *Project) Pool() *pool.Pool { return p.pool }

// Space returns the query-space summary of the project's grammar (the
// paper's Table 2 row for this baseline query).
func (p *Project) Space() (grammar.SpaceSummary, error) {
	return p.Grammar.Space(grammar.DefaultEnumerateOptions())
}

// AddTarget registers an arbitrary measurement target under a name.
func (p *Project) AddTarget(name string, t metrics.Target) {
	p.targets[name] = t
	p.search = nil
}

// AddEngineTarget registers an in-process engine plus database as a target,
// named after the engine unless a name is given. The engine joins the
// project's shared plan cache, so every target of the project (and every
// repetition of the measurement discipline) reuses one logical plan per
// distinct query variant. The target's Timeout is the project's.
func (p *Project) AddEngineTarget(name string, eng engine.Engine, db *engine.Database) {
	if name == "" {
		name = engine.EngineKey(eng.Name(), eng.Version())
	}
	if pc, ok := eng.(engine.PlanCached); ok {
		pc.SetPlanCache(p.plans)
	}
	timeout := p.opts.Timeout
	if timeout <= 0 {
		timeout = defaultEngineTimeout
	}
	p.AddTarget(name, &EngineTarget{Engine: eng, DB: db, Timeout: timeout})
}

// Matrix computes the pairwise discrimination matrix over every registered
// target from the outcomes measured so far.
func (p *Project) Matrix() ([]discriminative.MatrixCell, error) {
	s, err := p.ensureSearch()
	if err != nil {
		return nil, err
	}
	return s.Matrix(), nil
}

// Targets returns the registered target names, sorted.
func (p *Project) Targets() []string {
	names := make([]string, 0, len(p.targets))
	for n := range p.targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SeedPool adds n random query variants to the pool.
func (p *Project) SeedPool(n int) error {
	_, err := p.pool.SeedRandom(n)
	return err
}

// GrowPool applies the morphing strategies until n new variants were added.
func (p *Project) GrowPool(n int) int {
	return len(p.pool.Grow(n))
}

// ensureSearch lazily constructs the discriminative search.
func (p *Project) ensureSearch() (*discriminative.Search, error) {
	if p.search != nil {
		return p.search, nil
	}
	s, err := discriminative.New(p.pool, p.targets, discriminative.Options{
		Runs:        p.opts.Runs,
		Parallelism: p.opts.Parallelism,
		Timeout:     p.opts.Timeout,
	})
	if err != nil {
		return nil, err
	}
	p.search = s
	return s, nil
}

// MeasureAll measures every pool entry on every registered target.
func (p *Project) MeasureAll() error {
	s, err := p.ensureSearch()
	if err != nil {
		return err
	}
	s.MeasurePending()
	return nil
}

// Run performs the guided discriminative search for the given number of
// rounds between the first two registered targets (alphabetically) or the
// explicitly named pair.
func (p *Project) Run(rounds int, pair ...string) error {
	s, err := p.ensureSearch()
	if err != nil {
		return err
	}
	a, b, err := p.pairOrDefault(pair)
	if err != nil {
		return err
	}
	s.Run(a, b, rounds)
	return nil
}

func (p *Project) pairOrDefault(pair []string) (string, string, error) {
	if len(pair) == 2 {
		return pair[0], pair[1], nil
	}
	names := p.Targets()
	if len(names) < 2 {
		return "", "", fmt.Errorf("project needs at least two targets, has %d", len(names))
	}
	return names[0], names[1], nil
}

// Discriminative returns the topN queries that run relatively better on
// target `fast` than on target `slow`.
func (p *Project) Discriminative(fast, slow string, topN int) ([]discriminative.Finding, error) {
	s, err := p.ensureSearch()
	if err != nil {
		return nil, err
	}
	return s.Better(fast, slow, topN), nil
}

// Summary returns a one-line report of the search state.
func (p *Project) Summary() string {
	if p.search == nil {
		return fmt.Sprintf("project %q: pool %d queries, nothing measured yet", p.Name, p.pool.Size())
	}
	a, b, err := p.pairOrDefault(nil)
	if err != nil {
		return fmt.Sprintf("project %q: pool %d queries", p.Name, p.pool.Size())
	}
	return fmt.Sprintf("project %q: %s", p.Name, p.search.Summary(a, b))
}

// Runs converts all measured outcomes into analytics records, one per
// (query, target) pair.
func (p *Project) Runs() []analytics.Run {
	if p.search == nil {
		return nil
	}
	return p.search.Runs()
}

// Components returns the dominant-component attribution for one target
// (Figure 2).
func (p *Project) Components(target string) []analytics.Component {
	return analytics.Components(p.Runs(), target)
}

// ExportCSV writes all runs in the platform's CSV format.
func (p *Project) ExportCSV(w io.Writer) error {
	return analytics.WriteCSV(w, p.Runs())
}

// GrammarText renders the project's grammar in its source syntax, the form
// stored and edited on the platform.
func (p *Project) GrammarText() string { return p.Grammar.String() }
