package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
	"sqalpel/internal/vexec"
)

// Stats is the one counter set (internal/plan) both executors fill; the
// alias is the name the driver and the benchmark spell.
type Stats = plan.Stats

// ResultColumn is the read-only view of one output column. It hides the
// executor's format: the interpreters hand over boxed values (Values), the
// typed executor its *vexec.Vector, unconverted.
type ResultColumn interface {
	// Len returns the number of rows.
	Len() int
	// At returns row i as the one SQL scalar.
	At(i int) Value
}

// Values is a ResultColumn over boxed values.
type Values []Value

// Len implements ResultColumn.
func (c Values) Len() int { return len(c) }

// At implements ResultColumn.
func (c Values) At(i int) Value { return c[i] }

// Result is the outcome of executing a query: named output columns as the
// executor produced them. Whoever wants rows calls Rows.
type Result struct {
	// Columns are the output column names in order.
	Columns []string
	// Cols are the output columns, one per name.
	Cols []ResultColumn
	// Stats are the execution counters of the run.
	Stats Stats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// Rows boxes the result into rows of values — the one place columns become
// [][]Value.
//
//lint:api library API that README shows
func (r *Result) Rows() [][]Value {
	rows := make([][]Value, r.NumRows())
	for i := range rows {
		row := make([]Value, len(r.Cols))
		for c, col := range r.Cols {
			row[c] = col.At(i)
		}
		rows[i] = row
	}
	return rows
}

// String renders a compact tabular form, used by examples and debugging.
func (r *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, " | "))
	sb.WriteString("\n")
	for _, line := range r.lines(" | ", Value.String) {
		sb.WriteString(line)
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fingerprint encodes the result exactly: every value keeps its kind and,
// for floats, its full bit pattern, so two engines only share a fingerprint
// when their answers are bit-identical — the six-engine contract. Rows are
// sorted (the fingerprint is a multiset identity) because not every query
// carries a total ORDER BY; column names stay positional.
func (r *Result) Fingerprint() string {
	lines := r.lines("|", exactCell)
	sort.Strings(lines)
	return strings.Join(r.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

// OrderedFingerprint is Fingerprint without the row sort: engines must
// agree on row order too. For queries whose ORDER BY is total.
func (r *Result) OrderedFingerprint() string {
	return strings.Join(r.Columns, ",") + "\n" + strings.Join(r.lines("|", exactCell), "\n")
}

// lines renders every row as its cells joined by sep.
func (r *Result) lines(sep string, cell func(Value) string) []string {
	lines := make([]string, r.NumRows())
	parts := make([]string, len(r.Cols))
	for i := range lines {
		for c, col := range r.Cols {
			parts[c] = cell(col.At(i))
		}
		lines[i] = strings.Join(parts, sep)
	}
	return lines
}

// exactCell is the fingerprint form of one value.
func exactCell(v Value) string {
	switch v.Kind {
	case sqlsem.KindNull:
		return "null"
	case sqlsem.KindFloat:
		return "float:" + strconv.FormatUint(math.Float64bits(v.F), 16)
	default:
		return v.Kind.String() + ":" + v.String()
	}
}

// ExecOptions control one execution.
type ExecOptions struct {
	// Context is the one carrier of the execution's time budget and
	// cancellation: both executors poll it at their budget checks, so a
	// deadline fails the query with plan.ErrTimeBudget and a cancellation
	// with plan.ErrCancelled, mid-query. nil imposes no budget.
	Context context.Context
	// Parallelism caps the intra-query morsel workers of the engines that
	// have them (the typed ones); 0 or 1 executes serially. Results are
	// identical at every setting — only wall-clock changes.
	Parallelism int
	// Tracer collects per-operator spans keyed by the plan's operator ids
	// (internal/trace); nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Engine is a database system under test: it accepts SQL text and executes
// it against a Database. The registry holds six engines in four paradigms —
// the row and column interpreters and the vectorized and compiled engines on
// typed vectors, all rows of one spec table (specs) — standing in for the
// systems the paper compares.
type Engine interface {
	// Name returns the engine's product name.
	Name() string
	// Version returns the engine version string.
	Version() string
	// Dialect returns the SQL dialect tag used to select dialect-specific
	// grammar literals.
	Dialect() string
	// Execute runs the query against the database.
	Execute(db *Database, sql string, opts ExecOptions) (*Result, error)
}

// PlanCached is implemented by engines that execute through the shared
// logical-plan layer. Setting a cache shares plans across repetitions (and,
// when the same cache is handed to several engines, across engines); setting
// nil disables caching so every execution re-plans.
type PlanCached interface {
	// SetPlanCache installs the plan cache (nil disables caching).
	SetPlanCache(c *plan.Cache)
	// PlanCacheStats returns the cache's hit/miss counters; zeros when
	// caching is disabled.
	PlanCacheStats() (hits, misses uint64)
}

// planFor resolves the logical plan of the query: from the cache when one is
// installed — keyed by the database identity, its schema/data version and
// the SQL text, so repetitions pay zero parse/analysis work — or by
// building fresh.
func planFor(cache *plan.Cache, db *Database, sql string) (*plan.Plan, error) {
	if cache == nil {
		return plan.Build(db, sql)
	}
	return cache.GetOrBuild(plan.Key(db, db.Version(), sql), func() (*plan.Plan, error) {
		return plan.Build(db, sql)
	})
}

// spec is one row of the engine table: everything that tells one built-in
// engine from another.
type spec struct {
	name, version string
	// paradigm is the label Routes reports for native execution.
	paradigm string
	// mode and guardCasts drive the interpreter: an interpreter engine's
	// only executor, a typed engine's fallback (the column interpreter of
	// the release that dropped the overflow-guard widening pass).
	mode       Mode
	guardCasts bool
	// typed engines run the vectorizable subset on internal/vexec: fused
	// selects the compiled scan→filter loop (vexec.Options.Fused), batchSize
	// the pipeline batch (0 takes vexec's default of 1024 rows).
	typed     bool
	fused     bool
	batchSize int
}

// Paradigm labels, as Routes reports them.
const (
	paradigmRow      = "tuple-at-a-time interpreter"
	paradigmColumn   = "column-at-a-time interpreter"
	paradigmVector   = "batch-vectorized"
	paradigmCompiled = "data-centric compiled"
)

// specs is the engine table, in registry order: the four execution
// paradigms, the middle two in two releases each. columba 2.0 drops the
// guard casts the paper describes for MonetDB; vektor 2.0 quadruples the
// batch, trading per-batch overhead against cache residency.
var specs = []spec{
	{name: "tuplestore", version: "1.0", paradigm: paradigmRow, mode: ModeRow},
	{name: "columba", version: "1.0", paradigm: paradigmColumn, mode: ModeColumn, guardCasts: true},
	{name: "columba", version: "2.0", paradigm: paradigmColumn, mode: ModeColumn},
	{name: "vektor", version: "1.0", paradigm: paradigmVector, mode: ModeColumn, typed: true},
	{name: "vektor", version: "2.0", paradigm: paradigmVector, mode: ModeColumn, typed: true, batchSize: 4096},
	{name: "fusil", version: "1.0", paradigm: paradigmCompiled, mode: ModeColumn, typed: true, fused: true},
}

// specEngine is the one Engine implementation: a spec plus the two caches
// it executes through. Plan routing, limit resolution, fallback, counters
// and the result hand-over exist once, here.
type specEngine struct {
	spec
	plans *plan.Cache
	// typedTables holds the typed decodings of the boxed tables; only the
	// typed engines read it.
	typedTables *typedCache
}

func (e *specEngine) Name() string    { return e.name }
func (e *specEngine) Version() string { return e.version }
func (e *specEngine) Dialect() string { return e.name }

// SetPlanCache implements PlanCached.
func (e *specEngine) SetPlanCache(c *plan.Cache) { e.plans = c }

// PlanCacheStats implements PlanCached.
func (e *specEngine) PlanCacheStats() (hits, misses uint64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.Stats()
}

// joinGuard is the join-size guard of every execution, plan.JoinGuard; only
// tests lower it (export_test.go).
var joinGuard = plan.JoinGuard

// Execute resolves the shared logical plan and the execution budget once,
// then routes on the plan's Vectorizable verdict: a typed engine runs the
// supported statements on the typed executor; everything else — and every
// statement of an interpreter engine — runs on the interpreter, consuming
// the same plan and the same budget.
func (e *specEngine) Execute(db *Database, sql string, opts ExecOptions) (*Result, error) {
	p, err := planFor(e.plans, db, sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	limits := plan.ResolveLimits(opts.Context)
	limits.MaxJoinRows = joinGuard
	if e.typed && p.Vectorizable {
		res, err := vexec.ExecutePlan(&typedCatalog{cache: e.typedTables, db: db}, p, vexec.Options{
			BatchSize: e.batchSize, Limits: limits, Parallelism: opts.Parallelism, Tracer: opts.Tracer, Fused: e.fused})
		if err == nil {
			out := &Result{Columns: res.Columns, Cols: make([]ResultColumn, len(res.Cols)), Stats: res.Stats}
			for i, vec := range res.Cols {
				out.Cols[i] = vec
			}
			return out, nil
		}
		if !errors.Is(err, vexec.ErrUnsupported) {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		// Runtime value shapes outside the typed subset (mixed-kind columns,
		// eager-evaluation type errors) defer to the interpreter. The aborted
		// attempt may have recorded partial spans; drop them so the trace
		// reflects the run that produces the result.
		opts.Tracer.Reset()
	}
	ex := newExecutor(db, e.mode, limits, e.guardCasts, p)
	if opts.Tracer != nil {
		ex.tracer = opts.Tracer
		ex.ids = trace.NewIDs(p)
	}
	rel, err := ex.executeSelect(p.Root, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	out := &Result{Columns: rel.columnNames(), Cols: make([]ResultColumn, len(rel.cols)), Stats: *ex.stats}
	for i, c := range rel.cols {
		out.Cols[i] = Values(c)
	}
	return out, nil
}

// The constructors below return one built-in engine on its own — a fresh
// registry's, so with a plan cache and a typed-table cache nobody shares.

// NewRowEngine returns the tuple-at-a-time engine ("tuplestore 1.0"): full
// width scans, short-circuit filters, no intermediate materialisation, early
// LIMIT exit.
func NewRowEngine() Engine { return NewRegistry().Get("tuplestore-1.0") }

// NewColEngine returns the column-at-a-time engine ("columba 1.0") with the
// overflow-guard materialisation behaviour the paper describes for MonetDB.
func NewColEngine() Engine { return NewRegistry().Get("columba-1.0") }

// NewVektorEngine returns the batch-vectorized engine ("vektor 1.0"):
// typed columnar vectors, selection-vector filters, batch-at-a-time
// pull-based pipelines of 1024 rows.
func NewVektorEngine() Engine { return NewRegistry().Get("vektor-1.0") }

// NewFusilEngine returns the compiled engine ("fusil 1.0"): per-query
// closure compilation of the scan→filter segment into one fused loop, on
// the vectorized engine's pipeline breakers.
//
//lint:api fusil's constructor; it goes when fusil itself is deleted
func NewFusilEngine() Engine { return NewRegistry().Get("fusil-1.0") }

// Registry maps engine keys ("name-version") to constructed engines, the way
// the platform's DBMS catalog refers to them. All engines of one registry
// share one plan cache — a measurement cell that runs the same query on six
// engines pays the front-end analysis once — and the typed engines share
// one typed-table cache, so each table version is decoded once.
type Registry struct {
	engines map[string]*specEngine
	order   []string
	plans   *plan.Cache
}

// NewRegistry returns a registry of the built-in engines: every row of the
// engine table, around one plan cache and one typed-table cache.
func NewRegistry() *Registry {
	r := &Registry{engines: map[string]*specEngine{}, plans: plan.NewCache(0)}
	typedTables := newTypedCache()
	for _, s := range specs {
		key := EngineKey(s.name, s.version)
		r.order = append(r.order, key)
		r.engines[key] = &specEngine{spec: s, plans: r.plans, typedTables: typedTables}
	}
	return r
}

// PlanCache returns the registry's shared plan cache.
func (r *Registry) PlanCache() *plan.Cache { return r.plans }

// Explain resolves the query's logical plan through the registry's shared
// plan cache and renders the EXPLAIN plan-JSON document. The document is a
// pure function of the plan, so it holds for every registered engine; its
// operator ids are the ones execution traces key their spans by.
func (r *Registry) Explain(db *Database, sql string) (*trace.PlanDoc, error) {
	p, err := planFor(r.plans, db, sql)
	if err != nil {
		return nil, err
	}
	return trace.Explain(p, sql), nil
}

// ExplainJSON renders the EXPLAIN plan-JSON document as indented JSON, the
// form the explain subcommand prints and the golden files pin.
func (r *Registry) ExplainJSON(db *Database, sql string) ([]byte, error) {
	doc, err := r.Explain(db, sql)
	if err != nil {
		return nil, err
	}
	return doc.JSON()
}

// EngineRoute is one engine's execution route for a statement: the
// paradigm that will actually run it and, for the typed engines that fall
// back, the plan's reason.
type EngineRoute struct {
	Engine   string // registry key
	Paradigm string // the paradigm that will execute the statement
	Fallback bool   // a typed engine routes to its interpreter
	Reason   string // the plan's NotVectorizableReason when Fallback
}

// Routes reports, without executing, how each registered engine would run
// the statement — from the shared plan's precomputed verdict, the same
// bit Execute routes on. The interpreters always run natively; the typed
// engines support exactly the vectorizable subset and fall back to the
// column interpreter outside it.
func (r *Registry) Routes(db *Database, sql string) ([]EngineRoute, error) {
	p, err := planFor(r.plans, db, sql)
	if err != nil {
		return nil, err
	}
	routes := make([]EngineRoute, 0, len(r.order))
	for _, key := range r.order {
		e := r.engines[key]
		rt := EngineRoute{Engine: key, Paradigm: e.paradigm}
		if e.typed && !p.Vectorizable {
			rt.Paradigm = paradigmColumn + " (fallback)"
			rt.Fallback = true
			rt.Reason = p.NotVectorizableReason
		}
		routes = append(routes, rt)
	}
	return routes, nil
}

// EngineKey builds the canonical registry key of an engine.
func EngineKey(name, version string) string {
	return strings.ToLower(name) + "-" + version
}

// Get returns the engine registered under the key, or nil.
func (r *Registry) Get(key string) Engine {
	if e, ok := r.engines[strings.ToLower(key)]; ok {
		return e
	}
	return nil
}

// Keys lists the registered engine keys in registration order.
func (r *Registry) Keys() []string {
	return append([]string(nil), r.order...)
}

// Engines lists the registered engines in registration order.
func (r *Registry) Engines() []Engine {
	out := make([]Engine, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.engines[k])
	}
	return out
}
