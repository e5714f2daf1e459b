package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
)

// Result is the outcome of executing a query.
type Result struct {
	// Columns are the output column names in order.
	Columns []string
	// Rows are the output rows.
	Rows [][]Value
	// Stats are the execution counters of the run.
	Stats Stats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// String renders a compact tabular form, used by examples and debugging.
func (r *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, " | "))
	sb.WriteString("\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sb.WriteString(strings.Join(parts, " | "))
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
	lines := r.fingerprintRows()
	sort.Strings(lines)
	return strings.Join(r.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

// OrderedFingerprint is Fingerprint without the row sort: engines must
// agree on row order too. For queries whose ORDER BY is total.
func (r *Result) OrderedFingerprint() string {
	return strings.Join(r.Columns, ",") + "\n" + strings.Join(r.fingerprintRows(), "\n")
}

func (r *Result) fingerprintRows() []string {
	lines := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			switch v.Kind {
			case sqlsem.KindNull:
				parts[i] = "null"
			case sqlsem.KindFloat:
				parts[i] = "float:" + strconv.FormatUint(math.Float64bits(v.F), 16)
			default:
				parts[i] = v.Kind.String() + ":" + v.String()
			}
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	return lines
}

// ExecOptions control one execution.
type ExecOptions struct {
	// Timeout aborts the query after the given duration; zero means no
	// timeout.
	Timeout time.Duration
	// MaxJoinRows overrides the guard on intermediate join sizes; zero keeps
	// the default.
	MaxJoinRows int
	// Parallelism caps the intra-query morsel workers of engines that
	// support them (the vektor family); 0 falls back to the engine's
	// configured default, 1 forces serial execution. Results are identical
	// at every setting — only wall-clock changes.
	Parallelism int
	// Tracer collects per-operator spans keyed by the plan's operator ids
	// (internal/trace); nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Engine is a database system under test: it accepts SQL text and executes
// it against a Database. The registry holds six engines in four paradigms —
// the row and column interpreters (baseEngine) and the vectorized and
// compiled engines on typed vectors (typedEngine) — standing in for the
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
// the normalized SQL, so repetitions pay zero parse/analysis work — or by
// building fresh.
func planFor(cache *plan.Cache, db *Database, sql string) (*plan.Plan, error) {
	if cache == nil {
		return plan.Build(db, sql)
	}
	return cache.GetOrBuild(plan.Key(db, db.Version(), sql), func() (*plan.Plan, error) {
		return plan.Build(db, sql)
	})
}

// baseEngine carries the shared execution logic of both interpreters.
type baseEngine struct {
	name       string
	version    string
	dialect    string
	mode       Mode
	guardCasts bool
	plans      *plan.Cache
}

func (e *baseEngine) Name() string    { return e.name }
func (e *baseEngine) Version() string { return e.version }
func (e *baseEngine) Dialect() string { return e.dialect }

// SetPlanCache implements PlanCached.
func (e *baseEngine) SetPlanCache(c *plan.Cache) { e.plans = c }

// PlanCacheStats implements PlanCached.
func (e *baseEngine) PlanCacheStats() (hits, misses uint64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.Stats()
}

// Execute plans (or fetches the cached plan of) the query and runs it.
func (e *baseEngine) Execute(db *Database, sql string, opts ExecOptions) (*Result, error) {
	p, err := planFor(e.plans, db, sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	return e.ExecutePlan(db, p, opts)
}

// ExecutePlan runs an already planned query; the typed adapter uses it to
// fall back to the interpreter without re-planning.
func (e *baseEngine) ExecutePlan(db *Database, p *plan.Plan, opts ExecOptions) (*Result, error) {
	limits := executionLimits{maxJoinRows: opts.MaxJoinRows}
	if opts.Timeout > 0 {
		limits.deadline = time.Now().Add(opts.Timeout)
	}
	ex := newExecutor(db, e.mode, limits, e.guardCasts, p)
	if opts.Tracer != nil {
		ex.tracer = opts.Tracer
		ex.subPrefix = trace.SubqueryPrefixes(p.Root.Stmt, "")
	}
	rel, err := ex.executeSelect(p.Root, nil, "")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	res := &Result{Columns: rel.columnNames(), Stats: *ex.stats}
	res.Rows = make([][]Value, rel.numRows())
	for i := 0; i < rel.numRows(); i++ {
		row := make([]Value, len(rel.cols))
		for c := range rel.cols {
			row[c] = rel.cols[c].vals[i]
		}
		res.Rows[i] = row
	}
	return res, nil
}

// RowEngine options and constructor.

// NewRowEngine returns the tuple-at-a-time engine ("tuplestore 1.0"): full
// width scans, short-circuit filters, no intermediate materialisation, early
// LIMIT exit.
func NewRowEngine() Engine {
	return &baseEngine{name: "tuplestore", version: "1.0", dialect: "tuplestore", mode: ModeRow, plans: plan.NewCache(0)}
}

// ColEngineOptions tune the column engine variant.
type ColEngineOptions struct {
	// Version overrides the reported version string.
	Version string
	// DisableGuardCasts models the newer engine release that no longer pays
	// the overflow-guarding widening pass on multiplications.
	DisableGuardCasts bool
}

// NewColEngine returns the column-at-a-time engine ("columba 1.0") with the
// overflow-guard materialisation behaviour the paper describes for MonetDB.
func NewColEngine() Engine {
	return &baseEngine{name: "columba", version: "1.0", dialect: "columba", mode: ModeColumn, guardCasts: true, plans: plan.NewCache(0)}
}

// NewColEngineWithOptions returns a tuned column engine variant, used to
// compare two versions of the same system.
func NewColEngineWithOptions(opts ColEngineOptions) Engine {
	version := opts.Version
	if version == "" {
		version = "2.0"
	}
	return &baseEngine{
		name:       "columba",
		version:    version,
		dialect:    "columba",
		mode:       ModeColumn,
		guardCasts: !opts.DisableGuardCasts,
		plans:      plan.NewCache(0),
	}
}

// Registry maps engine keys ("name-version") to constructed engines, the way
// the platform's DBMS catalog refers to them. All engines registered in one
// registry share one plan cache — a measurement cell that runs the same query
// on six engines pays the front-end analysis once — and the typed engines
// share one typed-table cache, so each table version is decoded once.
type Registry struct {
	engines map[string]Engine
	order   []string
	plans   *plan.Cache
	typed   *typedCache
}

// NewRegistry returns a registry pre-populated with the built-in engines:
// the four execution paradigms (tuple-at-a-time, column-at-a-time,
// batch-vectorized, data-centric compiled), the middle two in two releases
// each, all sharing one plan cache.
func NewRegistry() *Registry {
	r := &Registry{engines: map[string]Engine{}, plans: plan.NewCache(0), typed: newTypedCache()}
	r.Register(NewRowEngine())
	r.Register(NewColEngine())
	r.Register(NewColEngineWithOptions(ColEngineOptions{Version: "2.0", DisableGuardCasts: true}))
	r.Register(NewVektorEngine())
	r.Register(NewVektorEngineWithOptions(VektorOptions{Version: "2.0", BatchSize: 4096}))
	r.Register(NewFusilEngine())
	return r
}

// Register adds an engine under its canonical key, attaching the registry's
// shared plan cache when the engine supports one and its shared typed-table
// cache when the engine is a typed one.
func (r *Registry) Register(e Engine) {
	key := EngineKey(e.Name(), e.Version())
	if _, exists := r.engines[key]; !exists {
		r.order = append(r.order, key)
	}
	r.engines[key] = e
	if pc, ok := e.(PlanCached); ok && r.plans != nil {
		pc.SetPlanCache(r.plans)
	}
	if te, ok := e.(*typedEngine); ok {
		te.typed = r.typed
	}
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
// paradigm that will actually run it and, for the verdict-routed engines
// (vectorized, compiled) that fall back, the plan's reason.
type EngineRoute struct {
	Engine   string // registry key
	Paradigm string // the paradigm that will execute the statement
	Fallback bool   // a verdict-routed engine routes to its interpreter
	Reason   string // the plan's NotVectorizableReason when Fallback
}

// Routes reports, without executing, how each registered engine would run
// the statement — from the shared plan's precomputed verdict, the same
// bit Execute routes on. The interpreters always run natively; the
// vectorized and compiled engines support exactly the vectorizable subset
// and fall back to the column interpreter outside it.
func (r *Registry) Routes(db *Database, sql string) ([]EngineRoute, error) {
	p, err := planFor(r.plans, db, sql)
	if err != nil {
		return nil, err
	}
	routes := make([]EngineRoute, 0, len(r.order))
	for _, key := range r.order {
		rt := EngineRoute{Engine: key}
		switch e := r.engines[key].(type) {
		case *typedEngine:
			switch {
			case !p.Vectorizable:
				rt.Paradigm = "column-at-a-time interpreter (fallback)"
				rt.Fallback = true
				rt.Reason = p.NotVectorizableReason
			case e.fused:
				rt.Paradigm = "data-centric compiled"
			default:
				rt.Paradigm = "batch-vectorized"
			}
		case *baseEngine:
			if e.mode == ModeRow {
				rt.Paradigm = "tuple-at-a-time interpreter"
			} else {
				rt.Paradigm = "column-at-a-time interpreter"
			}
		default:
			rt.Paradigm = "unknown"
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
	return r.engines[strings.ToLower(key)]
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
