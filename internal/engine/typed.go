package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/vexec"
)

// typedEngine is the one adapter of the engines that execute on typed
// unboxed vectors through internal/vexec: the batch-vectorized paradigm
// ("vektor": pull-based batch pipelines, one vector pass per filter
// conjunct) and the data-centric compiled paradigm ("fusil": scan and
// filters fused into one loop of compiled per-row closures). The two differ
// in one executor option, vexec.Options.Fused; plan routing, fallback,
// counters and result boxing exist once. The adapter owns the column-import
// shim — engine.Database stores boxed []Value columns, which are decoded
// into typed vectors once per table data version and cached — and routes to
// the interpreter from the plan's precomputed Vectorizable verdict; only
// data-dependent value shapes (mixed-kind columns, eager-evaluation type
// errors) still fall back at runtime.
type typedEngine struct {
	name        string
	version     string
	batchSize   int // 0 takes vexec's default
	parallelism int
	fused       bool
	fallback    *baseEngine
	plans       *plan.Cache
	typed       *typedCache
}

// typedTableEntry pins the typed decoding of one table to the data version
// it was built from; any mutation (append or in-place update) bumps the
// version and invalidates the entry. The owning database is recorded so a
// reloaded table (Database.AddTable with a fresh *Table under the same
// name) evicts only its own predecessors, never a same-named table of
// another database served by the same engine. Entries are installed as
// placeholders before the decode runs: ready closes once vt/err are set,
// so concurrent importers of one version wait for the single build instead
// of decoding (and dictionary-encoding) the columns again.
type typedTableEntry struct {
	version uint64
	vt      *vexec.Table
	db      *Database
	ready   chan struct{}
	err     error
}

// VektorOptions tune the vectorized engine variant.
type VektorOptions struct {
	// Version overrides the reported version string.
	Version string
	// BatchSize overrides the pipeline batch size (default 1024); the 2.0
	// release quadruples it, trading per-batch overhead against cache
	// residency the way columba 2.0 drops its guard casts.
	BatchSize int
	// Parallelism is the default intra-query morsel worker cap applied
	// when ExecOptions does not set one; 0 or 1 executes serially. Results
	// are bit-identical at every worker count.
	Parallelism int
}

// NewVektorEngine returns the batch-vectorized engine ("vektor 1.0"):
// typed columnar vectors, selection-vector filters, batch-at-a-time
// pull-based pipelines of 1024 rows.
func NewVektorEngine() Engine {
	return NewVektorEngineWithOptions(VektorOptions{})
}

// NewVektorEngineWithOptions returns a tuned vectorized engine variant,
// used to compare two releases of the same system.
func NewVektorEngineWithOptions(opts VektorOptions) Engine {
	version := opts.Version
	if version == "" {
		version = "1.0"
	}
	e := newTypedEngine("vektor", version)
	e.batchSize = opts.BatchSize
	e.parallelism = opts.Parallelism
	return e
}

// NewFusilEngine returns the compiled engine ("fusil 1.0"): per-query
// closure compilation of the scan→filter segment into one fused loop, on
// the vectorized engine's pipeline breakers.
func NewFusilEngine() Engine {
	e := newTypedEngine("fusil", "1.0")
	e.fused = true
	return e
}

func newTypedEngine(name, version string) *typedEngine {
	return &typedEngine{
		name:     name,
		version:  version,
		fallback: &baseEngine{name: name, version: version, dialect: name, mode: ModeColumn},
		plans:    plan.NewCache(0),
		typed:    newTypedCache(),
	}
}

func (e *typedEngine) Name() string    { return e.name }
func (e *typedEngine) Version() string { return e.version }
func (e *typedEngine) Dialect() string { return e.name }

// SetPlanCache implements PlanCached.
func (e *typedEngine) SetPlanCache(c *plan.Cache) { e.plans = c }

// PlanCacheStats implements PlanCached.
func (e *typedEngine) PlanCacheStats() (hits, misses uint64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.Stats()
}

// Execute resolves the shared logical plan and routes on its Vectorizable
// verdict: supported statements run on the typed executor, everything else
// goes straight to the column interpreter — consuming the same plan, so
// neither path re-parses or re-analyzes.
func (e *typedEngine) Execute(db *Database, sql string, opts ExecOptions) (*Result, error) {
	p, err := planFor(e.plans, db, sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}
	if !p.Vectorizable {
		return e.fallback.ExecutePlan(db, p, opts)
	}
	vopts := vexec.Options{BatchSize: e.batchSize, MaxJoinRows: opts.MaxJoinRows, Parallelism: e.parallelism, Tracer: opts.Tracer, Fused: e.fused}
	if opts.Parallelism > 0 {
		vopts.Parallelism = opts.Parallelism
	}
	if opts.Timeout > 0 {
		vopts.Deadline = time.Now().Add(opts.Timeout)
	}
	res, err := vexec.ExecutePlan(&typedCatalog{cache: e.typed, db: db}, p, vopts)
	if err != nil {
		if errors.Is(err, vexec.ErrUnsupported) {
			// Runtime value shapes outside the typed subset defer to the
			// interpreter, re-using the plan. An aborted typed attempt may
			// have recorded partial spans; drop them so the trace
			// reflects the run that actually produced the result.
			opts.Tracer.Reset()
			return e.fallback.ExecutePlan(db, p, opts)
		}
		return nil, fmt.Errorf("%s: %w", e.name, err)
	}

	out := &Result{
		Columns: res.Columns,
		Stats: Stats{
			RowsScanned:        res.Stats.RowsScanned,
			Batches:            res.Stats.Batches,
			FilterPasses:       res.Stats.FilterPasses,
			HashJoins:          res.Stats.HashJoins,
			JoinBuildRows:      res.Stats.JoinBuildRows,
			JoinProbeRows:      res.Stats.JoinProbeRows,
			LoopJoins:          res.Stats.LoopJoins,
			Groups:             res.Stats.Groups,
			AggRows:            res.Stats.AggRows,
			RowsReturned:       res.Stats.RowsReturned,
			SubqueryExecutions: res.Stats.SubqueryExecutions,
			BlocksSkipped:      res.Stats.BlocksSkipped,
		},
	}
	out.Rows = make([][]Value, res.NumRows())
	for i := range out.Rows {
		row := make([]Value, len(res.Cols))
		for c, vec := range res.Cols {
			row[c] = vec.At(i)
		}
		out.Rows[i] = row
	}
	return out, nil
}

// typedCache holds the typed decodings of boxed tables. A Registry hands
// every typed engine it registers one shared instance, like the plan
// cache, so a table version is decoded and dictionary-encoded once per
// registry; an engine constructed on its own starts with a private one.
type typedCache struct {
	mu     sync.Mutex
	cache  map[*Table]*typedTableEntry
	builds uint64 // decode passes actually run, for the build-once tests
}

// newTypedCache returns an empty typed-table cache.
func newTypedCache() *typedCache {
	return &typedCache{cache: map[*Table]*typedTableEntry{}}
}

// typedCatalog adapts an engine.Database to the typed-table catalog vexec
// consumes, decoding boxed columns into typed vectors through the cache.
type typedCatalog struct {
	cache *typedCache
	db    *Database
}

// VTable returns the typed form of the named table.
func (c *typedCatalog) VTable(name string) (*vexec.Table, error) {
	t := c.db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return c.cache.typedTable(c.db, t)
}

// typedTable converts a boxed table into typed vectors, caching the result
// keyed by the table's data version — the same invalidation hook the plan
// cache uses — so mutating or reloading a table can never serve stale typed
// columns. Each version is decoded exactly once: the first caller installs
// a placeholder entry and builds outside the lock; concurrent callers of
// the same version block on the entry's ready channel and share the result.
func (tc *typedCache) typedTable(db *Database, t *Table) (*vexec.Table, error) {
	version := t.Version()
	tc.mu.Lock()
	if entry, ok := tc.cache[t]; ok && entry.version == version {
		tc.mu.Unlock()
		<-entry.ready
		return entry.vt, entry.err
	}
	entry := &typedTableEntry{version: version, db: db, ready: make(chan struct{})}
	// Drop superseded entries so a table reloaded via Database.AddTable (a
	// fresh *Table under the same name in the same database) cannot pin its
	// predecessors' typed copies forever; the size cap bounds pathological
	// churn on top. Evicting an in-flight placeholder is harmless: its
	// waiters hold the entry pointer and still receive the build's result.
	for old, oe := range tc.cache {
		if old != t && oe.db == db && strings.EqualFold(old.Name, t.Name) {
			delete(tc.cache, old)
		}
	}
	for old := range tc.cache {
		if len(tc.cache) < maxTypedTables {
			break
		}
		if old == t {
			continue
		}
		delete(tc.cache, old)
	}
	tc.cache[t] = entry
	tc.builds++
	tc.mu.Unlock()

	vt, err := buildTypedTable(t)
	tc.mu.Lock()
	if err != nil {
		// Leave no failed entry behind: the next caller retries the build.
		if tc.cache[t] == entry {
			delete(tc.cache, t)
		}
	} else {
		entry.vt = vt
	}
	entry.err = err
	tc.mu.Unlock()
	close(entry.ready)
	return vt, err
}

// buildTypedTable runs the full typed import of one boxed table: column
// decode, dictionary encoding and zone-map construction (both inside
// vexec.NewTable).
func buildTypedTable(t *Table) (*vexec.Table, error) {
	cols := make([]vexec.TableColumn, len(t.Columns))
	for ci, col := range t.Columns {
		// vexec's value builder decodes boxed storage with the executor's own
		// kind promotion (incl. the per-row int/float duality a float column
		// may carry); all-NULL columns become KindNull vectors, and columns
		// mixing incompatible kinds report ErrUnsupported, routing such
		// databases to the interpreter.
		vec, err := vexec.FromValues(t.ColumnValues(ci))
		if err != nil {
			return nil, fmt.Errorf("%w: table %s column %s: %v", vexec.ErrUnsupported, t.Name, col.Name, err)
		}
		cols[ci] = vexec.TableColumn{Name: col.Name, Vec: vec}
	}
	return vexec.NewTable(t.Name, cols...), nil
}

// maxTypedTables bounds the typed-column import cache; workloads hold at
// most a dozen or so tables, so the cap only matters under churn.
const maxTypedTables = 64
