package vexec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
)

// ErrUnsupported marks statements (or runtime value shapes) outside the
// vectorized subset; the engine-level adapter falls back to the interpreter
// when it sees this error.
var ErrUnsupported = errors.New("vexec: unsupported construct")

// DefaultBatchSize is the number of rows per pipeline batch.
const DefaultBatchSize = 1024

// Options configure one execution.
type Options struct {
	// BatchSize is the pipeline batch size (default 1024).
	BatchSize int
	// Limits is the execution budget (the caller's context, join-size guard)
	// the engine entry resolved; the zero value imposes none.
	Limits plan.Limits
	// Parallelism caps the morsel worker pool for intra-query parallelism
	// (parallel scan→filter pipelines, partitioned hash-join builds,
	// thread-local aggregation); 0 or 1 executes serially. Results are
	// bit-identical at every worker count.
	Parallelism int
	// Tracer collects per-operator spans keyed by the plan's operator ids;
	// nil disables tracing at zero cost (every operator's span pointer is
	// nil and the hot paths reduce to one pointer comparison). Traces are
	// bit-identical at every worker count: morsel workers accumulate
	// thread-local span deltas that merge in morsel order.
	Tracer *trace.Tracer
	// Fused selects the data-centric compiled paradigm for the segment
	// between a table and the first pipeline breaker: scan and filter
	// conjuncts run as one loop of compiled per-row closures (fused.go)
	// instead of pulled batches with one vector pass per conjunct. Every
	// operator above that segment, and every result, is the same. The fused
	// source is not morsel-split: under Parallelism > 1 it runs serially
	// below the parallel breakers.
	Fused bool
}

// Result is a finished query: named, typed output columns.
type Result struct {
	Columns []string
	Cols    []*Vector
	Stats   plan.Stats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// executor runs one statement.
type executor struct {
	cat   Catalog
	opts  Options
	stats plan.Stats
	// p is the logical plan being executed; nested pipelines (derived
	// tables, sub-queries) look their sub-plans and decorrelation recipes up
	// here.
	p *plan.Plan
	// subs holds the per-execution sub-query states, keyed by the nested
	// statement: uncorrelated sub-queries materialize once into a constant
	// scalar / EXISTS flag / IN membership set, correlated ones into a
	// decorrelated hash-join build over their own FROM pipeline. States are
	// built before the enclosing pipeline runs and are read-only afterwards,
	// so filter probes are safe under morsel parallelism.
	subs map[*sqlparser.SelectStatement]*subState
	// tracer is the per-operator span collector and ids the plan's operator
	// ids (trace.NewIDs) its spans are keyed by; both nil when tracing is
	// off. Pipelines the id walk does not number have no entry and run
	// untraced.
	tracer *trace.Tracer
	ids    trace.IDs
}

// ExecutePlan runs a planned SELECT against the catalog. Statements outside
// the vectorized subset were identified at plan time; the precomputed
// verdict replaces the runtime probe.
func ExecutePlan(cat Catalog, p *plan.Plan, opts Options) (*Result, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if !p.Vectorizable {
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, p.NotVectorizableReason)
	}
	ex := &executor{
		cat:    cat,
		opts:   opts,
		p:      p,
		subs:   map[*sqlparser.SelectStatement]*subState{},
		tracer: opts.Tracer,
	}
	if opts.Tracer != nil {
		ex.ids = trace.NewIDs(p)
	}
	res, err := ex.run(p.Root)
	if err != nil {
		return nil, err
	}
	res.Stats = ex.stats
	return res, nil
}

// checkDeadline aborts overdue or cancelled queries; called once per batch.
func (ex *executor) checkDeadline() error { return ex.opts.Limits.Expired() }

// run executes one SELECT core.
func (ex *executor) run(sp *plan.Select) (*Result, error) {
	stmt := sp.Stmt
	// Materialize the statement's sub-query states before its pipeline runs:
	// filters probe them read-only.
	if err := ex.prepareSubqueries(stmt); err != nil {
		return nil, err
	}
	pipe, err := ex.buildFrom(sp)
	if err != nil {
		return nil, err
	}
	if sp.Grouped {
		return ex.runGrouped(sp, pipe)
	}
	return ex.runRows(sp, pipe)
}

// runBatch executes a nested SELECT core and re-frames its projected output
// as a batch carrying the given schema — the shape derived-table inputs and
// sub-query materialization consume.
func (ex *executor) runBatch(sp *plan.Select, schema []plan.ColumnMeta) (*Batch, error) {
	res, err := ex.run(sp)
	if err != nil {
		return nil, err
	}
	b := &Batch{n: res.NumRows(), cols: res.Cols, meta: make([]colMeta, len(res.Cols))}
	for i := range res.Cols {
		if i < len(schema) {
			b.meta[i] = colMeta{table: schema[i].Table, name: schema[i].Name}
		} else if i < len(res.Columns) {
			b.meta[i] = colMeta{name: strings.ToLower(res.Columns[i])}
		}
	}
	return b, nil
}

// buildFrom assembles the scan/filter/join pipeline from the plan: pushdown
// conjuncts filter the input pipelines below the joins (a selection the
// interpreter does not perform — the result set is provably identical),
// the precomputed JoinSteps stitch the materialized inputs, and the
// residual conjuncts filter after the joins.
func (ex *executor) buildFrom(sp *plan.Select) (operator, error) {
	if len(sp.From) == 0 {
		return ex.residualFilter(&dualOp{}, sp), nil
	}

	o := ex.ids[sp.Stmt]
	pipes := make([]operator, len(sp.From))
	for i, in := range sp.From {
		p, err := ex.buildInput(in, sp.Needed, o, i)
		if err != nil {
			return nil, err
		}
		if len(sp.VexecPushdown[i]) > 0 {
			// A scan under pushdown conjuncts can consult the table's zone
			// maps and skip whole blocks; only batch sizes aligned to the
			// block grid keep serial and morsel segmentation identical.
			if sc, ok := p.(*scanOp); ok && ex.opts.BatchSize%ZoneBlockRows == 0 {
				sc.zones = sc.table.ZonePreds(sc.alias, sp.VexecPushdown[i])
			}
			var span *trace.Span
			if o != nil {
				span = ex.tracer.Span(o.Pushdown[i], trace.KindFilter)
			}
			p = ex.filter(p, sp.VexecPushdown[i], span)
		}
		pipes[i] = p
	}

	var current operator
	if len(pipes) == 1 {
		current = pipes[0]
	} else {
		// Multiple FROM items: materialize and stitch along the plan's join
		// order, which mirrors the interpreter's.
		mats := make([]*Batch, len(pipes))
		for i, p := range pipes {
			m, err := ex.materializeOp(p)
			if err != nil {
				return nil, err
			}
			mats[i] = m
		}
		cur := mats[0]
		for k, step := range sp.JoinSteps {
			var tm trace.Timer
			if o != nil {
				kind := trace.KindHashJoin
				if step.Cross {
					kind = trace.KindCross
				}
				tm = ex.tracer.Span(o.Joins[k], kind).Start()
			}
			var err error
			if step.Cross {
				cur, err = ex.crossJoin(cur, mats[step.Right])
			} else {
				cur, err = ex.hashJoin(cur, mats[step.Right], step.LeftKeys, step.RightKeys)
			}
			if err != nil {
				return nil, err
			}
			tm.Done(int64(cur.Len()))
		}
		current = &matOp{ex: ex, b: cur}
	}

	return ex.residualFilter(current, sp), nil
}

// residualFilter stacks the statement's residual conjuncts on its pipeline.
func (ex *executor) residualFilter(child operator, sp *plan.Select) operator {
	if len(sp.VexecResidual) == 0 {
		return child
	}
	var span *trace.Span
	if o := ex.ids[sp.Stmt]; o != nil {
		span = ex.tracer.Span(o.Filter, trace.KindFilter)
	}
	return ex.filter(child, sp.VexecResidual, span)
}

// filter stacks one conjunct list on a pipeline: a filterOp, or under
// Options.Fused a stage of the fused source below, with a filterOp only for
// the conjuncts the closure compiler does not cover.
func (ex *executor) filter(child operator, conjuncts []sqlparser.Expr, span *trace.Span) operator {
	if ex.opts.Fused {
		child, conjuncts, span = fuse(child, conjuncts, span)
	}
	if len(conjuncts) == 0 {
		return child
	}
	return &filterOp{ex: ex, child: child, conjuncts: conjuncts, span: span}
}

// buildInput builds the pipeline of one planned FROM input; needed are the
// statement's per-alias referenced columns, which prune its scans. o are the
// ids of the input's core and idx its FROM position, keying its trace span;
// the operands of explicit JOIN trees pass nil (the whole tree is traced as
// one input operator).
func (ex *executor) buildInput(in *plan.Input, needed map[string]map[string]bool, o *trace.Ops, idx int) (operator, error) {
	switch {
	case in.Join != nil:
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Inputs[idx], trace.KindJoinTree).Start()
		}
		b, err := ex.buildJoinBatch(in.Join, needed)
		if err != nil {
			return nil, err
		}
		tm.Done(int64(b.Len()))
		return &matOp{ex: ex, b: b}, nil
	case in.Derived != nil:
		// A derived table runs its sub-plan to completion and feeds the
		// result in as a dense input batch, renamed to the derived alias.
		// Only top-level FROM positions have an operator id; operands of
		// explicit JOIN trees run untraced, like the interpreters.
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Inputs[idx], trace.KindDerived).Start()
		}
		b, err := ex.runBatch(in.Derived, in.Schema)
		if err != nil {
			return nil, err
		}
		tm.Done(int64(b.Len()))
		return &matOp{ex: ex, b: b}, nil
	default:
		table, err := ex.cat.VTable(in.Table)
		if err != nil {
			return nil, err
		}
		op := newScanOp(ex, table, in.Alias, needed[strings.ToLower(in.Alias)])
		if o != nil {
			op.span = ex.tracer.Span(o.Inputs[idx], trace.KindScan)
		}
		return op, nil
	}
}

// buildJoinBatch materializes an explicit JOIN tree whose ON condition the
// plan already classified. The operands carry no operator ids of their own:
// the whole tree is traced as one input operator.
func (ex *executor) buildJoinBatch(j *plan.Join, needed map[string]map[string]bool) (*Batch, error) {
	leftOp, err := ex.buildInput(j.Left, needed, nil, -1)
	if err != nil {
		return nil, err
	}
	left, err := ex.materializeOp(leftOp)
	if err != nil {
		return nil, err
	}
	rightOp, err := ex.buildInput(j.Right, needed, nil, -1)
	if err != nil {
		return nil, err
	}
	right, err := ex.materializeOp(rightOp)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case "CROSS":
		return ex.crossJoin(left, right)
	case "INNER":
		if len(j.LeftKeys) == 0 {
			// Arbitrary join condition: cartesian product plus a filter over
			// every conjunct.
			ex.stats.LoopJoins++
			joined, err := ex.crossJoin(left, right)
			if err != nil {
				return nil, err
			}
			return ex.applyFilterBatch(joined, j.AllConds)
		}
		joined, err := ex.hashJoin(left, right, j.LeftKeys, j.RightKeys)
		if err != nil {
			return nil, err
		}
		if len(j.Residual) > 0 {
			return ex.applyFilterBatch(joined, j.Residual)
		}
		return joined, nil
	case "LEFT":
		return ex.leftJoin(left, right, j.LeftKeys, j.RightKeys, j.Residual)
	default:
		return nil, fmt.Errorf("%w: %s join", ErrUnsupported, j.Kind)
	}
}

// --- projection and epilogue -------------------------------------------------

// runRows executes a non-grouped query: drain the pipeline, project, then
// run the shared epilogue.
func (ex *executor) runRows(sp *plan.Select, pipe operator) (*Result, error) {
	b, err := ex.materializeOp(pipe)
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{ex: ex, batch: b}

	var tm trace.Timer
	if o := ex.ids[sp.Stmt]; o != nil {
		tm = ex.tracer.Span(o.Project, trace.KindProject).Start()
	}
	cols := make([]*Vector, 0, len(sp.OutSchema))
	for _, ci := range sp.StarCols {
		cols = append(cols, b.dense(ci))
	}
	if cols, err = ctx.evalAppend(cols, sp.Items); err != nil {
		return nil, err
	}
	tm.Done(int64(b.Len()))
	return ex.epilogue(sp, cols, ctx, b.Len())
}

// evalAppend evaluates the expressions in order, appending their vectors.
func (ctx *evalCtx) evalAppend(cols []*Vector, exprs []sqlparser.Expr) ([]*Vector, error) {
	for _, e := range exprs {
		v, err := ctx.eval(e)
		if err != nil {
			return nil, err
		}
		cols = append(cols, v)
	}
	return cols, nil
}

// runGrouped executes a grouped query: hash-aggregate the pipeline, apply
// HAVING, project the groups, then run the shared epilogue.
func (ex *executor) runGrouped(sp *plan.Select, pipe operator) (*Result, error) {
	stmt, o := sp.Stmt, ex.ids[sp.Stmt]
	var atm trace.Timer
	if o != nil {
		atm = ex.tracer.Span(o.Agg, trace.KindAgg).Start()
	}
	agg, err := ex.hashAggregate(pipe, sp)
	if err != nil {
		return nil, err
	}
	atm.Done(int64(agg.n))
	n := agg.n
	ctx := &evalCtx{ex: ex, batch: &Batch{n: n}, grp: agg}

	if stmt.Having != nil {
		pred, err := ctx.eval(stmt.Having)
		if err != nil {
			return nil, err
		}
		var sel []int
		for i := 0; i < n; i++ {
			if !pred.IsNull(i) && truthy(pred, i) {
				sel = append(sel, i)
			}
		}
		if len(sel) < n {
			n = len(sel)
			agg.aggs, agg.refs, agg.n = gatherAll(agg.aggs, sel), gatherAll(agg.refs, sel), n
			ctx.batch = &Batch{n: n}
		}
	}

	var tm trace.Timer
	if o != nil {
		tm = ex.tracer.Span(o.Project, trace.KindProject).Start()
	}
	cols, err := ctx.evalAppend(nil, sp.Items)
	if err != nil {
		return nil, err
	}
	tm.Done(int64(n))
	return ex.epilogue(sp, cols, ctx, n)
}

// epilogue applies DISTINCT, ORDER BY and LIMIT/OFFSET to the projected
// columns and finishes the result. The plan's resolved sort keys are output
// columns or expressions, which evaluate in the projection's context ctx.
func (ex *executor) epilogue(sp *plan.Select, cols []*Vector, ctx *evalCtx, n int) (*Result, error) {
	stmt, o := sp.Stmt, ex.ids[sp.Stmt]
	sortKeys := make([]*Vector, len(sp.OrderBy))
	for i, k := range sp.OrderBy {
		if k.Col >= 0 {
			sortKeys[i] = cols[k.Col]
			continue
		}
		v, err := ctx.eval(k.Expr)
		if err != nil {
			return nil, err
		}
		sortKeys[i] = v
	}
	if stmt.Distinct {
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Distinct, trace.KindDistinct).Start()
		}
		// First-seen survivors through the typed hash table: a fresh group
		// id means an unseen row.
		ht := newHashTable(min(n, 4096))
		kc := ht.prepare(cols)
		var keep []int
		for i := 0; i < n; i++ {
			if _, isNew := kc.getOrInsert(ht, cols, i); isNew {
				keep = append(keep, i)
			}
		}
		if len(keep) < n {
			cols = gatherAll(cols, keep)
			sortKeys = gatherAll(sortKeys, keep)
			n = len(keep)
		}
		tm.Done(int64(n))
	}

	if len(sortKeys) > 0 {
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Sort, trace.KindSort).Start()
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		// The multi-key comparator is compiled once per query: one
		// kind-specialized closure per sort key instead of boxing two
		// scalars per comparison.
		order := sp.OrderBy
		cmps := make([]func(a, b int) int, len(sortKeys))
		for i := range sortKeys {
			cmps[i] = compiledCmp(sortKeys[i])
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ra, rb := idx[a], idx[b]
			for i, cmp := range cmps {
				c := cmp(ra, rb)
				if c == 0 {
					continue
				}
				if order[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := false
		for i := range idx {
			if idx[i] != i {
				sorted = true
				break
			}
		}
		if sorted {
			cols = gatherAll(cols, idx)
		}
		tm.Done(int64(n))
	}

	if stmt.Limit != nil || stmt.Offset != nil {
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Limit, trace.KindLimit).Start()
		}
		start := 0
		if stmt.Offset != nil {
			start = int(*stmt.Offset)
		}
		end := n
		if stmt.Limit != nil && start+int(*stmt.Limit) < end {
			end = start + int(*stmt.Limit)
		}
		if start > n {
			start = n
		}
		keep := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			keep = append(keep, i)
		}
		cols = gatherAll(cols, keep)
		n = len(keep)
		tm.Done(int64(n))
	}

	ex.stats.RowsReturned += int64(n)
	names := make([]string, len(sp.OutSchema))
	for i, m := range sp.OutSchema {
		names[i] = m.Name
	}
	return &Result{Columns: names, Cols: cols}, nil
}

func gatherAll(cols []*Vector, rows []int) []*Vector {
	if cols == nil {
		return nil
	}
	out := make([]*Vector, len(cols))
	for i, c := range cols {
		out[i] = c.Gather(rows)
	}
	return out
}

// compiledCmp builds the comparison closure of one sort key vector,
// specialized to its kind. Every branch reproduces compareScalars over the
// boxed At values exactly — including its float-domain comparison of
// integer keys — so the compiled sort orders rows identically to the
// scalar path (and to the interpreters).
func compiledCmp(v *Vector) func(a, b int) int {
	nulls := v.Nulls
	switch v.Kind {
	case sqlsem.KindNull:
		// All rows NULL: every pair ties.
		return func(a, b int) int { return 0 }
	case sqlsem.KindString:
		if v.Dict != nil {
			// The dictionary is sorted and deduplicated, so code order is
			// exactly strings.Compare order.
			codes := v.Codes
			return func(a, b int) int {
				if c, done := nullCmp(nulls, a, b); done {
					return c
				}
				switch {
				case codes[a] < codes[b]:
					return -1
				case codes[a] > codes[b]:
					return 1
				default:
					return 0
				}
			}
		}
		strs := v.Strs
		return func(a, b int) int {
			if c, done := nullCmp(nulls, a, b); done {
				return c
			}
			return strings.Compare(strs[a], strs[b])
		}
	case sqlsem.KindFloat:
		// Under the int/float duality mask a flagged row's float payload
		// is the exact float64 image of its integer, which is what the
		// scalar path compares too.
		fl := v.Floats
		return func(a, b int) int {
			if c, done := nullCmp(nulls, a, b); done {
				return c
			}
			return cmpFloat(fl[a], fl[b])
		}
	default: // KindInt, KindDate, KindBool
		// compareScalars compares numeric scalars in the float64 domain;
		// keep exactly that (not int64 order) so ties beyond 2^53 break
		// identically.
		ints := v.Ints
		return func(a, b int) int {
			if c, done := nullCmp(nulls, a, b); done {
				return c
			}
			return cmpFloat(float64(ints[a]), float64(ints[b]))
		}
	}
}

// nullCmp resolves comparisons involving NULL rows: NULL sorts below
// everything and ties with NULL. done is false when neither row is NULL.
func nullCmp(nulls []bool, a, b int) (c int, done bool) {
	if nulls == nil {
		return 0, false
	}
	an, bn := nulls[a], nulls[b]
	switch {
	case !an && !bn:
		return 0, false
	case an && bn:
		return 0, true
	case an:
		return -1, true
	default:
		return 1, true
	}
}

func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}
