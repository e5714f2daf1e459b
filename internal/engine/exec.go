package engine

import (
	"fmt"
	"sort"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
)

// Mode selects the execution strategy of the executor; a strategy is known
// by the relation layout it runs on.
type Mode = plan.Layout

// Execution modes.
const (
	// ModeRow is tuple-at-a-time execution: full-width scans, short-circuit
	// predicate evaluation, no intermediate materialisation, early exit on
	// LIMIT.
	ModeRow = plan.LayoutRow
	// ModeColumn is column-at-a-time execution: column pruning, one filter
	// pass per conjunct, materialised arithmetic intermediates with
	// overflow-guarding casts.
	ModeColumn = plan.LayoutColumn
)

// executor runs one planned statement against a database. The logical plan
// (internal/plan) carries all front-end analysis — resolved FROM inputs,
// join order, classified conjuncts, sub-query correlation, pruning sets —
// so the executor walks plan nodes instead of re-analyzing the AST.
type executor struct {
	db     *Database
	mode   Mode
	stats  *Stats
	limits plan.Limits
	// guardCasts toggles the overflow-guard widening pass of ModeColumn;
	// disabling it models a newer engine version that removed the cost.
	guardCasts bool
	// plan is the shared logical plan of the statement being executed and
	// slots its resolution of every column reference in the mode's layout
	// (read only: the plan is shared with concurrent executions).
	plan  *plan.Plan
	slots []plan.Slot
	// tracer collects per-operator spans; ids are the plan's operator ids
	// (trace.NewIDs) the spans are keyed by. Both are nil when tracing is off.
	tracer *trace.Tracer
	ids    trace.IDs

	uncorrCache  map[*sqlparser.SelectStatement]*relation
	uncorrSets   map[*sqlparser.SelectStatement]subquerySetEntry
	deadlineTick int
}

func newExecutor(db *Database, mode Mode, limits plan.Limits, guardCasts bool, p *plan.Plan) *executor {
	return &executor{
		db:          db,
		mode:        mode,
		stats:       &Stats{},
		limits:      limits,
		guardCasts:  guardCasts,
		plan:        p,
		slots:       p.Slots(mode),
		uncorrCache: map[*sqlparser.SelectStatement]*relation{},
		uncorrSets:  map[*sqlparser.SelectStatement]subquerySetEntry{},
	}
}

// checkDeadline returns the budget error once the execution's context is
// done. It is called per row, so it polls only every 512th call: the per-row
// cost stays one increment.
func (ex *executor) checkDeadline() error {
	ex.deadlineTick++
	if ex.deadlineTick%512 != 0 {
		return nil
	}
	return ex.limits.Expired()
}

// executeSubquery runs a nested select through its pre-built plan;
// uncorrelated sub-queries (classified at plan time) are executed once and
// cached.
func (ex *executor) executeSubquery(stmt *sqlparser.SelectStatement, outer *scope) (*relation, error) {
	ex.stats.SubqueryExecutions++
	sub := ex.plan.Sub(stmt)
	if sub == nil {
		return nil, fmt.Errorf("internal: sub-query has no plan")
	}
	// Statements the id walk does not number (inside explicit JOIN trees)
	// run untraced.
	var sp *trace.Span
	if o := ex.ids[stmt]; o != nil {
		sp = ex.tracer.Span(o.Self, trace.KindSubquery)
	}
	correlated := ex.plan.Correlated(stmt)
	if !correlated {
		if rel, ok := ex.uncorrCache[stmt]; ok {
			if sp != nil {
				// A cache hit costs no re-execution; only the call counts.
				sp.Calls++
			}
			return rel, nil
		}
		// It sees no enclosing row: a scope chain of its own, which is also
		// what plan.Build resolved its column slots in.
		outer = nil
	}
	tm := sp.Start()
	rel, err := ex.executeSelect(sub, outer)
	if err != nil {
		return nil, err
	}
	tm.Done(int64(rel.numRows()))
	if !correlated {
		ex.uncorrCache[stmt] = rel
	}
	return rel, nil
}

// subquerySetEntry caches an IN sub-query's value set together with its
// NULL flag — the pair is inseparable: ternary IN needs to know whether a
// probe missed a NULL-bearing set (UNKNOWN) or a clean one (FALSE).
type subquerySetEntry struct {
	set     map[string]bool
	hasNull bool
}

// subquerySet returns the set of non-NULL first-column values produced by
// an IN sub-query plus whether the column contained any NULL — ternary IN
// needs that flag: a probe that misses a NULL-bearing set is UNKNOWN, not
// FALSE. Cached for uncorrelated sub-queries.
func (ex *executor) subquerySet(stmt *sqlparser.SelectStatement, outer *scope) (map[string]bool, bool, error) {
	if !ex.plan.Correlated(stmt) {
		if entry, ok := ex.uncorrSets[stmt]; ok {
			return entry.set, entry.hasNull, nil
		}
	}
	rel, err := ex.executeSubquery(stmt, outer)
	if err != nil {
		return nil, false, err
	}
	entry := subquerySetEntry{set: map[string]bool{}}
	if len(rel.cols) > 0 {
		for _, v := range rel.cols[0] {
			if v.IsNull() {
				entry.hasNull = true
			} else {
				entry.set[v.Key()] = true
			}
		}
	}
	if !ex.plan.Correlated(stmt) {
		ex.uncorrSets[stmt] = entry
	}
	return entry.set, entry.hasNull, nil
}

// executeSelect is the top of the interpreter: it runs one planned SELECT
// and folds its set-operation continuations in.
func (ex *executor) executeSelect(sp *plan.Select, outer *scope) (*relation, error) {
	rel, err := ex.executeSelectCore(sp, outer)
	if err != nil {
		return nil, err
	}
	// Set operations chain on the plan, mirroring the statement chain.
	for cur := sp; cur.SetNext != nil; cur = cur.SetNext {
		right, err := ex.executeSelectCore(cur.SetNext, outer)
		if err != nil {
			return nil, err
		}
		var tm trace.Timer
		if o := ex.ids[cur.SetNext.Stmt]; o != nil {
			tm = ex.tracer.Span(o.Self, trace.KindSet).Start()
		}
		rel, err = applySetOp(cur.Stmt.SetOp, rel, right)
		if err != nil {
			return nil, err
		}
		tm.Done(int64(rel.numRows()))
	}
	return rel, nil
}

func applySetOp(op string, left, right *relation) (*relation, error) {
	var buf []byte
	rowKey := func(r *relation, i int) string {
		buf = buf[:0]
		for _, c := range r.cols {
			buf = append(c[i].AppendKey(buf), '|')
		}
		return string(buf)
	}
	switch op {
	case "UNION ALL":
		out := left.selectRows(allRows(left.numRows()))
		for i := 0; i < right.numRows(); i++ {
			for ci := range out.cols {
				out.cols[ci] = append(out.cols[ci], right.cols[ci][i])
			}
			out.n++
		}
		return out, nil
	case "UNION":
		seen := map[string]bool{}
		var keep []int
		for i := 0; i < left.numRows(); i++ {
			k := rowKey(left, i)
			if !seen[k] {
				seen[k] = true
				keep = append(keep, i)
			}
		}
		out := left.selectRows(keep)
		for i := 0; i < right.numRows(); i++ {
			k := rowKey(right, i)
			if !seen[k] {
				seen[k] = true
				for ci := range out.cols {
					out.cols[ci] = append(out.cols[ci], right.cols[ci][i])
				}
				out.n++
			}
		}
		return out, nil
	case "EXCEPT", "INTERSECT":
		rightKeys := map[string]bool{}
		for i := 0; i < right.numRows(); i++ {
			rightKeys[rowKey(right, i)] = true
		}
		var keep []int
		seen := map[string]bool{}
		for i := 0; i < left.numRows(); i++ {
			k := rowKey(left, i)
			if seen[k] {
				continue
			}
			seen[k] = true
			inRight := rightKeys[k]
			if (op == "EXCEPT" && !inRight) || (op == "INTERSECT" && inRight) {
				keep = append(keep, i)
			}
		}
		return left.selectRows(keep), nil
	default:
		return nil, fmt.Errorf("unknown set operation %q", op)
	}
}

func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (ex *executor) executeSelectCore(sp *plan.Select, outer *scope) (*relation, error) {
	stmt, o := sp.Stmt, ex.ids[sp.Stmt]

	// FROM inputs + precomputed join order.
	input, err := ex.buildFrom(sp, outer)
	if err != nil {
		return nil, err
	}

	// Early-exit opportunity for the row engine: plain scans with LIMIT and
	// no ordering can stop as soon as enough rows qualified.
	earlyLimit := 0
	if ex.mode == ModeRow {
		earlyLimit = sp.EarlyLimit
	}

	var tm trace.Timer
	if o != nil && len(sp.Residual) > 0 {
		tm = ex.tracer.Span(o.Filter, trace.KindFilter).Start()
	}
	filtered, err := ex.applyFilter(input, sp.Residual, outer, earlyLimit)
	if err != nil {
		return nil, err
	}
	tm.Done(int64(filtered.numRows()))

	var out *relation
	var sortKeys [][]Value
	if sp.Grouped {
		out, sortKeys, err = ex.projectGrouped(sp, filtered, outer)
	} else {
		tm = trace.Timer{}
		if o != nil {
			tm = ex.tracer.Span(o.Project, trace.KindProject).Start()
		}
		out, sortKeys, err = ex.projectRows(sp, filtered, outer)
		if err == nil {
			tm.Done(int64(out.numRows()))
		}
	}
	if err != nil {
		return nil, err
	}

	if stmt.Distinct {
		tm = trace.Timer{}
		if o != nil {
			tm = ex.tracer.Span(o.Distinct, trace.KindDistinct).Start()
		}
		out, sortKeys = distinctRows(out, sortKeys)
		tm.Done(int64(out.numRows()))
	}

	if len(stmt.OrderBy) > 0 {
		tm = trace.Timer{}
		if o != nil {
			tm = ex.tracer.Span(o.Sort, trace.KindSort).Start()
		}
		out = sortRelation(out, sortKeys, sp.OrderBy)
		tm.Done(int64(out.numRows()))
	}

	if stmt.Limit != nil || stmt.Offset != nil {
		tm = trace.Timer{}
		if o != nil {
			tm = ex.tracer.Span(o.Limit, trace.KindLimit).Start()
		}
		out = applyLimit(out, stmt.Limit, stmt.Offset)
		tm.Done(int64(out.numRows()))
	}
	ex.stats.RowsReturned += int64(out.numRows())
	return out, nil
}

// buildFrom materialises the planned FROM inputs and stitches them together
// following the plan's precomputed join order: hash joins over the extracted
// equi-join keys, cross products where no edge connects the inputs.
func (ex *executor) buildFrom(sp *plan.Select, outer *scope) (*relation, error) {
	if len(sp.From) == 0 {
		// SELECT without FROM: a single empty row so expressions evaluate once.
		return &relation{n: 1}, nil
	}

	o := ex.ids[sp.Stmt]
	rels := make([]*relation, len(sp.From))
	for i, in := range sp.From {
		r, err := ex.buildInput(in, outer, o, i)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}

	current := rels[0]
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
			current, err = ex.crossJoin(current, rels[step.Right])
		} else {
			lc, rc := step.KeyCols.Sides(ex.mode)
			current, err = ex.hashJoin(current, rels[step.Right], joinKeys{step.LeftKeys, lc}, joinKeys{step.RightKeys, rc})
		}
		if err != nil {
			return nil, err
		}
		tm.Done(int64(current.numRows()))
	}
	return current, nil
}

// buildInput materialises one planned FROM input. o are the ids of the
// input's core and idx its FROM position, keying its trace span; the operands
// of explicit JOIN trees pass nil and run untraced (the whole tree is traced
// as one input operator).
func (ex *executor) buildInput(in *plan.Input, outer *scope, o *trace.Ops, idx int) (*relation, error) {
	switch {
	case in.Join != nil:
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Inputs[idx], trace.KindJoinTree).Start()
		}
		rel, err := ex.buildJoin(in.Join, outer)
		if err != nil {
			return nil, err
		}
		tm.Done(int64(rel.numRows()))
		return rel, nil
	case in.Derived != nil:
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Inputs[idx], trace.KindDerived).Start()
		}
		rel, err := ex.executeSelect(in.Derived, nil)
		if err != nil {
			return nil, err
		}
		// The outer query sees the derived table's columns under its alias.
		rel.meta = in.Layout(ex.mode)
		tm.Done(int64(rel.numRows()))
		return rel, nil
	default:
		// plan.Build refused a table the database does not hold.
		table := ex.db.Table(in.Table)
		var tm trace.Timer
		if o != nil {
			tm = ex.tracer.Span(o.Inputs[idx], trace.KindScan).Start()
		}
		rel := tableRelation(table, in, ex.mode, ex.stats)
		tm.Done(int64(rel.numRows()))
		return rel, nil
	}
}

// buildJoin executes an explicit JOIN tree node whose ON condition the plan
// already classified into equi-join keys and residual predicates.
func (ex *executor) buildJoin(j *plan.Join, outer *scope) (*relation, error) {
	left, err := ex.buildInput(j.Left, outer, nil, -1)
	if err != nil {
		return nil, err
	}
	right, err := ex.buildInput(j.Right, outer, nil, -1)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case "CROSS":
		return ex.crossJoin(left, right)
	case "INNER":
		if len(j.LeftKeys) == 0 {
			return ex.nestedLoopJoin(left, right, j.AllConds, outer)
		}
		lc, rc := j.KeyCols.Sides(ex.mode)
		joined, err := ex.hashJoin(left, right, joinKeys{j.LeftKeys, lc}, joinKeys{j.RightKeys, rc})
		if err != nil {
			return nil, err
		}
		if len(j.Residual) > 0 {
			return ex.applyFilter(joined, j.Residual, outer, 0)
		}
		return joined, nil
	case "LEFT":
		return ex.leftOuterJoin(left, right, j, outer)
	default:
		return nil, fmt.Errorf("unsupported join kind %q", j.Kind)
	}
}

// joinKeys are the equi-join keys of one side of a join: the references and
// the ordinals the plan resolved them to in that side's relation.
type joinKeys struct {
	refs []sqlparser.Expr
	cols []int32
}

// appendKey appends the encoding of the row's key values to buf. hasNull
// reports a NULL among them: per the ternary contract (internal/sqlsem) an
// equality with a NULL operand is UNKNOWN, so such rows can never satisfy
// the join condition — callers must skip them instead of letting NULL keys
// bucket together.
func (k joinKeys) appendKey(buf []byte, rel *relation, row int) (key []byte, hasNull bool) {
	for i, col := range k.cols {
		if slotObserver != nil {
			slotObserver(k.refs[i].(*sqlparser.ColumnRef), &scope{rel: rel, row: row}, plan.Slot{Col: col})
		}
		v := rel.cols[col][row]
		if v.IsNull() {
			hasNull = true
		}
		buf = append(v.AppendKey(buf), '|')
	}
	return buf, hasNull
}

// joinTable hashes the build side of a join: bucket ids by encoded key, the
// build rows of each bucket in insertion order. Keys are encoded into one
// scratch buffer and looked up without allocating; a key string is made
// only when a build row opens a new bucket.
type joinTable struct {
	ids     map[string]int
	buckets [][]int
	buf     []byte
}

// add files a build row under its key unless the key has a NULL.
func (t *joinTable) add(keys joinKeys, rel *relation, row int) bool {
	var hasNull bool
	if t.buf, hasNull = keys.appendKey(t.buf[:0], rel, row); hasNull {
		return false
	}
	id, ok := t.ids[string(t.buf)]
	if !ok {
		id = len(t.buckets)
		t.ids[string(t.buf)] = id
		t.buckets = append(t.buckets, nil)
	}
	t.buckets[id] = append(t.buckets[id], row)
	return true
}

// probe returns the build rows matching the probe row's key and whether the
// key has a NULL (which matches nothing).
func (t *joinTable) probe(keys joinKeys, rel *relation, row int) (rows []int, hasNull bool) {
	if t.buf, hasNull = keys.appendKey(t.buf[:0], rel, row); hasNull {
		return nil, true
	}
	if id, ok := t.ids[string(t.buf)]; ok {
		rows = t.buckets[id]
	}
	return rows, false
}

// hashJoin joins left and right on the given keys.
func (ex *executor) hashJoin(left, right *relation, leftKeys, rightKeys joinKeys) (*relation, error) {
	ex.stats.HashJoins++
	// Build on the smaller side.
	build, probe := right, left
	buildKeys, probeKeys := rightKeys, leftKeys
	swapped := false
	if left.numRows() < right.numRows() {
		build, probe = left, right
		buildKeys, probeKeys = leftKeys, rightKeys
		swapped = true
	}
	ht := joinTable{ids: map[string]int{}}
	for i := 0; i < build.numRows(); i++ {
		if err := ex.checkDeadline(); err != nil {
			return nil, err
		}
		// NULL = anything is UNKNOWN: such a row cannot match.
		if ht.add(buildKeys, build, i) {
			ex.stats.JoinBuildRows++
		}
	}
	var probeIdx, buildIdx []int
	for i := 0; i < probe.numRows(); i++ {
		if err := ex.checkDeadline(); err != nil {
			return nil, err
		}
		matches, hasNull := ht.probe(probeKeys, probe, i)
		if hasNull {
			continue
		}
		ex.stats.JoinProbeRows++
		for _, bi := range matches {
			probeIdx = append(probeIdx, i)
			buildIdx = append(buildIdx, bi)
			if err := ex.limits.JoinRows(len(probeIdx)); err != nil {
				return nil, err
			}
		}
	}
	leftIdx, rightIdx := probeIdx, buildIdx
	if swapped {
		leftIdx, rightIdx = buildIdx, probeIdx
	}
	out := left.selectRows(leftIdx)
	out.appendColumns(right.selectRows(rightIdx))
	return out, nil
}

// crossJoin builds the cartesian product, guarded by the join-size limit.
func (ex *executor) crossJoin(left, right *relation) (*relation, error) {
	ex.stats.LoopJoins++
	if err := ex.limits.CrossJoin(left.numRows(), right.numRows()); err != nil {
		return nil, err
	}
	total := left.numRows() * right.numRows()
	leftIdx := make([]int, 0, total)
	rightIdx := make([]int, 0, total)
	for i := 0; i < left.numRows(); i++ {
		for j := 0; j < right.numRows(); j++ {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, j)
		}
	}
	out := left.selectRows(leftIdx)
	out.appendColumns(right.selectRows(rightIdx))
	return out, nil
}

// nestedLoopJoin joins with an arbitrary condition.
func (ex *executor) nestedLoopJoin(left, right *relation, conds []sqlparser.Expr, outer *scope) (*relation, error) {
	ex.stats.LoopJoins++
	joined, err := ex.crossJoin(left, right)
	if err != nil {
		return nil, err
	}
	return ex.applyFilter(joined, conds, outer, 0)
}

// leftOuterJoin implements LEFT [OUTER] JOIN with the ON condition applied
// as part of the match (so non-matching left rows survive null-extended).
// The equi keys and residual predicates come pre-classified from the plan.
func (ex *executor) leftOuterJoin(left, right *relation, j *plan.Join, outer *scope) (*relation, error) {
	lc, rc := j.KeyCols.Sides(ex.mode)
	leftKeys, rightKeys := joinKeys{j.LeftKeys, lc}, joinKeys{j.RightKeys, rc}
	// Hash the right side by the equi keys (a single bucket when none).
	ht := joinTable{ids: map[string]int{}}
	for i := 0; i < right.numRows(); i++ {
		// NULL = anything is UNKNOWN: such a row cannot match.
		if ht.add(rightKeys, right, i) {
			ex.stats.JoinBuildRows++
		}
	}
	ex.stats.HashJoins++

	var leftIdx, rightIdx []int // rightIdx -1 means null-extended
	// A candidate pair is read in place: the left row and the right row are
	// the two halves of one scope under the join's layout.
	pev := &evaluator{ex: ex, sc: &scope{rel: left, pair: right, outer: outer}}
	for i := 0; i < left.numRows(); i++ {
		if err := ex.checkDeadline(); err != nil {
			return nil, err
		}
		ex.stats.JoinProbeRows++
		// A NULL key never matches; the left row survives null-extended
		// below, per LEFT JOIN semantics.
		candidates, _ := ht.probe(leftKeys, left, i)
		matched := false
		for _, ri := range candidates {
			pev.sc.row, pev.sc.pairRow = i, ri
			ok := true
			for _, c := range j.Residual {
				v, err := pev.eval(c)
				if err != nil {
					return nil, err
				}
				//lint:nullsafe consumer collapse: ON-clause residuals reject UNKNOWN rows, per SQL join semantics
				if !v.Bool() {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, ri)
			}
		}
		if !matched {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, -1)
		}
	}

	out := left.selectRows(leftIdx)
	rightPart := &relation{meta: right.meta, cols: make([][]Value, len(right.cols)), n: len(rightIdx)}
	for ci, c := range right.cols {
		vals := make([]Value, len(rightIdx))
		for i, ri := range rightIdx {
			if ri < 0 {
				vals[i] = sqlsem.Null()
			} else {
				vals[i] = c[ri]
			}
		}
		rightPart.cols[ci] = vals
	}
	out.appendColumns(rightPart)
	return out, nil
}

// applyFilter filters the relation with the given conjuncts. The row engine
// evaluates all conjuncts per row with short-circuiting (and can stop early
// for LIMIT queries); the column engine makes one pass per conjunct,
// shrinking the selection vector each time.
func (ex *executor) applyFilter(rel *relation, conjuncts []sqlparser.Expr, outer *scope, earlyLimit int) (*relation, error) {
	if len(conjuncts) == 0 {
		return rel, nil
	}
	if ex.mode == ModeColumn {
		selection := allRows(rel.numRows())
		ev := &evaluator{ex: ex, sc: &scope{rel: rel, outer: outer}}
		for _, c := range conjuncts {
			ex.stats.FilterPasses++
			var next []int
			for _, ri := range selection {
				if err := ex.checkDeadline(); err != nil {
					return nil, err
				}
				ev.sc.row = ri
				v, err := ev.eval(c)
				if err != nil {
					return nil, err
				}
				if v.Bool() {
					next = append(next, ri)
				}
			}
			selection = next
			if len(selection) == 0 {
				break
			}
		}
		ex.stats.IntermediatesMaterialized += int64(len(selection))
		return rel.selectRows(selection), nil
	}

	// Row mode.
	ex.stats.FilterPasses++
	var keep []int
	ev := &evaluator{ex: ex, sc: &scope{rel: rel, outer: outer}}
	for ri := 0; ri < rel.numRows(); ri++ {
		if err := ex.checkDeadline(); err != nil {
			return nil, err
		}
		ev.sc.row = ri
		ok := true
		for _, c := range conjuncts {
			v, err := ev.eval(c)
			if err != nil {
				return nil, err
			}
			//lint:nullsafe consumer collapse: the WHERE boundary rejects UNKNOWN rows, per SQL semantics
			if !v.Bool() {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, ri)
			if earlyLimit > 0 && len(keep) >= earlyLimit {
				break
			}
		}
	}
	return rel.selectRows(keep), nil
}

// outputRelation lays out the statement's output columns (plan.OutSchema)
// with no rows yet.
func outputRelation(sp *plan.Select) *relation {
	return &relation{meta: sp.OutSchema, cols: make([][]Value, len(sp.OutSchema))}
}

// projectRows computes the projection of a non-grouped query, returning the
// output relation plus the ORDER BY sort keys evaluated in the same context.
func (ex *executor) projectRows(sp *plan.Select, rel *relation, outer *scope) (*relation, [][]Value, error) {
	out := outputRelation(sp)
	out.n = rel.numRows()
	sortKeys := make([][]Value, rel.numRows())
	ev := &evaluator{ex: ex, sc: &scope{rel: rel, outer: outer}}
	for ri := 0; ri < rel.numRows(); ri++ {
		if err := ex.checkDeadline(); err != nil {
			return nil, nil, err
		}
		ev.sc.row = ri
		for col, ci := range sp.StarCols {
			out.cols[col] = append(out.cols[col], rel.cols[ci][ri])
		}
		for k, e := range sp.Items {
			v, err := ev.eval(e)
			if err != nil {
				return nil, nil, err
			}
			col := len(sp.StarCols) + k
			out.cols[col] = append(out.cols[col], v)
		}
		if len(sp.OrderBy) > 0 {
			keys, err := orderKeys(sp, ev, out, ri)
			if err != nil {
				return nil, nil, err
			}
			sortKeys[ri] = keys
		}
	}
	return out, sortKeys, nil
}

// projectGrouped computes grouping, aggregation, HAVING and the projection
// of a grouped query.
func (ex *executor) projectGrouped(sp *plan.Select, rel *relation, outer *scope) (*relation, [][]Value, error) {
	stmt, o := sp.Stmt, ex.ids[sp.Stmt]
	// Build groups.
	var atm trace.Timer
	if o != nil {
		atm = ex.tracer.Span(o.Agg, trace.KindAgg).Start()
	}
	ex.stats.AggRows += int64(rel.numRows())
	type groupEntry struct {
		rows []int
	}
	var order []string
	groups := map[string]*groupEntry{}
	if len(stmt.GroupBy) == 0 {
		key := "all"
		groups[key] = &groupEntry{rows: allRows(rel.numRows())}
		order = append(order, key)
	} else {
		ev := &evaluator{ex: ex, sc: &scope{rel: rel, outer: outer}}
		var buf []byte
		for ri := 0; ri < rel.numRows(); ri++ {
			if err := ex.checkDeadline(); err != nil {
				return nil, nil, err
			}
			ev.sc.row = ri
			buf = buf[:0]
			for _, g := range stmt.GroupBy {
				v, err := ev.eval(g)
				if err != nil {
					return nil, nil, err
				}
				buf = append(v.AppendKey(buf), '|')
			}
			key := string(buf)
			entry, ok := groups[key]
			if !ok {
				entry = &groupEntry{}
				groups[key] = entry
				order = append(order, key)
			}
			entry.rows = append(entry.rows, ri)
		}
	}
	ex.stats.Groups += int64(len(order))
	// The aggregate span covers group building; its row count is the groups
	// formed, pre-HAVING — the same accounting as the vectorized engine's.
	atm.Done(int64(len(order)))

	out := outputRelation(sp)

	var ptm trace.Timer
	if o != nil {
		ptm = ex.tracer.Span(o.Project, trace.KindProject).Start()
	}
	var sortKeys [][]Value
	for _, key := range order {
		entry := groups[key]
		gev := &evaluator{ex: ex, sc: &scope{rel: rel, outer: outer}, group: entry.rows}
		if len(entry.rows) > 0 {
			gev.sc.row = entry.rows[0]
		}
		// HAVING filter.
		if stmt.Having != nil {
			v, err := gev.eval(stmt.Having)
			if err != nil {
				return nil, nil, err
			}
			//lint:nullsafe consumer collapse: the HAVING boundary rejects UNKNOWN groups, per SQL semantics
			if !v.Bool() {
				continue
			}
		}
		for i, e := range sp.Items {
			v, err := gev.eval(e)
			if err != nil {
				return nil, nil, err
			}
			out.cols[i] = append(out.cols[i], v)
		}
		out.n++
		if len(sp.OrderBy) > 0 {
			keys, err := orderKeys(sp, gev, out, out.n-1)
			if err != nil {
				return nil, nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	ptm.Done(int64(out.numRows()))
	return out, sortKeys, nil
}

// orderKeys reads the plan's resolved ORDER BY keys for the current output
// row: an output column, or an expression evaluated in the current row/group
// context.
func orderKeys(sp *plan.Select, ev *evaluator, out *relation, outRow int) ([]Value, error) {
	keys := make([]Value, len(sp.OrderBy))
	for i, k := range sp.OrderBy {
		if k.Col >= 0 {
			keys[i] = out.cols[k.Col][outRow]
			continue
		}
		v, err := ev.eval(k.Expr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// distinctRows removes duplicate output rows (and their sort keys).
func distinctRows(rel *relation, sortKeys [][]Value) (*relation, [][]Value) {
	seen := map[string]bool{}
	var keep []int
	var buf []byte
	for i := 0; i < rel.numRows(); i++ {
		buf = buf[:0]
		for _, c := range rel.cols {
			buf = append(c[i].AppendKey(buf), '|')
		}
		k := string(buf)
		if !seen[k] {
			seen[k] = true
			keep = append(keep, i)
		}
	}
	out := rel.selectRows(keep)
	if sortKeys == nil {
		return out, nil
	}
	var keys [][]Value
	for _, i := range keep {
		if i < len(sortKeys) {
			keys = append(keys, sortKeys[i])
		}
	}
	return out, keys
}

// sortRelation sorts the output rows by the precomputed keys.
func sortRelation(rel *relation, keys [][]Value, orderBy []plan.OrderKey) *relation {
	idx := allRows(rel.numRows())
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range orderBy {
			c := ka[i].Compare(kb[i])
			if c == 0 {
				continue
			}
			if orderBy[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return rel.selectRows(idx)
}

// applyLimit applies LIMIT/OFFSET.
func applyLimit(rel *relation, limit, offset *int64) *relation {
	start := 0
	if offset != nil {
		start = int(*offset)
	}
	end := rel.numRows()
	if limit != nil && start+int(*limit) < end {
		end = start + int(*limit)
	}
	if start > rel.numRows() {
		start = rel.numRows()
	}
	var keep []int
	for i := start; i < end; i++ {
		keep = append(keep, i)
	}
	return rel.selectRows(keep)
}
