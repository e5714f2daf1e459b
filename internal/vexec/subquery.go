package vexec

import (
	"fmt"
	"sync"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
)

// subState is the per-execution materialization of one nested sub-query.
// Uncorrelated sub-queries run exactly once: a scalar site reads scalarVal, an
// EXISTS site reads exists, an IN site probes the membership set. Correlated
// sub-queries are decorrelated per the plan's Apply recipe: their own FROM
// pipeline is built and hashed once by the inner correlation keys, and every
// use site probes that build with the outer keys instead of re-running the
// statement per outer row.
//
// All states are built by prepareSubqueries before the enclosing pipeline
// starts and never mutated afterwards (the one lazily built part, the byte
// twin of applyState, sits behind a sync.Once), so probes are safe from
// morsel workers.
type subState struct {
	correlated bool

	// Uncorrelated materialization.
	scalarVal  sqlsem.Value    // first row of the first column; NULL when empty
	exists     bool            // any result rows
	set        map[string]bool // non-NULL first-column keys (appendScalarKey)
	setHasNull bool            // the first column had a NULL row
	setEmpty   bool            // the result was entirely empty (no rows at all)

	// Correlated decorrelation.
	apply *applyState
}

// applyState is the hash build of one decorrelated correlated sub-query: the
// inner side materialized once, grouped by the inner correlation keys in
// first-seen order with per-group row chains in inner-row order — the same
// ordering discipline as the join tables, which is what keeps ApplyFirst's
// "first matching row" identical to the interpreter's per-outer-row run.
type applyState struct {
	shape         plan.ApplyShape
	outerKeys     []sqlparser.Expr
	pairConjuncts []sqlparser.Expr

	// inner are the inner-side rows, a view of their tables: probes read it
	// through the pair views they build, never through its own columns.
	inner *Batch
	ht    *hashTable // inner key -> group id, typed by the inner keys
	lists joinLists  // per-group inner-row chains in row order
	// bytes is ht re-keyed in the byte encoding (same group ids), built on
	// the first probe whose outer keys are of another key class or
	// dictionary than the inner ones — the pairing a join resolves up front
	// with both sides in hand.
	bytesOnce sync.Once
	bytes     *hashTable

	projVals  *Vector      // per inner row: the projected value (ApplyIn/ApplyFirst)
	groupVals *Vector      // per group: the aggregated projection (ApplyAgg)
	emptyVal  sqlsem.Value // ApplyAgg value of an empty group (count 0, NULL sums)
}

// prepareSubqueries materializes the sub-query states of one SELECT core.
func (ex *executor) prepareSubqueries(stmt *sqlparser.SelectStatement) error {
	var err error
	stmt.ClauseExprs(func(e sqlparser.Expr) {
		for _, s := range sqlparser.Subqueries(e) {
			if _, ok := ex.subs[s]; !ok && err == nil {
				err = ex.prepareSub(s)
			}
		}
	})
	return err
}

// prepareSub materializes one sub-query state.
func (ex *executor) prepareSub(s *sqlparser.SelectStatement) error {
	sp := ex.p.Sub(s)
	if sp == nil {
		return fmt.Errorf("%w: unplanned sub-query", ErrUnsupported)
	}
	st := &subState{correlated: ex.p.Correlated(s)}
	var tm trace.Timer
	if o := ex.ids[s]; o != nil {
		tm = ex.tracer.Span(o.Self, trace.KindSubquery).Start()
	}
	if st.correlated {
		ap := ex.p.Apply(s)
		if ap == nil {
			// The verdict admits only decorrelatable correlated sites; a
			// missing recipe means the statement should not have reached here.
			return fmt.Errorf("%w: correlated sub-query without a decorrelation recipe", ErrUnsupported)
		}
		as, err := ex.buildApply(sp, ap)
		if err != nil {
			return err
		}
		st.apply = as
		tm.Done(int64(as.inner.Len()))
		ex.subs[s] = st
		return nil
	}

	ex.stats.SubqueryExecutions++
	res, err := ex.run(sp)
	if err != nil {
		// The interpreters reach a failing sub-query lazily (and possibly
		// never); defer so they decide whether the query errors.
		return deferToFallback(err)
	}
	n := res.NumRows()
	st.exists = n > 0
	st.scalarVal = sqlsem.Null()
	if n > 0 && len(res.Cols) > 0 {
		// Scalar sites read the first row; extra rows are not an error, like
		// the interpreters.
		st.scalarVal = res.Cols[0].At(0)
	}
	st.set = map[string]bool{}
	if len(res.Cols) > 0 {
		col := res.Cols[0]
		var buf []byte
		for i := 0; i < n; i++ {
			sv := col.At(i)
			if sv.IsNull() {
				st.setHasNull = true
				continue
			}
			buf = sv.AppendKey(buf[:0])
			st.set[string(buf)] = true
		}
	}
	st.setEmpty = len(st.set) == 0 && !st.setHasNull
	tm.Done(int64(n))
	ex.subs[s] = st
	return nil
}

// buildApply executes the decorrelation recipe: run the sub-query's own FROM
// pipeline with the correlation conjuncts stripped (InnerResidual replaces the
// plan's residual), hash the result by the inner keys, and precompute the
// per-row or per-group projection values the use-site shape consumes.
func (ex *executor) buildApply(sp *plan.Select, ap *plan.Apply) (*applyState, error) {
	// Sub-queries nested inside the inner statement materialize first; the
	// inner pipeline's filters probe them.
	if err := ex.prepareSubqueries(sp.Stmt); err != nil {
		return nil, err
	}
	ex.stats.SubqueryExecutions++
	inner := *sp
	inner.VexecResidual = ap.InnerResidual
	pipe, err := ex.buildFrom(&inner)
	if err != nil {
		return nil, deferToFallback(err)
	}
	b, err := ex.materializeOp(pipe)
	if err != nil {
		return nil, deferToFallback(err)
	}

	as := &applyState{
		shape:         ap.Shape,
		outerKeys:     ap.OuterKeys,
		pairConjuncts: ap.PairConjuncts,
		inner:         b,
	}
	n := b.Len()
	keyVecs, err := ex.keyVectors(b, ap.InnerKeys)
	if err != nil {
		return nil, deferToFallback(err)
	}
	as.ht = newHashTable(n)
	kc := as.ht.prepare(keyVecs)
	as.lists = newJoinLists(n)
	rowGroup := make([]int32, n)
	for i := 0; i < n; i++ {
		rowGroup[i] = -1
		if nullKeyRow(keyVecs, i) {
			// NULL = anything is UNKNOWN: the row can never match an outer key.
			continue
		}
		g, isNew := kc.getOrInsert(as.ht, keyVecs, i)
		as.lists.insert(g, int32(i), isNew)
		rowGroup[i] = int32(g)
	}

	switch ap.Shape {
	case plan.ApplyExists:
		// Candidate presence decides; the projection is never evaluated.
	case plan.ApplyIn, plan.ApplyFirst:
		// The plan verdict admits these shapes with exactly one computed item.
		ctx := &evalCtx{ex: ex, batch: b}
		v, err := ctx.eval(sp.Items[0])
		if err != nil {
			return nil, deferToFallback(err)
		}
		as.projVals = v
	case plan.ApplyAgg:
		if err := ex.buildApplyAgg(as, sp, b, rowGroup); err != nil {
			return nil, err
		}
	}
	return as, nil
}

// prober returns the table and coder that look the outer key vectors of one
// batch up: the typed build when the outer keys share its key class (and
// dictionary), its byte-encoded twin otherwise.
func (as *applyState) prober(keyVecs []*Vector) (*hashTable, keyCoder) {
	ht := as.ht
	mode, class, dict := jointMode(keyVecs)
	switch {
	case ht.mode == modeBytes, ht.mode == modeStr && (mode == modeStr || mode == modeDict):
	case mode == ht.mode && (mode != modeInt || class == ht.intClass) && (mode != modeDict || dict == ht.dict):
	default:
		as.bytesOnce.Do(func() {
			as.bytes = newByteKeyTable(ht.n)
			var buf []byte
			for g := 0; g < ht.n; g++ {
				buf = ht.appendGroupKey(buf[:0], g)
				as.bytes.getOrInsertBytes(buf)
			}
		})
		ht = as.bytes
	}
	return ht, keyCoder{mode: ht.mode}
}

// buildApplyAgg folds the inner rows into one aggregate group per correlation
// key — the decorrelated image of "run the aggregated sub-query once per outer
// row" — and evaluates the sub-query's projection over the groups, plus once
// over an empty group for outer rows with no match (count 0, NULL sums).
func (ex *executor) buildApplyAgg(as *applyState, sp *plan.Select, b *Batch, rowGroup []int32) error {
	_, argVecs, refVecs, err := aggBatchVectors(ex, b, sp)
	if err != nil {
		return deferToFallback(err)
	}
	ex.stats.AggRows += int64(b.Len())
	t := newAggTable(sp)
	if err := t.foldBatch(rowGroup, argVecs, refVecs); err != nil {
		return err
	}
	ex.stats.Groups += int64(t.n)
	if as.groupVals, err = ex.evalOverGroups(t, 0, sp.Items[0]); err != nil {
		return err
	}
	ev, err := ex.evalOverGroups(newAggTable(sp), 1, sp.Items[0])
	if err != nil {
		return err
	}
	as.emptyVal = ev.At(0)
	return nil
}

// evalOverGroups evaluates a grouped projection over the table's groups.
func (ex *executor) evalOverGroups(t *aggTable, minGroups int, proj sqlparser.Expr) (*Vector, error) {
	res := t.result(minGroups)
	v, err := (&evalCtx{ex: ex, batch: &Batch{n: res.n}, grp: res}).eval(proj)
	return v, deferToFallback(err)
}
