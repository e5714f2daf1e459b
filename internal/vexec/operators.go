package vexec

import (
	"fmt"
	"strings"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
)

// operator is a pull-based batch producer: next returns nil at end of
// stream. schema describes the output columns without pulling data, so the
// planner can resolve references and detect join edges up front.
type operator interface {
	next() (*Batch, error)
	schema() []colMeta
}

// --- scan --------------------------------------------------------------------

// scanOp emits fixed-size windows over a typed base table. The windows are
// zero-copy slices of the table's vectors. With zone predicates attached
// (pushed-down conjuncts over a block-aligned batch size) each window is
// split into its maximal runs of satisfiable blocks and the rest is never
// read; the same run segmentation is reproduced by the morsel-parallel
// path, so stats and traces stay identical at every worker count.
type scanOp struct {
	ex     *executor
	table  *Table
	alias  string
	meta   []colMeta
	pos    int
	lo     int // table row of the last emitted batch's first row
	zones  []ZonePred
	runs   [][2]int // kept runs of the current window, [lo, hi) row ranges
	runIdx int
	span   *trace.Span // nil when tracing is off

	// reuse arms the single-frame fast path: the scan overwrites one Batch
	// (and its Vector structs) in place instead of allocating per window.
	// Only enabled for pipelines that fully consume each batch before the
	// next pull and retain nothing but boxed scalars — the serial
	// aggregation loop.
	reuse     bool
	frame     Batch
	frameCols []Vector
}

func newScanOp(ex *executor, t *Table, alias string) *scanOp {
	if alias == "" {
		alias = t.Name
	}
	meta := make([]colMeta, len(t.Cols))
	for i, c := range t.Cols {
		meta[i] = colMeta{table: strings.ToLower(alias), name: strings.ToLower(c.Name)}
	}
	return &scanOp{ex: ex, table: t, alias: alias, meta: meta}
}

func (s *scanOp) schema() []colMeta { return s.meta }

// keptRuns appends the maximal runs of zone-satisfiable blocks within
// window [lo, hi) — block-aligned at lo by construction — and returns the
// number of skipped blocks. Without zone predicates the window is one run.
func keptRuns(runs [][2]int, t *Table, zones []ZonePred, lo, hi int) ([][2]int, int64) {
	if len(zones) == 0 {
		return append(runs, [2]int{lo, hi}), 0
	}
	var skipped int64
	runStart := -1
	for b := lo / ZoneBlockRows; b*ZoneBlockRows < hi; b++ {
		blo := b * ZoneBlockRows
		if t.BlockMayMatch(zones, b) {
			if runStart < 0 {
				runStart = blo
			}
			continue
		}
		skipped++
		if runStart >= 0 {
			runs = append(runs, [2]int{runStart, blo})
			runStart = -1
		}
	}
	if runStart >= 0 {
		runs = append(runs, [2]int{runStart, hi})
	}
	return runs, skipped
}

func (s *scanOp) next() (*Batch, error) {
	for {
		if s.runIdx >= len(s.runs) {
			if s.pos >= s.table.NumRows() {
				return nil, nil
			}
			if err := s.ex.checkDeadline(); err != nil {
				return nil, err
			}
			hi := s.pos + s.ex.opts.BatchSize
			if hi > s.table.NumRows() {
				hi = s.table.NumRows()
			}
			var skipped int64
			s.runs, skipped = keptRuns(s.runs[:0], s.table, s.zones, s.pos, hi)
			s.runIdx = 0
			s.pos = hi
			if skipped > 0 {
				s.ex.stats.BlocksSkipped += skipped
				if s.span != nil {
					s.span.BlocksSkipped += skipped
				}
			}
			continue
		}
		r := s.runs[s.runIdx]
		s.runIdx++
		var t0 time.Time
		if s.span != nil {
			t0 = time.Now()
		}
		lo, hi := r[0], r[1]
		s.lo = lo
		var b *Batch
		if s.reuse {
			b = s.frameBatch(lo, hi)
		} else {
			b = &Batch{n: hi - lo, meta: s.meta}
			b.cols = make([]*Vector, len(s.table.Cols))
			for i, c := range s.table.Cols {
				b.cols[i] = c.Vec.Slice(lo, hi)
			}
		}
		s.ex.stats.RowsScanned += int64(hi - lo)
		s.ex.stats.Batches++
		if s.span != nil {
			s.span.WallNS += time.Since(t0).Nanoseconds()
			s.span.Rows += int64(hi - lo)
			s.span.Batches++
		}
		return b, nil
	}
}

// frameBatch overwrites the scan's reusable frame with window [lo, hi).
// The previous batch's selection capacity is parked in selBuf so the first
// filter pass stops allocating too.
func (s *scanOp) frameBatch(lo, hi int) *Batch {
	b := &s.frame
	if s.frameCols == nil {
		s.frameCols = make([]Vector, len(s.table.Cols))
		b.cols = make([]*Vector, len(s.table.Cols))
		for i := range s.frameCols {
			b.cols[i] = &s.frameCols[i]
		}
		b.meta = s.meta
	}
	if b.sel != nil {
		b.selBuf = b.sel[:0]
		b.sel = nil
	}
	b.n = hi - lo
	for i, c := range s.table.Cols {
		sliceInto(&s.frameCols[i], c.Vec, lo, hi)
	}
	return b
}

// markScanReuse arms frame reuse on the scan under a chain of filters; the
// caller guarantees each batch is fully consumed before the next pull.
func markScanReuse(op operator) {
	for {
		switch o := op.(type) {
		case *filterOp:
			op = o.child
		case *fusedScanOp:
			o.scan.reuse = true
			return
		case *scanOp:
			o.reuse = true
			return
		default:
			return
		}
	}
}

// dualOp emits a single one-row, zero-column batch: the FROM-less SELECT.
type dualOp struct {
	done bool
}

func (d *dualOp) schema() []colMeta { return nil }

func (d *dualOp) next() (*Batch, error) {
	if d.done {
		return nil, nil
	}
	d.done = true
	return &Batch{n: 1}, nil
}

// --- filter ------------------------------------------------------------------

// filterOp applies conjuncts one pass at a time, shrinking the batch's
// selection vector; payload columns are never copied. Batches filtered down
// to zero rows are skipped.
type filterOp struct {
	ex        *executor
	child     operator
	conjuncts []sqlparser.Expr
	span      *trace.Span // nil when tracing is off
}

func (f *filterOp) schema() []colMeta { return f.child.schema() }

func (f *filterOp) next() (*Batch, error) {
	for {
		b, err := f.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		var t0 time.Time
		if f.span != nil {
			t0 = time.Now()
		}
		if err := applyConjuncts(f.ex, b, f.conjuncts, &f.ex.stats); err != nil {
			return nil, err
		}
		if f.span != nil {
			// Every batch that enters the filter is recorded, surviving rows
			// only — the same accounting the morsel-parallel path's span
			// deltas reproduce, so traces match at every worker count.
			f.span.WallNS += time.Since(t0).Nanoseconds()
			f.span.Rows += int64(b.Len())
			f.span.Batches++
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// applyConjuncts filters a batch one conjunct pass at a time, shrinking its
// selection vector. The first pass allocates the batch's selection scratch;
// later passes compact it in place (the write index never overtakes the
// read index), so a k-conjunct filter costs one allocation, not k. Stats
// are accumulated into st so morsel workers can keep thread-local counters.
func applyConjuncts(ex *executor, b *Batch, conjuncts []sqlparser.Expr, st *Stats) error {
	if len(conjuncts) == 0 {
		return nil
	}
	ctx := &evalCtx{ex: ex, batch: b}
	for _, c := range conjuncts {
		st.FilterPasses++
		pred, err := ctx.eval(c)
		if err != nil {
			// Pushed-down conjuncts run over rows the interpreter's
			// post-join filter never evaluates; runtime errors here must
			// defer to the interpreter.
			return deferToFallback(err)
		}
		// The empty selection must stay non-nil: a nil selection vector
		// means "all rows live".
		if b.sel == nil {
			sel := b.selBuf // recycled capacity from a reused frame, if any
			if sel == nil {
				sel = make([]int, 0, b.n)
			} else {
				sel = sel[:0]
				b.selBuf = nil
			}
			for i := 0; i < b.n; i++ {
				if !pred.IsNull(i) && truthy(pred, i) {
					sel = append(sel, i)
				}
			}
			b.sel = sel
		} else {
			sel := b.sel[:0]
			for j, ri := range b.sel {
				if !pred.IsNull(j) && truthy(pred, j) {
					sel = append(sel, ri)
				}
			}
			b.sel = sel
		}
		if len(b.sel) == 0 {
			break
		}
	}
	return nil
}

// --- materialization ---------------------------------------------------------

// matOp re-emits a dense batch in fixed-size windows, bridging materialized
// intermediates (join results) back into the batch pipeline.
type matOp struct {
	ex  *executor
	b   *Batch
	pos int
}

func (m *matOp) schema() []colMeta { return m.b.meta }

func (m *matOp) next() (*Batch, error) {
	if m.pos >= m.b.n {
		return nil, nil
	}
	if err := m.ex.checkDeadline(); err != nil {
		return nil, err
	}
	hi := m.pos + m.ex.opts.BatchSize
	if hi > m.b.n {
		hi = m.b.n
	}
	out := &Batch{n: hi - m.pos, meta: m.b.meta}
	out.cols = make([]*Vector, len(m.b.cols))
	for i, c := range m.b.cols {
		out.cols[i] = c.Slice(m.pos, hi)
	}
	m.ex.stats.Batches++
	m.pos = hi
	return out, nil
}

// materialize drains a pipeline into one dense batch. An empty stream yields
// a zero-row batch with the pipeline's schema.
func materialize(op operator) (*Batch, error) {
	var batches []*Batch
	for {
		b, err := op.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		batches = append(batches, b)
	}
	if len(batches) == 0 {
		meta := op.schema()
		out := &Batch{n: 0, meta: meta}
		out.cols = make([]*Vector, len(meta))
		for i := range out.cols {
			out.cols[i] = NewNullVector(0)
		}
		return out, nil
	}
	if len(batches) == 1 {
		return batches[0].compact(), nil
	}
	return concatBatches(batches), nil
}

// --- joins -------------------------------------------------------------------

// keyVectors evaluates the key expressions over a dense batch into one
// vector per key; the hash table consumes the unboxed payloads directly.
func (ex *executor) keyVectors(b *Batch, keys []sqlparser.Expr) ([]*Vector, error) {
	ctx := &evalCtx{ex: ex, batch: b}
	vecs := make([]*Vector, len(keys))
	for i, k := range keys {
		v, err := ctx.eval(k)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	return vecs, nil
}

// hashJoin joins two dense batches on the given key expression lists,
// mirroring the interpreter's join exactly: build on the smaller side, probe
// in input order, matches in build insertion order.
func (ex *executor) hashJoin(left, right *Batch, leftKeys, rightKeys []sqlparser.Expr) (*Batch, error) {
	ex.stats.HashJoins++
	build, probe := right, left
	buildKeys, probeKeys := rightKeys, leftKeys
	swapped := false
	if left.Len() < right.Len() {
		build, probe = left, right
		buildKeys, probeKeys = leftKeys, rightKeys
		swapped = true
	}
	bVecs, err := ex.keyVectors(build, buildKeys)
	if err != nil {
		return nil, err
	}
	pVecs, err := ex.keyVectors(probe, probeKeys)
	if err != nil {
		return nil, err
	}
	var probeIdx, buildIdx []int
	if ex.parallelism() > 1 && probe.Len() >= 2*ex.opts.BatchSize {
		probeIdx, buildIdx, err = ex.parallelJoinPairs(build.Len(), probe.Len(), bVecs, pVecs)
	} else {
		probeIdx, buildIdx, err = ex.joinPairs(build.Len(), probe.Len(), bVecs, pVecs)
	}
	if err != nil {
		return nil, err
	}
	if err := ex.checkDeadline(); err != nil {
		return nil, err
	}
	leftIdx, rightIdx := probeIdx, buildIdx
	if swapped {
		leftIdx, rightIdx = buildIdx, probeIdx
	}
	out := left.gatherRows(leftIdx)
	rightPart := right.gatherRows(rightIdx)
	out.cols = append(out.cols, rightPart.cols...)
	out.meta = append(append([]colMeta(nil), left.meta...), right.meta...)
	return out, nil
}

// joinLists are the per-key build-row chains of a join table: head/tail
// index the first and last build row of each group, next links build rows
// of one key in insertion order — the order the old per-key slices kept.
type joinLists struct {
	head, tail, next []int32
}

func newJoinLists(nBuild int) joinLists {
	next := make([]int32, nBuild)
	for i := range next {
		next[i] = -1
	}
	return joinLists{next: next}
}

// insert appends build row i to group g (isNew reports first sight).
func (jl *joinLists) insert(g int, i int32, isNew bool) {
	if isNew {
		jl.head = append(jl.head, i)
		jl.tail = append(jl.tail, i)
		return
	}
	jl.next[jl.tail[g]] = i
	jl.tail[g] = i
}

// nullKeyRow reports a NULL among the join-key slots of row i. Equality
// with a NULL operand is UNKNOWN under the ternary contract
// (internal/sqlsem), so such rows can never satisfy an equi-join — they
// must be skipped on both sides, never bucketed together. Grouping and
// DISTINCT deliberately keep the opposite behaviour (NULLs collapse into
// one group); only joins use this guard.
func nullKeyRow(vecs []*Vector, i int) bool {
	for _, v := range vecs {
		if v.IsNull(i) {
			return true
		}
	}
	return false
}

// joinPairs builds the hash table over the build side and probes it in
// probe-row order, emitting the matching (probe, build) row pairs.
func (ex *executor) joinPairs(nBuild, nProbe int, bVecs, pVecs []*Vector) (probeIdx, buildIdx []int, err error) {
	ht := newHashTable(nBuild)
	kc := ht.prepare(bVecs, pVecs)
	jl := newJoinLists(nBuild)
	var buildRows, probeRows int64
	for i := 0; i < nBuild; i++ {
		if nullKeyRow(bVecs, i) {
			continue
		}
		buildRows++
		g, isNew := kc.getOrInsert(ht, bVecs, i)
		jl.insert(g, int32(i), isNew)
	}
	for i := 0; i < nProbe; i++ {
		if nullKeyRow(pVecs, i) {
			continue
		}
		probeRows++
		g := kc.lookup(ht, pVecs, i)
		if g < 0 {
			continue
		}
		for r := jl.head[g]; r >= 0; r = jl.next[r] {
			probeIdx = append(probeIdx, i)
			buildIdx = append(buildIdx, int(r))
			if len(probeIdx) > ex.opts.MaxJoinRows {
				return nil, nil, fmt.Errorf("join result exceeds %d rows", ex.opts.MaxJoinRows)
			}
		}
	}
	ex.stats.JoinBuildRows += buildRows
	ex.stats.JoinProbeRows += probeRows
	return probeIdx, buildIdx, nil
}

// crossJoin builds the cartesian product of two dense batches, guarded by
// the join-size limit.
func (ex *executor) crossJoin(left, right *Batch) (*Batch, error) {
	ex.stats.LoopJoins++
	nl, nr := left.Len(), right.Len()
	// Divide before multiplying: nl*nr can wrap around before the guard
	// comparison on pathological inputs.
	if nl > 0 && nr > 0 && nl > ex.opts.MaxJoinRows/nr {
		return nil, fmt.Errorf("cross product of %d x %d rows exceeds the %d row limit",
			nl, nr, ex.opts.MaxJoinRows)
	}
	total := nl * nr
	leftIdx := make([]int, 0, total)
	rightIdx := make([]int, 0, total)
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, j)
		}
	}
	out := left.gatherRows(leftIdx)
	rightPart := right.gatherRows(rightIdx)
	out.cols = append(out.cols, rightPart.cols...)
	out.meta = append(append([]colMeta(nil), left.meta...), right.meta...)
	return out, nil
}

// pairBatch gathers candidate (left, right) row pairs into one combined
// dense batch — left columns then right columns — the evaluation context of
// per-pair join and correlation predicates. The index slices are physical
// row indexes.
func pairBatch(left *Batch, leftIdx []int, right *Batch, rightIdx []int) *Batch {
	out := left.gatherRows(leftIdx)
	rightPart := right.gatherRows(rightIdx)
	out.cols = append(out.cols, rightPart.cols...)
	out.meta = append(append([]colMeta(nil), left.meta...), right.meta...)
	return out
}

// leftJoin implements LEFT [OUTER] JOIN over dense batches, mirroring the
// interpreter's algorithm exactly: hash the right side by the equi keys (a
// single bucket when keyless, NULL-key build rows skipped), probe the left
// rows in order, apply the residual ON conjuncts per candidate pair with
// two-valued truth, and null-extend the right columns of unmatched left
// rows.
func (ex *executor) leftJoin(left, right *Batch, leftKeys, rightKeys, residual []sqlparser.Expr) (*Batch, error) {
	nl, nr := left.Len(), right.Len()
	var rVecs, lVecs []*Vector
	var err error
	if len(rightKeys) > 0 {
		if rVecs, err = ex.keyVectors(right, rightKeys); err != nil {
			return nil, err
		}
		if lVecs, err = ex.keyVectors(left, leftKeys); err != nil {
			return nil, err
		}
	}
	buckets := map[string][]int32{}
	var buf []byte
	var buildRows int64
	for i := 0; i < nr; i++ {
		key := ""
		if rVecs != nil {
			if nullKeyRow(rVecs, i) {
				// NULL = anything is UNKNOWN: the row cannot match.
				continue
			}
			buf = encodeRowKey(buf[:0], rVecs, i)
			key = string(buf)
		}
		buildRows++
		buckets[key] = append(buckets[key], int32(i))
	}
	ex.stats.HashJoins++
	ex.stats.JoinBuildRows += buildRows
	ex.stats.JoinProbeRows += int64(nl)

	// Candidate pairs in probe order (bucket order is right-row order). A
	// NULL left key never matches; the row survives null-extended below.
	var candL, candR []int
	off := make([]int, nl+1)
	for i := 0; i < nl; i++ {
		keyNull := false
		key := ""
		if lVecs != nil {
			if nullKeyRow(lVecs, i) {
				keyNull = true
			} else {
				buf = encodeRowKey(buf[:0], lVecs, i)
				key = string(buf)
			}
		}
		if !keyNull {
			for _, ri := range buckets[key] {
				candL = append(candL, i)
				candR = append(candR, int(ri))
			}
		}
		off[i+1] = len(candL)
	}

	// Residual ON conjuncts filter the candidate pairs with two-valued
	// truth, like the interpreter's per-pair check. Evaluation errors defer
	// to the interpreter so it reports them in its own order.
	pass := make([]bool, len(candL))
	for i := range pass {
		pass[i] = true
	}
	if len(residual) > 0 && len(candL) > 0 {
		ctx := &evalCtx{ex: ex, batch: pairBatch(left, candL, right, candR)}
		for _, c := range residual {
			v, err := ctx.eval(c)
			if err != nil {
				return nil, deferToFallback(err)
			}
			for k := range pass {
				if pass[k] && (v.IsNull(k) || !truthy(v, k)) {
					pass[k] = false
				}
			}
		}
	}

	var outL, outR []int
	for i := 0; i < nl; i++ {
		matched := false
		for k := off[i]; k < off[i+1]; k++ {
			if pass[k] {
				matched = true
				outL = append(outL, candL[k])
				outR = append(outR, candR[k])
			}
		}
		if !matched {
			outL = append(outL, i)
			outR = append(outR, -1)
		}
	}
	out := left.gatherRows(outL)
	rightPart := right.gatherRowsNullable(outR)
	out.cols = append(out.cols, rightPart.cols...)
	out.meta = append(append([]colMeta(nil), left.meta...), right.meta...)
	return out, nil
}

// applyFilterBatch filters a dense batch with the conjuncts (one selection
// pass per conjunct over a single reused selection buffer) and compacts the
// result.
func (ex *executor) applyFilterBatch(b *Batch, conjuncts []sqlparser.Expr) (*Batch, error) {
	if err := applyConjuncts(ex, b, conjuncts, &ex.stats); err != nil {
		return nil, err
	}
	return b.compact(), nil
}

// --- hash aggregation --------------------------------------------------------

// aggSpec is one distinct aggregate call of the statement.
type aggSpec struct {
	call *sqlparser.FuncCall
	key  string // canonical SQL text
}

// aggAcc accumulates one aggregate for one group, mirroring the
// interpreter's fold (distinct sets, int-preserving sums, scalar min/max).
// The distinct set is a byte-keyed hash table with a reusable encoding
// buffer: seen values cost no allocation at all, new ones only grow the
// table's arena.
type aggAcc struct {
	count       int64
	sumI        int64
	sumF        float64
	sumIsInt    bool
	minV        sqlsem.Value
	maxV        sqlsem.Value
	distinct    *hashTable
	distinctBuf []byte
}

func (a *aggAcc) fold(val sqlsem.Value, distinct bool) {
	if val.IsNull() {
		return
	}
	if distinct {
		a.distinctBuf = val.AppendKey(a.distinctBuf[:0])
		if _, isNew := a.distinct.getOrInsertBytes(a.distinctBuf); !isNew {
			return
		}
	}
	a.count++
	if val.Kind == sqlsem.KindInt {
		a.sumI += val.I
	} else {
		a.sumIsInt = false
	}
	a.sumF += val.Float()
	if a.minV.Kind == sqlsem.KindNull || val.Compare(a.minV) < 0 {
		a.minV = val
	}
	if a.maxV.Kind == sqlsem.KindNull || val.Compare(a.maxV) > 0 {
		a.maxV = val
	}
}

func (a *aggAcc) finalize(name string, star bool, groupRows int64) (sqlsem.Value, error) {
	switch name {
	case "count":
		if star {
			return sqlsem.NewInt(groupRows), nil
		}
		return sqlsem.NewInt(a.count), nil
	case "sum":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		if a.sumIsInt {
			return sqlsem.NewInt(a.sumI), nil
		}
		return sqlsem.NewFloat(a.sumF), nil
	case "avg":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		return sqlsem.NewFloat(a.sumF / float64(a.count)), nil
	case "min":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		return a.minV, nil
	case "max":
		if a.count == 0 {
			return sqlsem.Null(), nil
		}
		return a.maxV, nil
	default:
		return sqlsem.Value{}, fmt.Errorf("unknown aggregate %q", name)
	}
}

// aggState is the running state of one group.
type aggState struct {
	rows   int64
	accs   []aggAcc
	firsts []sqlsem.Value
}

// aggResult is the output of hash aggregation: one logical row per group.
type aggResult struct {
	n    int
	aggs map[string]*Vector // canonical aggregate SQL -> per-group values
	refs map[string]*Vector // column reference key -> first-row values
}

// collectAggregates gathers the distinct aggregate calls of the statement's
// projection, HAVING and ORDER BY.
func collectAggregates(sp *plan.Select) ([]aggSpec, error) {
	var specs []aggSpec
	seen := map[string]bool{}
	walk := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncCall); ok && f.IsAggregate() {
				key := f.SQL()
				if !seen[key] {
					seen[key] = true
					specs = append(specs, aggSpec{call: f, key: key})
				}
				return false
			}
			return true
		})
	}
	for _, e := range sp.Items {
		walk(e)
	}
	walk(sp.Stmt.Having)
	for _, o := range sp.OrderBy {
		walk(o.Expr)
	}
	for _, s := range specs {
		name := strings.ToLower(s.call.Name)
		if s.call.Star && name != "count" {
			return nil, fmt.Errorf("%s(*) is not valid", name)
		}
		if !s.call.Star && len(s.call.Args) != 1 {
			return nil, fmt.Errorf("aggregate %s expects exactly 1 argument", name)
		}
	}
	return specs, nil
}

// collectCarriedRefs gathers the column references of projection, HAVING and
// ORDER BY that sit outside aggregate arguments; their first-row values per
// group reproduce the interpreter's "plain columns resolve against the first
// row of the group" behaviour. ORDER BY keys the plan resolved to an output
// column carry nothing.
func collectCarriedRefs(sp *plan.Select) []*sqlparser.ColumnRef {
	var refs []*sqlparser.ColumnRef
	seen := map[string]bool{}
	walk := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncCall); ok && f.IsAggregate() {
				return false
			}
			if c, ok := x.(*sqlparser.ColumnRef); ok {
				key := refKey(c.Table, c.Column)
				if !seen[key] {
					seen[key] = true
					refs = append(refs, c)
				}
			}
			return true
		})
	}
	for _, e := range sp.Items {
		walk(e)
	}
	walk(sp.Stmt.Having)
	for _, o := range sp.OrderBy {
		walk(o.Expr)
	}
	return refs
}

// newAggState allocates the accumulators of one group.
func newAggState(specs []aggSpec, carried []*sqlparser.ColumnRef) *aggState {
	st := &aggState{accs: make([]aggAcc, len(specs)), firsts: make([]sqlsem.Value, len(carried))}
	for i := range st.accs {
		st.accs[i].sumIsInt = true
		if specs[i].call.Distinct {
			st.accs[i].distinct = newByteKeyTable(8)
		}
	}
	return st
}

// aggBatchVectors evaluates the grouping keys, aggregate arguments and
// carried references over one batch.
func aggBatchVectors(ex *executor, b *Batch, stmt *sqlparser.SelectStatement, specs []aggSpec, carried []*sqlparser.ColumnRef) (keyVecs, argVecs, refVecs []*Vector, err error) {
	ctx := &evalCtx{ex: ex, batch: b}
	keyVecs = make([]*Vector, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		if keyVecs[i], err = ctx.eval(g); err != nil {
			return nil, nil, nil, err
		}
	}
	argVecs = make([]*Vector, len(specs))
	for i, s := range specs {
		if s.call.Star {
			continue
		}
		if argVecs[i], err = ctx.eval(s.call.Args[0]); err != nil {
			return nil, nil, nil, err
		}
	}
	refVecs = make([]*Vector, len(carried))
	for i, r := range carried {
		if refVecs[i], err = ctx.resolveColumn(r); err != nil {
			return nil, nil, nil, err
		}
	}
	return keyVecs, argVecs, refVecs, nil
}

// buildAggResult finalizes the per-group accumulators into the aggregate
// and carried-reference columns.
func buildAggResult(specs []aggSpec, carried []*sqlparser.ColumnRef, order []*aggState) (*aggResult, error) {
	res := &aggResult{n: len(order), aggs: map[string]*Vector{}, refs: map[string]*Vector{}}
	for ai, s := range specs {
		bld := newBuilder(len(order))
		name := strings.ToLower(s.call.Name)
		for _, st := range order {
			val, err := st.accs[ai].finalize(name, s.call.Star, st.rows)
			if err != nil {
				return nil, err
			}
			bld.append(val)
		}
		vec, err := bld.finalize()
		if err != nil {
			return nil, err
		}
		res.aggs[s.key] = vec
	}
	for ri, r := range carried {
		bld := newBuilder(len(order))
		for _, st := range order {
			bld.append(st.firsts[ri])
		}
		vec, err := bld.finalize()
		if err != nil {
			return nil, err
		}
		res.refs[refKey(r.Table, r.Column)] = vec
	}
	return res, nil
}

// hashAggregate drains the pipeline into per-group accumulators: the
// streaming pipeline breaker of grouped queries. Groups live in the typed
// hash table — dense ids in first-seen order index the order slice
// directly — so the per-row cost is one unboxed hash probe, not a string
// key build. With intra-query parallelism enabled and a morsel-splittable
// pipeline below, the work fans out across the morsel pool instead.
func (ex *executor) hashAggregate(child operator, sp *plan.Select) (*aggResult, error) {
	stmt := sp.Stmt
	specs, err := collectAggregates(sp)
	if err != nil {
		return nil, err
	}
	carried := collectCarriedRefs(sp)

	if ex.parallelism() > 1 {
		// Single-morsel inputs skip the 3-phase machinery: its thread-local
		// tables and remap passes only pay off with morsels to fan out.
		if src, layers, ok := splitPipeline(child); ok && src.rows > ex.opts.BatchSize {
			return ex.parallelHashAggregate(src, layers, stmt, specs, carried)
		}
	}

	// The serial drain fully consumes each batch before pulling the next
	// and retains only boxed scalars, so the scan can recycle one frame.
	markScanReuse(child)

	ht := newHashTable(64)
	var order []*aggState
	if len(stmt.GroupBy) == 0 {
		// Aggregates without GROUP BY form one global group even over an
		// empty input.
		order = append(order, newAggState(specs, carried))
	}

	for {
		b, err := child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := ex.checkDeadline(); err != nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		ex.stats.AggRows += int64(n)
		keyVecs, argVecs, refVecs, err := aggBatchVectors(ex, b, stmt, specs, carried)
		if err != nil {
			return nil, err
		}
		var kc keyCoder
		if len(stmt.GroupBy) > 0 {
			kc = ht.prepare(keyVecs)
		}
		for j := 0; j < n; j++ {
			var st *aggState
			if len(stmt.GroupBy) == 0 {
				st = order[0]
			} else {
				g, isNew := kc.getOrInsert(ht, keyVecs, j)
				if isNew {
					st = newAggState(specs, carried)
					order = append(order, st)
					for ri, rv := range refVecs {
						st.firsts[ri] = rv.At(j)
					}
				} else {
					st = order[g]
				}
			}
			if len(stmt.GroupBy) == 0 && st.rows == 0 {
				for ri, rv := range refVecs {
					st.firsts[ri] = rv.At(j)
				}
			}
			st.rows++
			for ai := range specs {
				if specs[ai].call.Star {
					continue
				}
				st.accs[ai].fold(argVecs[ai].At(j), specs[ai].call.Distinct)
			}
		}
	}
	ex.stats.Groups += int64(len(order))
	return buildAggResult(specs, carried, order)
}
