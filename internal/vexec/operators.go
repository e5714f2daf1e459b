package vexec

import (
	"strings"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
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

// scanOp emits fixed-size windows over a typed base table, pruned to the
// columns the statement references (plan.Select.Needed): an unreferenced
// column is never carried, and a table nothing reads scans as bare row
// counts. The windows are zero-copy slices of the carried vectors, which
// full holds at table length — the source that filtered materialization,
// morsel windows and the fused scan's closures read. With zone predicates attached
// (pushed-down conjuncts over a block-aligned batch size) each window is
// split into its maximal runs of satisfiable blocks and the rest is never
// read; the same run segmentation is reproduced by the morsel-parallel
// path, so stats and traces stay identical at every worker count.
type scanOp struct {
	ex     *executor
	table  *Table
	alias  string
	full   *Batch
	pos    int
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

// newScanOp scans t under alias, carrying the columns named in needed ("*"
// keeps all, nil none). Zone predicates index the table's own ordinals, not
// the carried ones.
func newScanOp(ex *executor, t *Table, alias string, needed map[string]bool) *scanOp {
	if alias == "" {
		alias = t.Name
	}
	full := newBatch(t.NumRows())
	for _, c := range t.Cols {
		if needed["*"] || needed[strings.ToLower(c.Name)] {
			full.addCol(alias, c.Name, c.Vec)
		}
	}
	return &scanOp{ex: ex, table: t, alias: alias, full: full}
}

func (s *scanOp) schema() []colMeta { return s.full.meta }

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
		var b *Batch
		if s.reuse {
			b = s.frameBatch(lo, hi)
		} else {
			b = s.full.window(lo, hi)
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
	if b.cols == nil {
		s.frameCols = make([]Vector, len(s.full.cols))
		b.cols = make([]*Vector, len(s.full.cols))
		for i := range s.frameCols {
			b.cols[i] = &s.frameCols[i]
		}
		b.meta = s.full.meta
	}
	if b.sel != nil {
		b.selBuf = b.sel[:0]
		b.sel = nil
	}
	b.n, b.base = hi-lo, lo
	for i, c := range s.full.cols {
		sliceInto(&s.frameCols[i], c, lo, hi)
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
func applyConjuncts(ex *executor, b *Batch, conjuncts []sqlparser.Expr, st *plan.Stats) error {
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

// matOp re-emits a materialized batch (a join result, a derived table) in
// fixed-size windows, bridging it back into the batch pipeline; a view is
// windowed by slicing its row ids, so nothing is gathered here.
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
	out := m.b.window(m.pos, hi)
	m.ex.stats.Batches++
	m.pos = hi
	return out, nil
}

// pipelineSource returns the full-length batch a pipeline's windows are cut
// from — every pipeline is filter layers over one — and whether any layer
// filters it.
func pipelineSource(op operator) (src *Batch, filtered bool) {
	for {
		switch o := op.(type) {
		case *filterOp:
			filtered = true
			op = o.child
		case *fusedScanOp:
			return o.scan.full, true
		case *scanOp:
			return o.full, filtered
		case *matOp:
			return o.b, filtered
		default: // dualOp: the one row of a FROM-less SELECT
			return newBatch(1), filtered
		}
	}
}

// materialize drains a pipeline into one batch: the pipeline's source with
// the concatenated selection of its filter layers as row ids. No column is
// copied; an unfiltered pipeline yields its source itself. An empty stream
// yields a zero-row batch with the pipeline's schema.
func materialize(op operator) (*Batch, error) {
	src, filtered := pipelineSource(op)
	// Each window's selection is copied out before the next pull.
	markScanReuse(op)
	var ids []int32
	for {
		b, err := op.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if filtered {
			ids = appendRowIDs(ids, b)
		}
	}
	if !filtered {
		return src.selected(nil, src.n), nil
	}
	return src.selected(ids, len(ids)), nil
}

// --- joins -------------------------------------------------------------------

// keyVectors evaluates the key expressions over a batch into one vector per
// key; the hash table consumes the unboxed payloads directly.
func (ex *executor) keyVectors(b *Batch, keys []sqlparser.Expr) ([]*Vector, error) {
	return (&evalCtx{ex: ex, batch: b}).evalAppend(nil, keys)
}

// hashJoin joins two batches on the given key expression lists, mirroring
// the interpreter's join exactly: build on the smaller side, probe in input
// order, matches in build insertion order. Only the key columns are read;
// the output is a view over the inputs' sources.
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
	var probeIdx, buildIdx []int32
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
	return joinView(left, leftIdx, right, rightIdx, false), nil
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
func (ex *executor) joinPairs(nBuild, nProbe int, bVecs, pVecs []*Vector) (probeIdx, buildIdx []int32, err error) {
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
			probeIdx = append(probeIdx, int32(i))
			buildIdx = append(buildIdx, r)
			if err := ex.opts.Limits.JoinRows(len(probeIdx)); err != nil {
				return nil, nil, err
			}
		}
	}
	ex.stats.JoinBuildRows += buildRows
	ex.stats.JoinProbeRows += probeRows
	return probeIdx, buildIdx, nil
}

// crossJoin builds the cartesian product of two batches, guarded by the
// join-size limit.
func (ex *executor) crossJoin(left, right *Batch) (*Batch, error) {
	ex.stats.LoopJoins++
	nl, nr := left.Len(), right.Len()
	if err := ex.opts.Limits.CrossJoin(nl, nr); err != nil {
		return nil, err
	}
	total := nl * nr
	leftIdx := make([]int32, 0, total)
	rightIdx := make([]int32, 0, total)
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			leftIdx = append(leftIdx, int32(i))
			rightIdx = append(rightIdx, int32(j))
		}
	}
	return joinView(left, leftIdx, right, rightIdx, false), nil
}

// leftJoin implements LEFT [OUTER] JOIN, mirroring the interpreter's
// algorithm exactly: hash the right side by the equi keys (every right row a
// candidate when keyless, NULL-key build rows skipped), probe the left rows
// in order, apply the residual ON conjuncts per candidate pair with
// two-valued truth, and null-extend the right columns of unmatched left
// rows (row id -1).
func (ex *executor) leftJoin(left, right *Batch, leftKeys, rightKeys, residual []sqlparser.Expr) (*Batch, error) {
	nl, nr := left.Len(), right.Len()
	// Candidate pairs in probe order, each left row's in right-row order. A
	// NULL key on either side never matches (NULL = anything is UNKNOWN);
	// such a left row survives null-extended below.
	var candL, candR []int32
	off := make([]int, nl+1)
	buildRows := int64(nr)
	if len(rightKeys) == 0 {
		for i := 0; i < nl; i++ {
			for r := 0; r < nr; r++ {
				candL = append(candL, int32(i))
				candR = append(candR, int32(r))
			}
			off[i+1] = len(candL)
		}
	} else {
		rVecs, err := ex.keyVectors(right, rightKeys)
		if err != nil {
			return nil, err
		}
		lVecs, err := ex.keyVectors(left, leftKeys)
		if err != nil {
			return nil, err
		}
		ht := newHashTable(nr)
		kc := ht.prepare(rVecs, lVecs)
		jl := newJoinLists(nr)
		buildRows = 0
		for i := 0; i < nr; i++ {
			if nullKeyRow(rVecs, i) {
				continue
			}
			buildRows++
			g, isNew := kc.getOrInsert(ht, rVecs, i)
			jl.insert(g, int32(i), isNew)
		}
		for i := 0; i < nl; i++ {
			if !nullKeyRow(lVecs, i) {
				if g := kc.lookup(ht, lVecs, i); g >= 0 {
					for r := jl.head[g]; r >= 0; r = jl.next[r] {
						candL = append(candL, int32(i))
						candR = append(candR, r)
					}
				}
			}
			off[i+1] = len(candL)
		}
	}
	ex.stats.HashJoins++
	ex.stats.JoinBuildRows += buildRows
	ex.stats.JoinProbeRows += int64(nl)

	// Residual ON conjuncts filter the candidate pairs with two-valued
	// truth, like the interpreter's per-pair check. Evaluation errors defer
	// to the interpreter so it reports them in its own order.
	pass, err := ex.pairsPassing(left, candL, right, candR, residual)
	if err != nil {
		return nil, err
	}
	var outL, outR []int32
	for i := 0; i < nl; i++ {
		matched := false
		for k := off[i]; k < off[i+1]; k++ {
			if pass == nil || pass[k] {
				matched = true
				outL = append(outL, candL[k])
				outR = append(outR, candR[k])
			}
		}
		if !matched {
			outL = append(outL, int32(i))
			outR = append(outR, -1)
		}
	}
	return joinView(left, outL, right, outR, true), nil
}

// pairsPassing evaluates per-pair conjuncts (residual ON conditions, the
// non-equi correlation predicates of a sub-query) over the view of candidate
// (left, right) row pairs — left columns then right columns — and reports
// which pairs every conjunct accepts; nil means all. Only the columns the
// conjuncts name are gathered.
func (ex *executor) pairsPassing(left *Batch, leftIdx []int32, right *Batch, rightIdx []int32, conjuncts []sqlparser.Expr) ([]bool, error) {
	if len(conjuncts) == 0 || len(leftIdx) == 0 {
		return nil, nil
	}
	ctx := &evalCtx{ex: ex, batch: joinView(left, leftIdx, right, rightIdx, false)}
	pass := make([]bool, len(leftIdx))
	for i := range pass {
		pass[i] = true
	}
	for _, c := range conjuncts {
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
	return pass, nil
}

// applyFilterBatch filters a batch with the conjuncts (one selection pass
// per conjunct over a single reused selection buffer) and returns the
// survivors as a view.
func (ex *executor) applyFilterBatch(b *Batch, conjuncts []sqlparser.Expr) (*Batch, error) {
	if err := applyConjuncts(ex, b, conjuncts, &ex.stats); err != nil {
		return nil, err
	}
	if b.sel == nil {
		return b, nil
	}
	ids := appendRowIDs(nil, b)
	b.sel = nil
	return b.take(ids), nil
}
