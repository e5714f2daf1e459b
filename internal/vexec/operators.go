package vexec

import (
	"fmt"
	"strings"
	"time"

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
