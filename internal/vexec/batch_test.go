package vexec

import (
	"fmt"
	"math/rand"
	"testing"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// This file keeps the join layer as it was before late materialization as
// the oracle of the view batches: every drained input a dense copy, every
// join step a gather of all columns of both sides, LEFT JOIN and the
// sub-query probe hashing through map[string], pair predicates over a
// full-width pair batch. The oracle shares with the executor what late
// materialization did not touch — scans (unpruned here), filters, expression
// evaluation, the inner joins' typed key hashing — so any difference in an
// output vector or a counter is the views'.

// --- the eager helpers, verbatim ------------------------------------------------

// compact applies the selection vector, turning the batch into a dense one.
func (b *Batch) compact() *Batch {
	if b.sel == nil {
		return b
	}
	out := &Batch{n: len(b.sel), meta: b.meta}
	out.cols = make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		out.cols[i] = c.Gather(b.sel)
	}
	return out
}

// gatherRows builds a dense batch containing the given physical row indexes.
func (b *Batch) gatherRows(rows []int) *Batch {
	out := &Batch{n: len(rows), meta: b.meta}
	out.cols = make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		out.cols[i] = c.Gather(rows)
	}
	return out
}

// gatherRowsNullable is gatherRows with index -1 producing an all-NULL row —
// the null-extension of outer joins.
func (b *Batch) gatherRowsNullable(rows []int) *Batch {
	ids := make([]int32, len(rows))
	for i, r := range rows {
		ids[i] = int32(r)
	}
	out := &Batch{n: len(rows), meta: b.meta}
	out.cols = make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		out.cols[i] = gatherNullable(c, ids)
	}
	return out
}

// concatBatches stitches dense copies of the batches into one dense batch.
func concatBatches(batches []*Batch) *Batch {
	first := batches[0]
	total := 0
	for _, b := range batches {
		total += b.Len()
	}
	out := &Batch{n: total, meta: first.meta}
	out.cols = make([]*Vector, len(first.cols))
	chunks := make([]*Vector, len(batches))
	for ci := range first.cols {
		for bi, b := range batches {
			chunks[bi] = b.dense(ci)
		}
		out.cols[ci] = concatVectors(chunks, total)
	}
	return out
}

// pairBatch gathers candidate (left, right) row pairs into one combined
// dense batch — left columns then right columns.
func pairBatch(left *Batch, leftIdx []int, right *Batch, rightIdx []int) *Batch {
	return appendCols(left.gatherRows(leftIdx), right.gatherRows(rightIdx))
}

func appendCols(out, right *Batch) *Batch {
	out.cols = append(out.cols, right.cols...)
	out.meta = append(append([]colMeta(nil), out.meta...), right.meta...)
	return out
}

// denseCopy reads every column of a (view) batch into a dense one.
func denseCopy(b *Batch) *Batch {
	out := &Batch{n: b.n, meta: b.meta, cols: make([]*Vector, len(b.meta))}
	for i := range out.cols {
		out.cols[i] = b.col(i)
	}
	return out
}

// --- the eager join layer -------------------------------------------------------

type eager struct{ ex *executor }

func (o eager) materialize(op operator) (*Batch, error) {
	var batches []*Batch
	for {
		b, err := op.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		batches = append(batches, b.compact())
	}
	if len(batches) == 0 {
		return emptyBatch(op.schema()), nil
	}
	return concatBatches(batches), nil
}

func (o eager) input(in *plan.Input) (operator, error) {
	ex := o.ex
	switch {
	case in.Join != nil:
		b, err := o.joinBatch(in.Join)
		if err != nil {
			return nil, err
		}
		return &matOp{ex: ex, b: b}, nil
	case in.Derived != nil:
		b, err := ex.runBatch(in.Derived, in.Schema)
		if err != nil {
			return nil, err
		}
		return &matOp{ex: ex, b: b}, nil
	default:
		table, err := ex.cat.VTable(in.Table)
		if err != nil {
			return nil, err
		}
		return newScanOp(ex, table, in.Alias, map[string]bool{"*": true}), nil
	}
}

func (o eager) from(sp *plan.Select) (*Batch, error) {
	ex := o.ex
	if len(sp.From) == 0 {
		return o.materialize(ex.residualFilter(&dualOp{}, sp))
	}
	mats := make([]*Batch, len(sp.From))
	for i, in := range sp.From {
		p, err := o.input(in)
		if err != nil {
			return nil, err
		}
		if len(sp.VexecPushdown[i]) > 0 {
			if sc, ok := p.(*scanOp); ok && ex.opts.BatchSize%ZoneBlockRows == 0 {
				sc.zones = sc.table.ZonePreds(sc.alias, sp.VexecPushdown[i])
			}
			p = ex.filter(p, sp.VexecPushdown[i], nil)
		}
		if len(sp.From) == 1 {
			return o.materialize(ex.residualFilter(p, sp))
		}
		if mats[i], err = o.materialize(p); err != nil {
			return nil, err
		}
	}
	cur := mats[0]
	for _, step := range sp.JoinSteps {
		var err error
		if step.Cross {
			cur, err = o.crossJoin(cur, mats[step.Right])
		} else {
			cur, err = o.hashJoin(cur, mats[step.Right], step.LeftKeys, step.RightKeys)
		}
		if err != nil {
			return nil, err
		}
	}
	return o.materialize(ex.residualFilter(&matOp{ex: ex, b: cur}, sp))
}

func (o eager) joinBatch(j *plan.Join) (*Batch, error) {
	var sides [2]*Batch
	for i, in := range []*plan.Input{j.Left, j.Right} {
		op, err := o.input(in)
		if err != nil {
			return nil, err
		}
		if sides[i], err = o.materialize(op); err != nil {
			return nil, err
		}
	}
	left, right := sides[0], sides[1]
	switch j.Kind {
	case "CROSS":
		return o.crossJoin(left, right)
	case "INNER":
		if len(j.LeftKeys) == 0 {
			o.ex.stats.LoopJoins++
			joined, err := o.crossJoin(left, right)
			if err != nil {
				return nil, err
			}
			return o.filterBatch(joined, j.AllConds)
		}
		joined, err := o.hashJoin(left, right, j.LeftKeys, j.RightKeys)
		if err != nil || len(j.Residual) == 0 {
			return joined, err
		}
		return o.filterBatch(joined, j.Residual)
	default:
		return o.leftJoin(left, right, j.LeftKeys, j.RightKeys, j.Residual)
	}
}

func (o eager) filterBatch(b *Batch, conjuncts []sqlparser.Expr) (*Batch, error) {
	if err := applyConjuncts(o.ex, b, conjuncts, &o.ex.stats); err != nil {
		return nil, err
	}
	return b.compact(), nil
}

func ints(ids []int32) []int {
	out := make([]int, len(ids))
	for i, r := range ids {
		out[i] = int(r)
	}
	return out
}

func (o eager) hashJoin(left, right *Batch, leftKeys, rightKeys []sqlparser.Expr) (*Batch, error) {
	ex := o.ex
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
	probeIdx, buildIdx, err := ex.joinPairs(build.Len(), probe.Len(), bVecs, pVecs)
	if err != nil {
		return nil, err
	}
	leftIdx, rightIdx := probeIdx, buildIdx
	if swapped {
		leftIdx, rightIdx = buildIdx, probeIdx
	}
	return pairBatch(left, ints(leftIdx), right, ints(rightIdx)), nil
}

func (o eager) crossJoin(left, right *Batch) (*Batch, error) {
	o.ex.stats.LoopJoins++
	nl, nr := left.Len(), right.Len()
	if err := o.ex.opts.Limits.CrossJoin(nl, nr); err != nil {
		return nil, err
	}
	var leftIdx, rightIdx []int
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, j)
		}
	}
	return pairBatch(left, leftIdx, right, rightIdx), nil
}

// leftJoin is the string-keyed LEFT JOIN: buckets of right rows per encoded
// key (one bucket when keyless), candidates in probe order.
func (o eager) leftJoin(left, right *Batch, leftKeys, rightKeys, residual []sqlparser.Expr) (*Batch, error) {
	ex := o.ex
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
	var buildRows int64
	for i := 0; i < nr; i++ {
		key := ""
		if rVecs != nil {
			if nullKeyRow(rVecs, i) {
				continue
			}
			key = string(encodeRowKey(nil, rVecs, i))
		}
		buildRows++
		buckets[key] = append(buckets[key], int32(i))
	}
	ex.stats.HashJoins++
	ex.stats.JoinBuildRows += buildRows
	ex.stats.JoinProbeRows += int64(nl)

	var candL, candR []int
	off := make([]int, nl+1)
	for i := 0; i < nl; i++ {
		key, keyNull := "", false
		if lVecs != nil {
			if keyNull = nullKeyRow(lVecs, i); !keyNull {
				key = string(encodeRowKey(nil, lVecs, i))
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
	return appendCols(left.gatherRows(outL), right.gatherRowsNullable(outR)), nil
}

// eagerCandidates is the string-keyed sub-query probe: the inner rows
// grouped per encoded inner key in a map, pair conjuncts over a full-width
// pair batch of dense copies.
func eagerCandidates(ctx *evalCtx, as *applyState, innerKeys []sqlparser.Expr) (cand, off []int32, err error) {
	inner := denseCopy(as.inner)
	innerVecs, err := ctx.ex.keyVectors(inner, innerKeys)
	if err != nil {
		return nil, nil, err
	}
	groups := map[string][]int32{}
	for i := 0; i < inner.n; i++ {
		if !nullKeyRow(innerVecs, i) {
			key := string(encodeRowKey(nil, innerVecs, i))
			groups[key] = append(groups[key], int32(i))
		}
	}
	b := ctx.batch
	n := b.Len()
	keyVecs, err := ctx.evalAppend(nil, as.outerKeys)
	if err != nil {
		return nil, nil, err
	}
	off = make([]int32, n+1)
	var outerIdx, innerIdx []int
	for i := 0; i < n; i++ {
		if !nullKeyRow(keyVecs, i) {
			for _, r := range groups[string(encodeRowKey(nil, keyVecs, i))] {
				outerIdx = append(outerIdx, b.physRow(i))
				innerIdx = append(innerIdx, int(r))
			}
		}
		off[i+1] = int32(len(innerIdx))
	}
	pass := make([]bool, len(innerIdx))
	for i := range pass {
		pass[i] = true
	}
	if len(as.pairConjuncts) > 0 && len(innerIdx) > 0 {
		outer := &Batch{n: b.n, meta: b.meta, cols: make([]*Vector, len(b.meta))}
		for i := range outer.cols {
			outer.cols[i] = b.col(i)
		}
		pctx := &evalCtx{ex: ctx.ex, batch: pairBatch(outer, outerIdx, inner, innerIdx)}
		for _, c := range as.pairConjuncts {
			v, err := pctx.eval(c)
			if err != nil {
				return nil, nil, err
			}
			for k := range pass {
				if pass[k] && (v.IsNull(k) || !truthy(v, k)) {
					pass[k] = false
				}
			}
		}
	}
	newOff := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for k := off[i]; k < off[i+1]; k++ {
			if pass[k] {
				cand = append(cand, int32(innerIdx[k]))
			}
		}
		newOff[i+1] = int32(len(cand))
	}
	return cand, newOff, nil
}

// --- the property test ----------------------------------------------------------

// viewCatalog draws a fact table f and five dimensions d1..d5 whose columns
// cover the storage shapes a gather must carry through: sequential and
// NULL-heavy ints, dates, bools, duality-masked and plain floats,
// dictionary-coded and raw strings, a typed all-NULL column and a KindNull
// one. Keys collide, miss and are NULL, so joins fan out, drop rows and
// skip NULL keys; the chain f.k1 = d1.k, d1.j = d2.k, ... d4.j = d5.k and
// the star f.k2 = d2.k are all joinable.
func viewCatalog(rng *rand.Rand, factRows, dimRows int) mapCatalog {
	key := func(n, domain, nullEvery int) *Vector {
		v := NewVector(sqlsem.KindInt, n)
		for i := range v.Ints {
			if v.Ints[i] = int64(rng.Intn(domain)); nullEvery > 0 && rng.Intn(nullEvery) == 0 {
				v.SetNull(i)
			}
		}
		return v
	}
	allNull := NewVector(sqlsem.KindInt, factRows)
	for i := 0; i < factRows; i++ {
		allNull.SetNull(i)
	}
	raw := NewVector(sqlsem.KindString, factRows)
	for i := range raw.Strs {
		raw.Strs[i] = fmt.Sprintf("r%d", rng.Intn(factRows))
	}
	// Raw strings stay raw only above the dictionary threshold; the caller
	// lowers DictMaxCardinality around NewTable for this one column's sake.
	cat := mapCatalog{"f": NewTable("f",
		TableColumn{Name: "id", Vec: intVec(seq(factRows)...)},
		TableColumn{Name: "k1", Vec: key(factRows, dimRows+dimRows/4, 7)},
		TableColumn{Name: "k2", Vec: key(factRows, dimRows, 0)},
		TableColumn{Name: "dt", Vec: randomVector(rng, shapeDate, factRows, 5)},
		TableColumn{Name: "bo", Vec: randomVector(rng, shapeBool, factRows, 9)},
		TableColumn{Name: "du", Vec: randomVector(rng, shapeDual, factRows, 4)},
		TableColumn{Name: "fl", Vec: randomVector(rng, shapeFloat, factRows, 3)},
		TableColumn{Name: "s", Vec: randomVector(rng, shapeDictA, factRows, 6)},
		TableColumn{Name: "rs", Vec: raw},
		TableColumn{Name: "an", Vec: allNull},
		TableColumn{Name: "nk", Vec: NewNullVector(factRows)},
		TableColumn{Name: "unread", Vec: randomVector(rng, shapeFloat, factRows, 2)},
	)}
	for d := 1; d <= 5; d++ {
		shape := []vecShape{shapeDual, shapeDictB, shapeFloat, shapeDate, shapeInt}[d-1]
		cat[fmt.Sprintf("d%d", d)] = NewTable(fmt.Sprintf("d%d", d),
			TableColumn{Name: "k", Vec: key(dimRows, dimRows, 11)},
			TableColumn{Name: "j", Vec: key(dimRows, dimRows, 13)},
			TableColumn{Name: "p", Vec: randomVector(rng, shape, dimRows, 3)},
			TableColumn{Name: "s", Vec: randomVector(rng, shapeDictA, dimRows, 4)},
			TableColumn{Name: "fl", Vec: randomVector(rng, shapeFloat, dimRows, 5)},
			TableColumn{Name: "unread", Vec: randomVector(rng, shapeStr, dimRows, 2)},
		)
	}
	return cat
}

// viewShapes are the FROM-layer shapes under test: 2- to 6-input chains,
// cross joins, explicit INNER/LEFT joins with and without keys and
// residuals, derived inputs, filters above joins (sub-query probes with pair
// conjuncts among them), star projections and inputs nothing reads.
var viewShapes = []string{
	"SELECT id, s, fl FROM f WHERE id >= 1100 AND id < 5000 AND fl > 0",
	"SELECT id, dt FROM f",
	"SELECT f.id, f.s, f.du, d1.p FROM f, d1 WHERE f.k1 = d1.k AND f.id > 40",
	"SELECT f.id, f.rs, d1.s, d2.p FROM f, d1, d2 WHERE f.k1 = d1.k AND d1.j = d2.k AND (f.fl > d2.fl OR d1.p IS NULL)",
	"SELECT f.bo, d1.p, d2.p, d3.p FROM f, d1, d2, d3 WHERE f.k1 = d1.k AND d1.j = d2.k AND d2.j = d3.k AND d3.fl > 0",
	"SELECT f.dt, d1.s, d3.fl, d5.p FROM f, d1, d2, d3, d4, d5 WHERE f.k1 = d1.k AND d1.j = d2.k AND d2.j = d3.k AND d3.j = d4.k AND d4.j = d5.k",
	"SELECT f.id, d2.p, d4.p FROM f, d1, d2, d3, d4 WHERE f.k1 = d1.k AND f.k2 = d2.k AND d1.j = d3.k AND d3.j = d4.k AND f.id < 3000 AND d4.s <> 'b'",
	"SELECT * FROM f, d1 WHERE f.k1 = d1.k AND f.id < 700",
	"SELECT d1.*, f.id FROM f, d1 WHERE f.k2 = d1.j AND d1.fl > 0",
	"SELECT count(*) FROM d1, d2",
	"SELECT d1.p, d2.s FROM d1, d2 WHERE d1.fl > 1 AND d2.fl > 1",
	"SELECT count(*) FROM f, d1 WHERE f.id < 40",
	"SELECT f.id, d1.p FROM f, d1 WHERE f.an = d1.k",
	"SELECT f.id, d1.p FROM f, d1 WHERE f.nk = d1.k",
	"SELECT f.id, d3.fl FROM f, d3 WHERE f.du = d3.k",
	"SELECT f.id, d1.fl FROM f, d1 WHERE f.s = d1.s AND f.id < 300",
	"SELECT f.id, d2.s FROM f, d2 WHERE f.s = d2.p AND f.id < 300",
	"SELECT f.id, f.fl, d1.p, d1.fl FROM f LEFT JOIN d1 ON f.k1 = d1.k AND d1.fl > f.fl WHERE f.id < 2500",
	"SELECT f.id, d1.s FROM f LEFT JOIN d1 ON f.k1 = d1.k",
	"SELECT d1.k, d2.p FROM d1 LEFT JOIN d2 ON d1.fl < d2.fl AND d2.k < 9",
	"SELECT f.id, d1.p, d2.s FROM f JOIN d1 ON f.k1 = d1.k AND f.fl < d1.fl LEFT JOIN d2 ON d2.k = d1.j AND d2.s <> f.s",
	"SELECT d1.p, d2.p FROM d1 JOIN d2 ON d1.fl < d2.fl WHERE d1.k < 12",
	"SELECT f.id, x.c, d2.p FROM f, (SELECT k, count(*) AS c, max(fl) AS m FROM d1 GROUP BY k) x, d2 WHERE f.k1 = x.k AND f.k2 = d2.k AND (x.m > d2.fl OR x.c > 1)",
	"SELECT f.id, d1.p FROM f, d1 WHERE f.k1 = d1.k AND EXISTS (SELECT * FROM d2 WHERE d2.k = f.k2 AND d2.fl <> d1.fl)",
	"SELECT f.id, d1.s FROM f, d1 WHERE f.k1 = d1.k AND f.k2 NOT IN (SELECT d3.j FROM d3 WHERE d3.k = d1.j AND d3.fl > f.fl)",
	"SELECT f.id FROM f, d1 WHERE f.k1 = d1.k AND d1.fl < (SELECT max(d4.fl) FROM d4 WHERE d4.k = f.k2)",
	"SELECT 1",
}

func newTestExecutor(cat Catalog, p *plan.Plan, opts Options) *executor {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	return &executor{cat: cat, opts: opts, p: p, subs: map[*sqlparser.SelectStatement]*subState{}}
}

// sameVector holds got to want in everything a consumer can observe: kind,
// length, duality mask, dictionary identity, and NULL-ness and payload row
// for row (bit for bit).
func sameVector(t *testing.T, label string, got, want *Vector) {
	t.Helper()
	if got.Kind != want.Kind || got.Len() != want.Len() || (got.IsInt != nil) != (want.IsInt != nil) || got.Dict != want.Dict {
		t.Fatalf("%s: kind %v len %d dual %v dict %p, want kind %v len %d dual %v dict %p", label,
			got.Kind, got.Len(), got.IsInt != nil, got.Dict, want.Kind, want.Len(), want.IsInt != nil, want.Dict)
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) || !scalarEqual(got.At(i), want.At(i)) {
			t.Fatalf("%s: row %d = %#v, want %#v", label, i, got.At(i), want.At(i))
		}
	}
}

// sameColumns holds every column of the (pruned, view) batch got to the
// column of the same name in the (unpruned, dense) oracle batch want.
func sameColumns(t *testing.T, label string, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() || got.sel != nil {
		t.Fatalf("%s: %d rows (sel %v), want %d", label, got.Len(), got.sel != nil, want.Len())
	}
	for i, m := range got.meta {
		j, err := want.findColumn(m.table, m.name)
		if err != nil {
			t.Fatalf("%s: column %s.%s: %v", label, m.table, m.name, err)
		}
		sameVector(t, fmt.Sprintf("%s: %s.%s", label, m.table, m.name), got.col(i), want.cols[j])
	}
}

// TestViewsMatchEagerOracle drives every shape through the executor's FROM
// layer and through the eager oracle, at batch sizes 1, 1024 and 4096,
// Parallelism 1 and 8, fused and not, and holds every output vector and
// every counter to the oracle's; the result is then re-windowed through
// matOp under a selection and held to the oracle once more.
func TestViewsMatchEagerOracle(t *testing.T) {
	for _, bs := range []int{1, 1024, 4096} {
		factRows, dimRows := 9000, 180
		if bs == 1 {
			factRows, dimRows = 500, 40 // one-row batches: keep the pull count sane
		}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			saved := DictMaxCardinality
			DictMaxCardinality = 64 // f.rs stays raw, the low-cardinality strings encode
			cat := viewCatalog(rng, factRows, dimRows)
			DictMaxCardinality = saved
			for _, sql := range viewShapes {
				p, err := plan.Build(cat, sql)
				if err != nil || !p.Vectorizable {
					t.Fatalf("%s: %v %s", sql, err, p.NotVectorizableReason)
				}
				ox := newTestExecutor(cat, p, Options{BatchSize: bs})
				if err := ox.prepareSubqueries(p.Root.Stmt); err != nil {
					t.Fatalf("%s: oracle sub-queries: %v", sql, err)
				}
				want, err := eager{ox}.from(p.Root)
				if err != nil {
					t.Fatalf("%s: oracle: %v", sql, err)
				}
				for _, par := range []int{1, 8} {
					for _, fused := range []bool{false, true} {
						label := fmt.Sprintf("%s [bs=%d seed=%d p=%d fused=%v]", sql, bs, seed, par, fused)
						ex := newTestExecutor(cat, p, Options{BatchSize: bs, Parallelism: par, Fused: fused})
						if err := ex.prepareSubqueries(p.Root.Stmt); err != nil {
							t.Fatalf("%s: sub-queries: %v", label, err)
						}
						pipe, err := ex.buildFrom(p.Root)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got, err := ex.materializeOp(pipe)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameColumns(t, label, got, want)
						gs, ws := ex.stats, ox.stats
						if fused {
							gs.FilterPasses, ws.FilterPasses = 0, 0 // fused conjuncts run per row, uncounted by design
						}
						if gs != ws {
							t.Errorf("%s: stats %+v, oracle %+v", label, gs, ws)
						}
						rewindow(t, label, ex, got, want)
					}
				}
			}
		}
	}
}

// rewindow re-emits a materialized (view) batch through matOp, puts every
// window under a selection of its odd rows and holds the live columns to the
// oracle's rows.
func rewindow(t *testing.T, label string, ex *executor, got, want *Batch) {
	t.Helper()
	m := &matOp{ex: ex, b: got}
	for pos := 0; ; {
		w, err := m.next()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if w == nil {
			if pos != want.Len() {
				t.Fatalf("%s: windows cover %d rows of %d", label, pos, want.Len())
			}
			return
		}
		// Odd rows live; a window of one row stays unselected. Every other
		// column is read before the selection lands, so both routes of dense
		// run: a gather of the memoised column and one straight from the source.
		rows := seqInts(pos, w.n)
		var sel []int
		for r := 1; r < w.n; r += 2 {
			sel = append(sel, r)
		}
		for i := 0; i < len(w.meta); i += 2 {
			w.col(i)
		}
		if sel != nil {
			w.sel = sel
			for k, r := range sel {
				rows[k] = pos + r
			}
			rows = rows[:len(sel)]
		}
		live := want.gatherRows(rows)
		for i, meta := range w.meta {
			j, _ := want.findColumn(meta.table, meta.name)
			sameVector(t, fmt.Sprintf("%s: window at %d: %s.%s", label, pos, meta.table, meta.name), w.dense(i), live.cols[j])
		}
		pos += w.n
	}
}

func seqInts(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// TestApplyCandidatesMatchEagerProbe holds the typed sub-query probe — build
// hashed by the inner keys alone, outer keys of any kind probing it, pair
// conjuncts over a view — to the string-keyed one, over outer batches with
// and without a selection. The key pairs cover the typed modes and every
// mismatch that routes a probe to the byte twin.
func TestApplyCandidatesMatchEagerProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cat := viewCatalog(rng, 3000, 120)
	for _, sql := range []string{
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.k = f.k1)",
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.k = f.k1 AND d1.fl <> f.fl)",
		"SELECT id FROM f WHERE NOT EXISTS (SELECT * FROM d2 WHERE d2.k = f.k2 AND d2.j > f.k1 AND d2.s <> f.s)",
		"SELECT id FROM f WHERE k2 IN (SELECT d3.j FROM d3 WHERE d3.k = f.k1 AND d3.fl < f.fl)",
		"SELECT id FROM f WHERE fl > (SELECT d4.fl FROM d4 WHERE d4.k = f.k2 AND d4.fl < f.fl)",
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.k = f.du)", // int build, float probe
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.p = f.k1)", // float build, int probe
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.s = f.s)",  // one dictionary
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d2 WHERE d2.p = f.s)",  // two dictionaries
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d2 WHERE d2.p = f.rs)", // dictionary build, raw probe
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.k = f.an)", // all-NULL probe
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d4 WHERE d4.p = f.k1)", // date build, int probe
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1, d2 WHERE d1.j = d2.k AND d1.k = f.k1 AND d2.fl > f.fl)",
		"SELECT id FROM f WHERE EXISTS (SELECT * FROM d1 WHERE d1.k = f.k1 AND d1.j = f.k2)", // compound key
	} {
		p, err := plan.Build(cat, sql)
		if err != nil || !p.Vectorizable {
			t.Fatalf("%s: %v %s", sql, err, p.NotVectorizableReason)
		}
		stmt := sqlparser.Subqueries(p.Root.Stmt.Where)[0]
		ex := newTestExecutor(cat, p, Options{BatchSize: 512})
		if err := ex.prepareSub(stmt); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		as := ex.subs[stmt].apply
		scan := newScanOp(ex, cat["f"], "f", p.Root.Needed["f"])
		for {
			b, err := scan.next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for _, selected := range []bool{false, true} {
				if selected {
					for r := 0; r < b.n; r += 3 {
						b.sel = append(b.sel, r)
					}
				}
				ctx := &evalCtx{ex: ex, batch: b}
				cand, off, err := ctx.applyCandidates(as)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				wantCand, wantOff, err := eagerCandidates(ctx, as, p.Apply(stmt).InnerKeys)
				if err != nil {
					t.Fatalf("%s: oracle: %v", sql, err)
				}
				if fmt.Sprint(cand, off) != fmt.Sprint(wantCand, wantOff) {
					t.Fatalf("%s: window at %d (selection %v): candidates differ from the string-keyed probe", sql, b.base, selected)
				}
			}
		}
	}
}

// TestViewQueriesAcrossConfigurations runs whole statements — the shapes
// above under projections, aggregates and epilogues, plus sub-query sites of
// every Apply shape — at every batch size, worker count and paradigm, and
// holds each result to the plain serial run; counters must agree between
// worker counts.
func TestViewQueriesAcrossConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat := viewCatalog(rng, 6000, 150)
	queries := append([]string{
		"SELECT d1.s, count(*), sum(f.fl), min(f.dt), max(d2.p) FROM f, d1, d2 WHERE f.k1 = d1.k AND d1.j = d2.k GROUP BY d1.s ORDER BY 1",
		"SELECT f.id FROM f WHERE f.id < 900 AND 1 < (SELECT count(*) FROM d1 WHERE d1.k = f.k1) ORDER BY f.id",
		"SELECT f.s, count(*) FROM f WHERE f.fl > (SELECT avg(d2.fl) FROM d2 WHERE d2.k = f.k2) GROUP BY f.s ORDER BY 1",
		"SELECT f.id FROM f WHERE f.du IN (SELECT d1.k FROM d1 WHERE d1.j = f.k2) ORDER BY f.id",
		"SELECT DISTINCT d1.p, d3.s FROM f, d1, d3 WHERE f.k1 = d1.k AND f.k2 = d3.k ORDER BY 2, 1 LIMIT 40",
	}, viewShapes...)
	for _, sql := range queries {
		base := run(t, cat, sql, Options{})
		for _, bs := range []int{1, 1024, 4096} {
			for _, fused := range []bool{false, true} {
				serial := run(t, cat, sql, Options{BatchSize: bs, Fused: fused})
				par := run(t, cat, sql, Options{BatchSize: bs, Fused: fused, Parallelism: 8})
				label := fmt.Sprintf("%s [bs=%d fused=%v]", sql, bs, fused)
				resultsIdentical(t, label+" p=8 vs p=1", serial, par)
				serial.Stats = base.Stats // batch and pass counts follow the batch size
				resultsIdentical(t, label+" vs default", base, serial)
			}
		}
	}
}
