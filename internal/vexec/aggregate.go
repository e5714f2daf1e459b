package vexec

import (
	"encoding/binary"
	"fmt"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
)

// This file is the one aggregation breaker of the typed executor. The state
// of a hash aggregation is an aggTable: flat columns indexed by dense group
// id, per aggregate only the ones its function reads, grown amortised — a
// new group allocates nothing of its own. A batch is folded in two steps:
// its rows' group ids are written into one []int32 (a hash probe for the
// serial breaker, remapped morsel-local ids for the parallel one, the
// correlation groups for a decorrelated sub-query), then every aggregate
// runs one kernel chosen from its function and the argument vector's kind
// over the raw payload slices; no row is boxed. Every group's rows are
// folded in global row order on all three paths — no partial sums are
// merged — which is what keeps float sums bit-identical to the interpreters.

// aggResult is the output of hash aggregation: one logical row per group.
type aggResult struct {
	sp   *plan.Select
	n    int
	aggs []*Vector // per sp.Aggs entry: per-group values
	refs []*Vector // per sp.Carried entry: first-row values
}

// aggCol is the state of one aggregate. count is the number of rows folded
// per group (non-NULL, surviving DISTINCT): count's value, avg's divisor and
// the NULL test of the rest. sum and avg keep the running integer and float
// sums in i and f, notInt marking the groups that folded a non-integer row.
// min and max keep the current extreme: numbers, dates and bools as the
// float Value.Compare orders by in f with the exact int-backed payload in i
// (notInt: the extreme is a float), strings in s; class is the value class
// of the extreme, fixed by the first typed batch.
type aggCol struct {
	fn     string
	count  []int64
	i      []int64
	f      []float64
	notInt []bool
	s      []string
	class  sqlsem.Kind
	// DISTINCT: the (group id, value key) pairs folded so far, with the
	// scratch the probe encodes into and the group ids it filters.
	distinct *hashTable
	buf      []byte
	gids     []int32
}

// aggTable is the state of one hash aggregation.
type aggTable struct {
	sp     *plan.Select
	n      int         // groups opened so far
	rows   []int64     // per group: admitted rows, the value of count(*)
	cols   []aggCol    // per sp.Aggs entry
	firsts [][]*Vector // per sp.Carried entry: first-row values, a chunk per batch that opened groups
	opened []int       // scratch: the rows of one batch that opened a group
}

func newAggTable(sp *plan.Select) *aggTable {
	t := &aggTable{sp: sp, cols: make([]aggCol, len(sp.Aggs)), firsts: make([][]*Vector, len(sp.Carried))}
	for ai, a := range sp.Aggs {
		t.cols[ai].fn = a.Func
		if a.Call.Distinct {
			t.cols[ai].distinct = newByteKeyTable(64)
		}
	}
	return t
}

// growTo extends s with zero values to n elements.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

func (c *aggCol) grow(n int) {
	c.count = growTo(c.count, n)
	switch {
	case c.fn == "count":
	case c.class == sqlsem.KindString:
		c.s = growTo(c.s, n)
	default:
		c.i, c.f, c.notInt = growTo(c.i, n), growTo(c.f, n), growTo(c.notInt, n)
	}
}

// admit registers the rows of one batch: gids[j] is row j's group, negative
// when it belongs to none. Group ids are dense and a new group's id first
// appears at the group's first row (all three breakers hand them out in
// first-seen order), so the table discovers new groups itself and keeps the
// carried references' values at those rows.
func (t *aggTable) admit(gids []int32, refs []*Vector) {
	t.opened = t.opened[:0]
	for j, g := range gids {
		if g < 0 {
			continue
		}
		if int(g) == t.n {
			t.n++
			t.rows = append(t.rows, 0)
			t.opened = append(t.opened, j)
		}
		t.rows[g]++
	}
	if len(t.opened) > 0 {
		for ri, rv := range refs {
			t.firsts[ri] = append(t.firsts[ri], rv.Gather(t.opened))
		}
	}
}

// foldBatch admits one batch and folds it into every aggregate.
func (t *aggTable) foldBatch(gids []int32, args, refs []*Vector) error {
	t.admit(gids, refs)
	for ai := range t.cols {
		if err := t.fold(ai, gids, args[ai]); err != nil {
			return err
		}
	}
	return nil
}

// fold folds the admitted rows of one batch into aggregate ai: v is its
// argument over the batch, nil for count(*). It touches only the state of
// that aggregate, so distinct aggregates fold concurrently.
func (t *aggTable) fold(ai int, gids []int32, v *Vector) error {
	c := &t.cols[ai]
	if v == nil || v.Kind == sqlsem.KindNull {
		return nil // count(*) reads t.rows; NULL rows fold into nothing
	}
	if c.distinct != nil {
		gids = c.firstSeen(gids, v)
	}
	isFloat := v.Kind == sqlsem.KindFloat
	switch c.fn {
	case "count":
		c.grow(t.n)
		for j, g := range gids {
			if g >= 0 && (v.Nulls == nil || !v.Nulls[j]) {
				c.count[g]++
			}
		}
	case "sum", "avg":
		c.grow(t.n)
		switch {
		case isFloat:
			sumRows(c, gids, v.Floats, v, false)
		case v.Kind == sqlsem.KindString:
			// Value.Float reads a string as the number it spells.
			fl := make([]float64, len(gids))
			for j := range fl {
				if !v.IsNull(j) {
					fl[j] = sqlsem.NewString(v.StrAt(j)).Float()
				}
			}
			sumRows(c, gids, fl, v, false)
		default:
			sumRows(c, gids, v.Ints, v, v.Kind == sqlsem.KindInt)
		}
	default: // min, max
		class := v.Kind
		if isFloat {
			class = sqlsem.KindInt
		}
		if c.class == sqlsem.KindNull {
			c.class = class
		} else if c.class != class {
			return fmt.Errorf("%w: mixed value kinds in one column", ErrUnsupported)
		}
		c.grow(t.n)
		switch {
		case isFloat:
			extremeRows(c, gids, v.Floats, v, false, c.fn == "max")
		case class == sqlsem.KindString:
			extremeStrings(c, gids, v, c.fn == "max")
		default:
			extremeRows(c, gids, v.Ints, v, true, c.fn == "max")
		}
	}
	return nil
}

// firstSeen returns gids with the rows cleared whose (group, value) pair the
// DISTINCT aggregate has folded before. The value is keyed as
// Value.AppendKey would, so 1 and 1.0 are one value whatever vector kind
// carries them.
func (c *aggCol) firstSeen(gids []int32, v *Vector) []int32 {
	c.gids = append(c.gids[:0], gids...)
	for j, g := range c.gids {
		if g < 0 || v.IsNull(j) {
			continue
		}
		c.buf = appendVecKey(binary.LittleEndian.AppendUint32(c.buf[:0], uint32(g)), v, j)
		if _, isNew := c.distinct.getOrInsertBytes(c.buf); !isNew {
			c.gids[j] = -1
		}
	}
	return c.gids
}

// sumRows is the sum/avg kernel over an int-backed or float payload. A row
// is a SQL integer when the whole vector is (allInt) or the float vector's
// duality mask flags it; its exact value is then v.Ints[j].
func sumRows[T int64 | float64](c *aggCol, gids []int32, vals []T, v *Vector, allInt bool) {
	nulls, isInt, ints := v.Nulls, v.IsInt, v.Ints
	for j, g := range gids {
		if g < 0 || (nulls != nil && nulls[j]) {
			continue
		}
		c.count[g]++
		if allInt || (isInt != nil && isInt[j]) {
			c.i[g] += ints[j]
			c.f[g] += float64(ints[j])
		} else {
			c.notInt[g] = true
			c.f[g] += float64(vals[j])
		}
	}
}

// extremeRows is the min/max kernel over an int-backed or float payload.
// Like Value.Compare it orders in the float domain — integers beyond 2^53
// tie there — and the first of tying rows stays.
func extremeRows[T int64 | float64](c *aggCol, gids []int32, vals []T, v *Vector, allInt, isMax bool) {
	nulls, isInt, ints := v.Nulls, v.IsInt, v.Ints
	for j, g := range gids {
		if g < 0 || (nulls != nil && nulls[j]) {
			continue
		}
		intRow := allInt || (isInt != nil && isInt[j])
		f := float64(vals[j])
		if intRow {
			f = float64(ints[j])
		}
		if c.count[g] == 0 || (isMax && f > c.f[g]) || (!isMax && f < c.f[g]) {
			c.f[g], c.notInt[g] = f, !intRow
			if intRow {
				c.i[g] = ints[j]
			}
		}
		c.count[g]++
	}
}

// extremeStrings is the min/max kernel over raw or dictionary-coded strings.
func extremeStrings(c *aggCol, gids []int32, v *Vector, isMax bool) {
	for j, g := range gids {
		if g < 0 || (v.Nulls != nil && v.Nulls[j]) {
			continue
		}
		s := v.StrAt(j)
		if c.count[g] == 0 || (isMax && s > c.s[g]) || (!isMax && s < c.s[g]) {
			c.s[g] = s
		}
		c.count[g]++
	}
}

// result emits the per-group vectors straight from the state columns —
// consuming them: the table is finished — for at least minGroups groups:
// the global group of an ungrouped aggregate and the empty group of a
// decorrelated sub-query exist without any row.
func (t *aggTable) result(minGroups int) *aggResult {
	n := max(t.n, minGroups)
	res := &aggResult{sp: t.sp, n: n, aggs: make([]*Vector, len(t.cols)), refs: make([]*Vector, len(t.firsts))}
	for ri, chunks := range t.firsts {
		res.refs[ri] = concatVectors(chunks, n)
	}
	t.rows = growTo(t.rows, n)
	for ai, a := range t.sp.Aggs {
		c := &t.cols[ai]
		c.grow(n)
		switch {
		case n == 0:
			res.aggs[ai] = NewNullVector(0)
		case a.Call.Star:
			res.aggs[ai] = &Vector{Kind: sqlsem.KindInt, Ints: t.rows, n: n}
		case a.Func == "count":
			res.aggs[ai] = &Vector{Kind: sqlsem.KindInt, Ints: c.count, n: n}
		case c.class == sqlsem.KindString:
			res.aggs[ai] = NewNullVector(n)
			if nulls, some := nullGroups(c.count); some {
				res.aggs[ai] = &Vector{Kind: sqlsem.KindString, Strs: c.s, Nulls: nulls, n: n}
			}
		default: // sum, avg, and the int-backed or float extremes
			if a.Func == "avg" {
				for g, k := range c.count {
					if k > 0 {
						c.f[g], c.notInt[g] = c.f[g]/float64(k), true
					}
				}
			}
			out := numericVector(c)
			if out.Kind == sqlsem.KindInt && c.class != sqlsem.KindNull {
				out.Kind = c.class // the int-backed extremes of a date or bool column
			}
			res.aggs[ai] = out
		}
	}
	return res
}

// nullGroups returns the NULL mask of an aggregate's result — the groups
// that folded no row; nil when there is none — and whether any group did.
func nullGroups(count []int64) (nulls []bool, some bool) {
	for g, k := range count {
		if k > 0 {
			some = true
			continue
		}
		if nulls == nil {
			nulls = make([]bool, len(count))
		}
		nulls[g] = true
	}
	return nulls, some
}

// numericVector emits an int/float state column as the vector the boxed
// builder would build from its per-group values: all-int groups give an int
// vector, all-float a float vector, a mix a float vector with the duality
// mask, no value at all the all-NULL vector.
func numericVector(c *aggCol) *Vector {
	n := len(c.count)
	nulls, _ := nullGroups(c.count)
	var hasInt, hasFloat bool
	for g, k := range c.count {
		if k > 0 && c.notInt[g] {
			hasFloat = true
		} else if k > 0 {
			hasInt = true
		}
	}
	switch {
	case !hasInt && !hasFloat:
		return NewNullVector(n)
	case !hasFloat:
		return &Vector{Kind: sqlsem.KindInt, Ints: c.i, Nulls: nulls, n: n}
	}
	out := &Vector{Kind: sqlsem.KindFloat, Floats: c.f, Nulls: nulls, n: n}
	if hasInt {
		out.Ints, out.IsInt = c.i, make([]bool, n)
		for g, k := range c.count {
			if out.IsInt[g] = k > 0 && !c.notInt[g]; out.IsInt[g] {
				c.f[g] = float64(c.i[g])
			} else {
				c.i[g] = 0
			}
		}
	}
	return out
}

// aggBatchVectors evaluates the grouping keys, aggregate arguments and
// carried references over one batch.
func aggBatchVectors(ex *executor, b *Batch, sp *plan.Select) (keyVecs, argVecs, refVecs []*Vector, err error) {
	ctx := &evalCtx{ex: ex, batch: b}
	if keyVecs, err = ctx.evalAppend(make([]*Vector, 0, len(sp.Stmt.GroupBy)), sp.Stmt.GroupBy); err != nil {
		return nil, nil, nil, err
	}
	argVecs = make([]*Vector, len(sp.Aggs))
	for i, a := range sp.Aggs {
		if a.Call.Star {
			continue
		}
		if argVecs[i], err = ctx.eval(a.Call.Args[0]); err != nil {
			return nil, nil, nil, err
		}
	}
	refVecs = make([]*Vector, len(sp.Carried))
	for i, r := range sp.Carried {
		if refVecs[i], err = ctx.resolveColumn(r); err != nil {
			return nil, nil, nil, err
		}
	}
	return keyVecs, argVecs, refVecs, nil
}

// hashAggregate drains the pipeline into the aggregation table: the
// streaming pipeline breaker of grouped queries. Groups live in the typed
// hash table, whose dense first-seen ids index the state columns directly,
// so a row costs one unboxed hash probe and one kernel step per aggregate.
// With intra-query parallelism enabled and a morsel-splittable pipeline
// below, the work fans out across the morsel pool instead.
func (ex *executor) hashAggregate(child operator, sp *plan.Select) (*aggResult, error) {
	if ex.parallelism() > 1 {
		// Single-morsel inputs skip the 3-phase machinery: its thread-local
		// tables and remap passes only pay off with morsels to fan out.
		if src, layers, ok := splitPipeline(child); ok && src.rows > ex.opts.BatchSize {
			return ex.parallelHashAggregate(src, layers, sp)
		}
	}

	// The serial drain fully consumes each batch before pulling the next
	// and retains only copies of its cells, so the scan can recycle one frame.
	markScanReuse(child)

	ht := newHashTable(64)
	t := newAggTable(sp)
	grouped := len(sp.Stmt.GroupBy) > 0
	var gids []int32
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
		keyVecs, argVecs, refVecs, err := aggBatchVectors(ex, b, sp)
		if err != nil {
			return nil, err
		}
		// Aggregates without GROUP BY form one global group: id 0 throughout.
		gids = growTo(gids[:0], n)
		if grouped {
			kc := ht.prepare(keyVecs)
			for j := range gids {
				g, _ := kc.getOrInsert(ht, keyVecs, j)
				gids[j] = int32(g)
			}
		}
		if err := t.foldBatch(gids, argVecs, refVecs); err != nil {
			return nil, err
		}
	}
	return ex.finishAggregate(t, grouped), nil
}

// finishAggregate emits the table of a (serial or parallel) hash
// aggregation; the global group of an ungrouped one exists even over an
// empty input.
func (ex *executor) finishAggregate(t *aggTable, grouped bool) *aggResult {
	minGroups := 1
	if grouped {
		minGroups = 0
	}
	res := t.result(minGroups)
	ex.stats.Groups += int64(res.n)
	return res
}
