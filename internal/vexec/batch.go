package vexec

import (
	"fmt"
	"strings"

	"sqalpel/internal/sqlsem"
)

// colMeta names one column of a batch: the table alias it came from (empty
// for computed columns) and the column name, both lower case.
type colMeta struct {
	table string
	name  string
}

// Batch is the unit of data flowing between operators: a set of typed
// vectors of equal physical length plus an optional selection vector. When
// sel is non-nil only the listed row indexes are live; filters shrink sel
// instead of copying the payload vectors.
//
// A batch is either dense — cols holds every column — or a view (src is
// non-nil): column i is the rows ids[i] of the source vector src[i], and
// cols[i] stays nil until an expression reads the column, which gathers it
// once and memoises it (col). Joins, sub-query pair batches and filtered
// materialization produce views, composing row-id vectors instead of copying
// columns, so a column travels from base storage to the breaker that reads it
// in one gather, and columns nobody reads are never gathered. Only the
// goroutine that owns a batch reads its columns; a batch other goroutines can
// reach (the source of morsel windows, a sub-query's inner side) is read
// through src and ids alone, which never change once the batch is built.
type Batch struct {
	cols []*Vector
	meta []colMeta
	sel  []int
	n    int // physical rows in the vectors
	// selBuf is recycled capacity for the first selection pass; scan
	// operators that reuse their output frame park the previous batch's
	// sel here so steady-state filtering stops allocating per batch.
	selBuf []int
	src    []*Vector
	ids    []*rowIDs
	// base is the source row of physical row 0 of a window batch: the first
	// table row of a scan window, the offset of a matOp window.
	base int
}

// rowIDs is the row-id vector of one side of a view batch, shared by every
// column of that side (adjacent columns: a join emits left columns then right
// columns). It is immutable once published.
type rowIDs struct {
	ids      []int32
	nullable bool // ids may hold -1: the NULL-extended rows of an outer join
}

// gatherObserver, when set, sees every gather of a view column: its source
// vector and the number of cells copied. Tests count copies with it.
var gatherObserver func(src *Vector, cells int)

func (r *rowIDs) gather(v *Vector) *Vector {
	if gatherObserver != nil {
		gatherObserver(v, len(r.ids))
	}
	if r.nullable {
		return gatherNullable(v, r.ids)
	}
	return gather(v, r.ids)
}

// compose returns the row ids of rows idx of a batch whose side has row ids
// r; a negative idx (a NULL-extended row, when nullable) stays negative.
func compose[I rowIndex](r *rowIDs, idx []I, nullable bool) *rowIDs {
	out := make([]int32, len(idx))
	for k, i := range idx {
		if i < 0 {
			out[k] = -1
		} else {
			out[k] = r.ids[i]
		}
	}
	return &rowIDs{ids: out, nullable: r.nullable || nullable}
}

// newBatch builds a batch over dense vectors.
func newBatch(n int) *Batch { return &Batch{n: n} }

// addCol appends a column.
func (b *Batch) addCol(table, name string, v *Vector) {
	b.cols = append(b.cols, v)
	b.meta = append(b.meta, colMeta{table: strings.ToLower(table), name: strings.ToLower(name)})
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// physRow maps live row i to its physical row index.
func (b *Batch) physRow(i int) int {
	if b.sel != nil {
		return b.sel[i]
	}
	return i
}

// findColumn resolves a possibly qualified column reference with the same
// rules as the interpreter's relation: unqualified lookups over columns of
// the same name in different tables are ambiguous.
func (b *Batch) findColumn(table, name string) (int, error) {
	lt, ln := strings.ToLower(table), strings.ToLower(name)
	found := -1
	for i, m := range b.meta {
		if m.name != ln {
			continue
		}
		if lt != "" && m.table != lt {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", ln)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return -1, fmt.Errorf("unknown column %s.%s", table, name)
		}
		return -1, fmt.Errorf("unknown column %s", name)
	}
	return found, nil
}

// col returns column i over the physical rows; the first read of a view
// column gathers it from its source.
func (b *Batch) col(i int) *Vector {
	if b.cols[i] == nil {
		b.cols[i] = b.ids[i].gather(b.src[i])
	}
	return b.cols[i]
}

// dense returns column i as a dense vector over the live rows: the column
// itself when no selection is active, a gathered copy otherwise — of a view
// column not read yet, straight from its source.
func (b *Batch) dense(i int) *Vector {
	if b.sel == nil {
		return b.col(i)
	}
	if b.cols[i] != nil {
		return b.cols[i].Gather(b.sel)
	}
	return compose(b.ids[i], b.sel, false).gather(b.src[i])
}

// appendRowIDs appends the live rows of b as row ids of the source b is a
// window of (of b itself when it is no window: base 0).
func appendRowIDs(ids []int32, b *Batch) []int32 {
	if b.sel == nil {
		for r := 0; r < b.n; r++ {
			ids = append(ids, int32(b.base+r))
		}
		return ids
	}
	for _, r := range b.sel {
		ids = append(ids, int32(b.base+r))
	}
	return ids
}

// appendView appends b's columns to out as views of b's physical rows idx
// (-1, when nullable, is a NULL-extended row): a dense batch becomes the
// source of the new columns, a view hands its sources on and composes its row
// ids — once per side, whatever the number of columns.
func (b *Batch) appendView(out *Batch, idx []int32, nullable bool) {
	out.meta = append(out.meta, b.meta...)
	out.cols = append(out.cols, make([]*Vector, len(b.meta))...)
	if b.src == nil {
		out.src = append(out.src, b.cols...)
		r := &rowIDs{ids: idx, nullable: nullable}
		for range b.cols {
			out.ids = append(out.ids, r)
		}
		return
	}
	out.src = append(out.src, b.src...)
	var r *rowIDs
	for i, side := range b.ids {
		if i == 0 || side != b.ids[i-1] {
			r = compose(side, idx, nullable)
		}
		out.ids = append(out.ids, r)
	}
}

// take returns the view of b's physical rows idx.
func (b *Batch) take(idx []int32) *Batch {
	out := &Batch{n: len(idx)}
	b.appendView(out, idx, false)
	return out
}

// joinView builds the output of a join step from its matching row pairs:
// left columns then right columns, as views.
func joinView(left *Batch, leftIdx []int32, right *Batch, rightIdx []int32, nullable bool) *Batch {
	out := &Batch{n: len(leftIdx)}
	left.appendView(out, leftIdx, false)
	right.appendView(out, rightIdx, nullable)
	return out
}

// window returns the rows [lo, hi) of a batch without a selection as a batch
// of its own: zero-copy slices of dense columns, sliced row ids of a view.
func (b *Batch) window(lo, hi int) *Batch {
	out := &Batch{n: hi - lo, meta: b.meta, base: lo, cols: make([]*Vector, len(b.meta))}
	if b.src == nil {
		for i, c := range b.cols {
			out.cols[i] = c.Slice(lo, hi)
		}
		return out
	}
	out.src = b.src
	out.ids = make([]*rowIDs, len(b.ids))
	for i, side := range b.ids {
		if i > 0 && side == b.ids[i-1] {
			out.ids[i] = out.ids[i-1]
		} else {
			out.ids[i] = &rowIDs{ids: side.ids[lo:hi], nullable: side.nullable}
		}
	}
	return out
}

// emptyBatch is the zero-row batch of a schema.
func emptyBatch(meta []colMeta) *Batch {
	out := &Batch{meta: meta, cols: make([]*Vector, len(meta))}
	for i := range out.cols {
		out.cols[i] = NewNullVector(0)
	}
	return out
}

// selected returns the n rows of b that survived a drained pipeline over
// it, ids listing them in order: b itself when all did (zero copy, ids is
// not read), a view otherwise.
func (b *Batch) selected(ids []int32, n int) *Batch {
	switch n {
	case 0:
		return emptyBatch(b.meta)
	case b.n:
		return b
	}
	return b.take(ids)
}

// concatVectors concatenates the chunks of one column into one vector of
// total rows (rows beyond the chunks stay zero). The column kind is uniform
// across batches of one pipeline — all slices of one scan or gathers of one
// join share it — except that KindNull (empty) chunks and float chunks
// with/without the IsInt mask may mix.
func concatVectors(chunks []*Vector, total int) *Vector {
	if len(chunks) == 1 && chunks[0].n == total {
		return chunks[0]
	}
	kind := sqlsem.KindNull
	anyIsInt := false
	var dict *Dictionary
	dictOK := true
	for _, c := range chunks {
		if c.Kind != sqlsem.KindNull {
			kind = c.Kind
			// chunks stay dictionary-coded only when every string chunk
			// shares one dictionary; mixed encodings fall back to raw
			if c.Kind == sqlsem.KindString {
				if c.Dict == nil || (dict != nil && c.Dict != dict) {
					dictOK = false
				} else {
					dict = c.Dict
				}
			}
		}
		if c.IsInt != nil {
			anyIsInt = true
		}
	}
	var out *Vector
	if kind == sqlsem.KindString && dictOK && dict != nil {
		out = &Vector{Kind: sqlsem.KindString, n: total, Dict: dict, Codes: make([]uint32, total)}
	} else {
		out = NewVector(kind, total)
	}
	if kind == sqlsem.KindFloat && anyIsInt {
		out.Ints = make([]int64, total)
		out.IsInt = make([]bool, total)
	}
	pos := 0
	for _, v := range chunks {
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				out.SetNull(pos)
				pos++
				continue
			}
			switch kind {
			case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
				out.Ints[pos] = v.Ints[i]
			case sqlsem.KindFloat:
				out.Floats[pos] = v.Floats[i]
				if v.IsInt != nil && v.IsInt[i] {
					out.Ints[pos] = v.Ints[i]
					out.IsInt[pos] = true
				}
			case sqlsem.KindString:
				if out.Codes != nil {
					out.Codes[pos] = v.Codes[i]
				} else {
					out.Strs[pos] = v.StrAt(i)
				}
			}
			pos++
		}
	}
	return out
}
