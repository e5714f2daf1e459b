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
type Batch struct {
	cols []*Vector
	meta []colMeta
	sel  []int
	n    int // physical rows in the vectors
	// selBuf is recycled capacity for the first selection pass; scan
	// operators that reuse their output frame park the previous batch's
	// sel here so steady-state filtering stops allocating per batch.
	selBuf []int
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

// dense returns column i as a dense vector over the live rows: the column
// itself when no selection is active (zero copy), a gathered copy otherwise.
func (b *Batch) dense(i int) *Vector {
	if b.sel == nil {
		return b.cols[i]
	}
	return b.cols[i].Gather(b.sel)
}

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
	out := &Batch{n: len(rows), meta: b.meta}
	out.cols = make([]*Vector, len(b.cols))
	for i, c := range b.cols {
		out.cols[i] = c.GatherNullable(rows)
	}
	return out
}

// concatBatches stitches dense copies of the batches into one dense batch.
// All batches must share the same column layout; a nil result means zero
// batches were supplied.
func concatBatches(batches []*Batch) *Batch {
	if len(batches) == 0 {
		return nil
	}
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
