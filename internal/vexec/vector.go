package vexec

import (
	"fmt"

	"sqalpel/internal/sqlsem"
)

// Vector is one typed column of a batch. Exactly one payload slice is
// populated according to Kind; Nulls is nil when no row is NULL.
//
// A KindFloat vector may additionally carry an IsInt mask: rows flagged
// there are semantically SQL integers (their exact value lives in Ints[i]).
// This per-row duality is what lets integer-preserving division and CASE
// expressions over mixed numeric arms reproduce the boxed-value semantics of
// internal/engine without giving up unboxed storage for the common case.
// A KindString vector may instead be dictionary-encoded: Dict holds the
// sorted distinct values and Codes the per-row indexes into it (Strs is nil
// then). Code order equals value order, so comparison, grouping and sorting
// can run on codes; StrAt and At materialize strings lazily. Null rows keep
// code 0 so Codes is always indexable.
type Vector struct {
	Kind   sqlsem.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
	IsInt  []bool
	Dict   *Dictionary
	Codes  []uint32
	n      int
	// constVal marks a vector broadcast from a single literal (or a
	// materialized uncorrelated scalar sub-query): every row carries the
	// same value, which unlocks the dictionary fast paths in cmpVec,
	// likeVec and IN-list evaluation.
	constVal bool
}

// NewVector allocates a vector of the given kind and length with all payload
// cells zeroed.
func NewVector(kind sqlsem.Kind, n int) *Vector {
	v := &Vector{Kind: kind, n: n}
	switch kind {
	case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
		v.Ints = make([]int64, n)
	case sqlsem.KindFloat:
		v.Floats = make([]float64, n)
	case sqlsem.KindString:
		v.Strs = make([]string, n)
	}
	return v
}

// NewNullVector returns an all-NULL vector of length n.
func NewNullVector(n int) *Vector { return &Vector{Kind: sqlsem.KindNull, n: n} }

// Len returns the number of rows.
func (v *Vector) Len() int { return v.n }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.Kind == sqlsem.KindNull {
		return true
	}
	return v.Nulls != nil && v.Nulls[i]
}

// SetNull marks row i as NULL, allocating the bitmap lazily.
func (v *Vector) SetNull(i int) {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.n)
	}
	v.Nulls[i] = true
}

// rowIndex is the index type of a gather: selection vectors are []int, the
// row-id vectors of view batches []int32.
type rowIndex interface{ int | int32 }

// Gather builds a new vector containing the rows of v listed in sel.
func (v *Vector) Gather(sel []int) *Vector { return gather(v, sel) }

func gather[I rowIndex](v *Vector, sel []I) *Vector {
	out := &Vector{Kind: v.Kind, n: len(sel)}
	switch v.Kind {
	case sqlsem.KindNull:
		return out
	case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
		out.Ints = make([]int64, len(sel))
		for i, ri := range sel {
			out.Ints[i] = v.Ints[ri]
		}
	case sqlsem.KindFloat:
		out.Floats = make([]float64, len(sel))
		for i, ri := range sel {
			out.Floats[i] = v.Floats[ri]
		}
		if v.IsInt != nil {
			out.IsInt = make([]bool, len(sel))
			out.Ints = make([]int64, len(sel))
			for i, ri := range sel {
				out.IsInt[i] = v.IsInt[ri]
				out.Ints[i] = v.Ints[ri]
			}
		}
	case sqlsem.KindString:
		if v.Dict != nil {
			out.Dict = v.Dict
			out.Codes = make([]uint32, len(sel))
			for i, ri := range sel {
				out.Codes[i] = v.Codes[ri]
			}
			break
		}
		out.Strs = make([]string, len(sel))
		for i, ri := range sel {
			out.Strs[i] = v.Strs[ri]
		}
	}
	if v.Nulls != nil {
		out.Nulls = make([]bool, len(sel))
		for i, ri := range sel {
			out.Nulls[i] = v.Nulls[ri]
		}
	}
	return out
}

// gatherNullable is gather where row id -1 yields a NULL row — the
// null-extended side of outer joins.
func gatherNullable(v *Vector, sel []int32) *Vector {
	out := &Vector{Kind: v.Kind, n: len(sel)}
	switch v.Kind {
	case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
		out.Ints = make([]int64, len(sel))
	case sqlsem.KindFloat:
		out.Floats = make([]float64, len(sel))
		if v.IsInt != nil {
			out.IsInt = make([]bool, len(sel))
			out.Ints = make([]int64, len(sel))
		}
	case sqlsem.KindString:
		if v.Dict != nil {
			out.Dict = v.Dict
			out.Codes = make([]uint32, len(sel))
		} else {
			out.Strs = make([]string, len(sel))
		}
	}
	for i, ri := range sel {
		if ri < 0 || v.IsNull(int(ri)) {
			out.SetNull(i)
			continue
		}
		switch v.Kind {
		case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
			out.Ints[i] = v.Ints[ri]
		case sqlsem.KindFloat:
			out.Floats[i] = v.Floats[ri]
			if v.IsInt != nil && v.IsInt[ri] {
				out.IsInt[i] = true
				out.Ints[i] = v.Ints[ri]
			}
		case sqlsem.KindString:
			if v.Dict != nil {
				out.Codes[i] = v.Codes[ri]
			} else {
				out.Strs[i] = v.Strs[ri]
			}
		}
	}
	return out
}

// Slice returns a zero-copy window [lo, hi) of the vector; the payload
// slices are shared with v, which is safe because vectors are immutable once
// published.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{}
	sliceInto(out, v, lo, hi)
	return out
}

// sliceInto overwrites dst with the zero-copy window [lo, hi) of src — the
// allocation-free form of Slice used by the scan's reusable frame.
func sliceInto(dst, src *Vector, lo, hi int) {
	*dst = Vector{Kind: src.Kind, n: hi - lo}
	if src.Ints != nil {
		dst.Ints = src.Ints[lo:hi]
	}
	if src.Floats != nil {
		dst.Floats = src.Floats[lo:hi]
	}
	if src.Strs != nil {
		dst.Strs = src.Strs[lo:hi]
	}
	if src.Codes != nil {
		dst.Dict = src.Dict
		dst.Codes = src.Codes[lo:hi]
	}
	if src.Nulls != nil {
		dst.Nulls = src.Nulls[lo:hi]
	}
	if src.IsInt != nil {
		dst.IsInt = src.IsInt[lo:hi]
	}
}

// At boxes row i: the form used at the block boundaries of the executor
// (sub-query sets, scalar function arguments, result rows). NULL rows report
// KindNull; rows of a float vector flagged in the IsInt duality mask report
// KindInt with their exact integer payload.
func (v *Vector) At(i int) sqlsem.Value {
	if v.IsNull(i) {
		return sqlsem.Null()
	}
	switch v.Kind {
	case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
		return sqlsem.Value{Kind: v.Kind, I: v.Ints[i]}
	case sqlsem.KindFloat:
		if v.IsInt != nil && v.IsInt[i] {
			return sqlsem.NewInt(v.Ints[i])
		}
		return sqlsem.NewFloat(v.Floats[i])
	case sqlsem.KindString:
		if v.Dict != nil {
			return sqlsem.NewString(v.Dict.Vals[v.Codes[i]])
		}
		return sqlsem.NewString(v.Strs[i])
	default:
		return sqlsem.Null()
	}
}

// FromValues builds one typed vector from boxed values — the column-import
// path of the engine adapter, sharing the kind promotion of expression
// results (see builder).
func FromValues(vals []sqlsem.Value) (*Vector, error) {
	return (&builder{vals: vals}).finalize()
}

// builder accumulates scalars of possibly mixed numeric kinds and finalizes
// them into one typed vector, promoting {int,float} mixes to a KindFloat
// vector with an IsInt duality mask. Incompatible mixes (string next to
// numeric, bool next to int, ...) report ErrUnsupported so the caller can
// fall back to the interpreter.
type builder struct {
	vals []sqlsem.Value
}

func newBuilder(capacity int) *builder {
	return &builder{vals: make([]sqlsem.Value, 0, capacity)}
}

func (b *builder) append(s sqlsem.Value) { b.vals = append(b.vals, s) }

func (b *builder) len() int { return len(b.vals) }

// finalize builds the vector.
func (b *builder) finalize() (*Vector, error) {
	var hasInt, hasFloat, hasStr, hasDate, hasBool bool
	for _, s := range b.vals {
		switch s.Kind {
		case sqlsem.KindInt:
			hasInt = true
		case sqlsem.KindFloat:
			hasFloat = true
		case sqlsem.KindString:
			hasStr = true
		case sqlsem.KindDate:
			hasDate = true
		case sqlsem.KindBool:
			hasBool = true
		}
	}
	classes := 0
	for _, c := range []bool{hasInt || hasFloat, hasStr, hasDate, hasBool} {
		if c {
			classes++
		}
	}
	if classes > 1 {
		return nil, fmt.Errorf("%w: mixed value kinds in one column", ErrUnsupported)
	}
	n := len(b.vals)
	var kind sqlsem.Kind
	switch {
	case hasStr:
		kind = sqlsem.KindString
	case hasDate:
		kind = sqlsem.KindDate
	case hasBool:
		kind = sqlsem.KindBool
	case hasFloat:
		kind = sqlsem.KindFloat
	case hasInt:
		kind = sqlsem.KindInt
	default:
		return NewNullVector(n), nil
	}
	out := NewVector(kind, n)
	mixed := hasInt && hasFloat
	if mixed {
		out.Ints = make([]int64, n)
		out.IsInt = make([]bool, n)
	}
	for i, s := range b.vals {
		if s.Kind == sqlsem.KindNull {
			out.SetNull(i)
			continue
		}
		switch kind {
		case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
			out.Ints[i] = s.I
		case sqlsem.KindFloat:
			if s.Kind == sqlsem.KindInt {
				out.Floats[i] = float64(s.I)
				if mixed {
					out.Ints[i] = s.I
					out.IsInt[i] = true
				}
			} else {
				out.Floats[i] = s.F
			}
		case sqlsem.KindString:
			out.Strs[i] = s.S
		}
	}
	return out, nil
}
