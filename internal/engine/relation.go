package engine

import "sqalpel/internal/plan"

// relation is the runtime representation flowing between operators: the
// column values plus the columns' names. The names are a layout of the plan
// (plan.Layout) or a concatenation of layouts, shared and never written:
// plan.Build resolved every column reference against the same layouts, so
// execution reads cols[i] and only the final result reads meta. Every
// operator that produces a relation must therefore produce exactly the
// columns, in exactly the order, the plan laid out for it.
type relation struct {
	meta []plan.ColumnMeta
	cols [][]Value
	n    int
}

// numRows returns the number of rows.
func (r *relation) numRows() int { return r.n }

// selectRows returns a new relation with only the rows whose indexes are
// given, copying the values (the cost of tuple reconstruction).
func (r *relation) selectRows(rows []int) *relation {
	out := &relation{meta: r.meta, cols: make([][]Value, len(r.cols)), n: len(rows)}
	for ci, c := range r.cols {
		vals := make([]Value, len(rows))
		for i, ri := range rows {
			vals[i] = c[ri]
		}
		out.cols[ci] = vals
	}
	return out
}

// appendColumns puts right's columns behind r's — a join's output layout is
// its left columns then its right ones; both must have the same row count.
func (r *relation) appendColumns(right *relation) {
	r.meta = append(r.meta[:len(r.meta):len(r.meta)], right.meta...)
	r.cols = append(r.cols, right.cols...)
}

// tableRelation builds a relation over a planned base-table input in the
// given layout. The row layout copies every column vector, modelling a row
// store that reconstructs full tuples from its pages; the column layout
// aliases the storage of the columns the plan kept.
func tableRelation(t *Table, in *plan.Input, layout plan.Layout, stats *Stats) *relation {
	rel := &relation{meta: in.Layout(layout), n: t.NumRows()}
	switch {
	case layout == plan.LayoutRow:
		for i := range t.Columns {
			cp := append([]Value(nil), t.ColumnValues(i)...)
			rel.cols = append(rel.cols, cp)
			stats.TuplesMaterialized += int64(len(cp))
		}
	case in.PrunedCols == nil:
		for i := range t.Columns {
			rel.cols = append(rel.cols, t.ColumnValues(i))
		}
	default:
		for _, i := range in.PrunedCols {
			rel.cols = append(rel.cols, t.ColumnValues(int(i)))
		}
	}
	stats.RowsScanned += int64(rel.n)
	return rel
}

// columnNames returns the output column names in order.
func (r *relation) columnNames() []string {
	out := make([]string, len(r.meta))
	for i, m := range r.meta {
		out[i] = m.Name
	}
	return out
}
