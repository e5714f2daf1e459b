package engine

import (
	"fmt"
	"strings"
)

// relColumn is one column of an intermediate relation: the table alias it
// came from (empty for computed columns), its name, and the values.
type relColumn struct {
	table string
	name  string
	vals  []Value
}

// relation is the runtime representation flowing between operators:
// column-major, with enough naming metadata to resolve qualified and
// unqualified column references.
type relation struct {
	cols []*relColumn
	n    int
}

// numRows returns the number of rows.
func (r *relation) numRows() int { return r.n }

// findColumn resolves a (possibly qualified) column reference whose table
// and name the caller has already lower-cased (columns are stored that way).
// It returns the column index, or an error when the reference is unknown or
// ambiguous.
func (r *relation) findColumn(table, name string) (int, error) {
	found := -1
	for i, c := range r.cols {
		if c.name != name {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			// Qualified lookups matching multiple columns of the same alias
			// should not happen; unqualified lookups over self-joined tables
			// are genuinely ambiguous.
			return -1, fmt.Errorf("ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		return -1, errColumnNotFound
	}
	return found, nil
}

// errColumnNotFound is a sentinel distinguishing "not in this relation"
// (so outer scopes should be consulted) from true ambiguity errors.
var errColumnNotFound = fmt.Errorf("column not found")

// value returns the value at (row, col).
func (r *relation) value(row, col int) Value { return r.cols[col].vals[row] }

// project returns a new relation with only the rows whose indexes are given,
// copying the values (the cost of tuple reconstruction).
func (r *relation) selectRows(rows []int) *relation {
	out := &relation{n: len(rows)}
	for _, c := range r.cols {
		vals := make([]Value, len(rows))
		for i, ri := range rows {
			vals[i] = c.vals[ri]
		}
		out.cols = append(out.cols, &relColumn{table: c.table, name: c.name, vals: vals})
	}
	return out
}

// appendColumns appends columns to r (used when stitching join outputs); the
// new columns must have the same row count as r.
func (r *relation) appendColumns(cols []*relColumn) {
	r.cols = append(r.cols, cols...)
}

// tableRelation builds a relation over a base table. When needed is non-nil
// only the listed column names are included (column pruning); otherwise all
// columns are included. When copy is true the column vectors are copied,
// modelling a row store that reconstructs full tuples from its pages; when
// false the relation aliases the table storage directly.
func tableRelation(t *Table, alias string, needed map[string]bool, copyCols bool, stats *Stats) *relation {
	if alias == "" {
		alias = t.Name
	}
	rel := &relation{n: t.NumRows()}
	for i, c := range t.Columns {
		lname := strings.ToLower(c.Name)
		if needed != nil && !needed[lname] && !needed["*"] {
			continue
		}
		vals := t.ColumnValues(i)
		if copyCols {
			cp := make([]Value, len(vals))
			copy(cp, vals)
			vals = cp
			stats.TuplesMaterialized += int64(len(cp))
		}
		rel.cols = append(rel.cols, &relColumn{table: strings.ToLower(alias), name: lname, vals: vals})
	}
	stats.RowsScanned += int64(t.NumRows())
	return rel
}

// renameTables stamps every column of the relation with a new table alias;
// used for derived tables where the outer query sees only the alias.
func (r *relation) renameTables(alias string) {
	alias = strings.ToLower(alias)
	for _, c := range r.cols {
		c.table = alias
	}
}

// columnNames returns the output column names in order.
func (r *relation) columnNames() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.name
	}
	return out
}
