package engine

import (
	"fmt"
	"strings"

	"sqalpel/internal/sqlsem"
)

// ColumnType is the declared type of a table column.
type ColumnType uint8

// Column types.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeString
	TypeDate
)

func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "integer"
	case TypeFloat:
		return "double"
	case TypeString:
		return "varchar"
	case TypeDate:
		return "date"
	default:
		return "unknown"
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColumnType
}

// Table is a base table with column-major storage. Every mutation bumps the
// table's data version, which invalidates derived caches (typed-column
// imports, logical plans) keyed on it.
type Table struct {
	Name    string
	Columns []Column

	cols    [][]Value
	rows    int
	byName  map[string]int
	version uint64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, columns ...Column) *Table {
	t := &Table{Name: name, Columns: columns, byName: map[string]int{}}
	t.cols = make([][]Value, len(columns))
	for i, c := range columns {
		t.byName[strings.ToLower(c.Name)] = i
	}
	return t
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// AppendRow adds one row; the number of values must match the column count
// and each value must be compatible with the declared column type (NULLs are
// always accepted).
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	for i, v := range vals {
		if v.IsNull() {
			continue
		}
		if !typeCompatible(t.Columns[i].Type, v.Kind) {
			return fmt.Errorf("table %s: column %s expects %s, got %s",
				t.Name, t.Columns[i].Name, t.Columns[i].Type, v.Kind)
		}
	}
	for i, v := range vals {
		t.cols[i] = append(t.cols[i], v)
	}
	t.rows++
	t.version++
	return nil
}

// Version returns the table's data version: it increases on every mutation
// (append or in-place update), never decreases, and is the invalidation hook
// shared by the plan cache and the vektor typed-column cache.
func (t *Table) Version() uint64 { return t.version }

// MustAppendRow is AppendRow that panics on schema mismatch; used by data
// generators whose schemas are statically correct.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

func typeCompatible(ct ColumnType, k Kind) bool {
	switch ct {
	case TypeInt:
		return k == sqlsem.KindInt || k == sqlsem.KindBool
	case TypeFloat:
		return k == sqlsem.KindFloat || k == sqlsem.KindInt
	case TypeString:
		return k == sqlsem.KindString
	case TypeDate:
		return k == sqlsem.KindDate
	default:
		return false
	}
}

// ColumnValues returns the backing slice of a column; callers must not
// modify it.
func (t *Table) ColumnValues(col int) []Value { return t.cols[col] }

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
	// version accumulates schema changes (tables added or replaced); a
	// replaced table folds its data version in so the combined Version()
	// stays strictly monotonic.
	version uint64
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: map[string]*Table{}}
}

// AddTable registers a table; an existing table with the same name is
// replaced.
func (d *Database) AddTable(t *Table) {
	key := strings.ToLower(t.Name)
	if old, ok := d.tables[key]; ok {
		// Fold the replaced table's data version into the schema version so
		// Version() cannot repeat a value it reported before the swap.
		d.version += old.version
	}
	d.version++
	d.tables[key] = t
}

// Version returns the database's combined schema/data version: it changes
// whenever a table is added, replaced or mutated, and never repeats. Plan
// caches key on it so a schema or data bump invalidates every cached plan
// of this database.
func (d *Database) Version() uint64 {
	v := d.version
	for _, t := range d.tables {
		v += t.version
	}
	return v
}

// TableColumns returns the column names of the named table in declaration
// order; it implements the logical planner's catalog interface
// (plan.Catalog).
func (d *Database) TableColumns(name string) ([]string, bool) {
	t := d.Table(name)
	if t == nil {
		return nil, false
	}
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out, true
}

// Table returns the named table (case insensitive) or nil.
func (d *Database) Table(name string) *Table {
	return d.tables[strings.ToLower(name)]
}
