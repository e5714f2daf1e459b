package vexec

// TableColumn is one named, fully materialized typed column.
type TableColumn struct {
	Name string
	Vec  *Vector
}

// Table is a base table in vexec's typed columnar format. Instances are
// produced by the engine-level column-import shim, which decodes the boxed
// []Value storage of engine.Database into typed vectors once and caches the
// result. Construction is where the storage encodings happen: string
// columns up to DictMaxCardinality distinct values are dictionary-encoded,
// and per-block zone maps are computed for every column that admits them —
// both once per table version, amortized by the typed cache.
type Table struct {
	Name  string
	Cols  []TableColumn
	rows  int
	zones *zoneMap
}

// NewTable builds a table from typed columns; all vectors must have the same
// length.
func NewTable(name string, cols ...TableColumn) *Table {
	t := &Table{Name: name, Cols: cols}
	if len(cols) > 0 {
		t.rows = cols[0].Vec.Len()
	}
	for i, c := range t.Cols {
		t.Cols[i].Vec = dictEncode(c.Vec)
	}
	t.zones = buildZoneMap(t.Cols, t.rows)
	return t
}

// DictFor returns the dictionary of the named column, or nil when the
// column is absent or stored raw; used by tests and the explain surface to
// report encoding routes.
func (t *Table) DictFor(name string) *Dictionary {
	for _, c := range t.Cols {
		if c.Name == name {
			return c.Vec.Dict
		}
	}
	return nil
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// Catalog resolves table names to typed tables; the engine adapter
// implements it over an engine.Database plus a conversion cache.
type Catalog interface {
	// VTable returns the typed form of the named table (case insensitive) or
	// an error when the table does not exist or cannot be represented as
	// typed vectors.
	VTable(name string) (*Table, error)
}
