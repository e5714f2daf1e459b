package engine

import (
	"testing"

	"sqalpel/internal/sqlsem"
)

func TestTableSchemaEnforcement(t *testing.T) {
	tbl := NewTable("t",
		Column{Name: "a", Type: TypeInt},
		Column{Name: "b", Type: TypeString},
	)
	if err := tbl.AppendRow(sqlsem.NewInt(1), sqlsem.NewString("x")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(sqlsem.NewInt(1)); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := tbl.AppendRow(sqlsem.NewString("bad"), sqlsem.NewString("x")); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := tbl.AppendRow(sqlsem.Null(), sqlsem.Null()); err != nil {
		t.Errorf("nulls should be accepted: %v", err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", tbl.NumRows())
	}
	if tbl.ColumnIndex("B") != 1 || tbl.ColumnIndex("missing") != -1 {
		t.Error("column index lookup wrong")
	}
	if a, b := tbl.Value(0, 0), tbl.Value(0, 1); a.I != 1 || b.S != "x" {
		t.Errorf("row 0 = (%v, %v)", a, b)
	}
}

func TestDatabaseOperations(t *testing.T) {
	db := NewDatabase("test")
	db.AddTable(NewTable("alpha", Column{Name: "x", Type: TypeInt}))
	db.AddTable(NewTable("beta", Column{Name: "y", Type: TypeInt}))
	if db.Table("ALPHA") == nil {
		t.Error("table lookup should be case insensitive")
	}
	if db.Table("gamma") != nil {
		t.Error("unknown table should be nil")
	}
	for _, name := range []string{"alpha", "beta"} {
		if tbl := db.Table(name); tbl == nil || tbl.Name != name {
			t.Errorf("Table(%q) = %v", name, tbl)
		}
	}
}
