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
	row := tbl.Row(0)
	if row[0].I != 1 || row[1].S != "x" {
		t.Errorf("Row(0) = %v", row)
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
	tables := db.Tables()
	if len(tables) != 2 || tables[0].Name != "alpha" {
		t.Errorf("Tables() = %v", tables)
	}
}
