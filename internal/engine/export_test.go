package engine

import (
	"fmt"
	"strings"

	"sqalpel/internal/plan"
)

// SetJoinGuard lowers the join-size guard of every execution to n until the
// returned restore runs, so the budget tests reach the guard on small data.
func SetJoinGuard(n int) (restore func()) {
	joinGuard = n
	return func() { joinGuard = plan.JoinGuard }
}

// ColumnIndex returns the index of the named column (case insensitive) or -1.
func (t *Table) ColumnIndex(name string) int {
	if idx, ok := t.byName[strings.ToLower(name)]; ok {
		return idx
	}
	return -1
}

// SetValue overwrites the value at (row, col) in place, type-checked against
// the declared column type, and bumps the data version so caches built over
// the old contents are invalidated.
func (t *Table) SetValue(row, col int, v Value) error {
	if row < 0 || row >= t.rows || col < 0 || col >= len(t.Columns) {
		return fmt.Errorf("table %s: position (%d,%d) out of range", t.Name, row, col)
	}
	if !v.IsNull() && !typeCompatible(t.Columns[col].Type, v.Kind) {
		return fmt.Errorf("table %s: column %s expects %s, got %s",
			t.Name, t.Columns[col].Name, t.Columns[col].Type, v.Kind)
	}
	t.cols[col][row] = v
	t.version++
	return nil
}

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) Value { return t.cols[col][row] }
