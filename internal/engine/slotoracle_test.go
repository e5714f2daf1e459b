package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
)

// The name lookup the plan-assigned column slots replaced, kept as their
// oracle: until plan.Build resolved references, every evaluation of a column
// reference searched the runtime scope chain by name like this.

// errColumnNotFound is a sentinel distinguishing "not in this relation" (so
// outer scopes should be consulted) from true ambiguity errors.
var errColumnNotFound = fmt.Errorf("column not found")

// findColumn resolves a (possibly qualified) column reference whose table
// and name the caller has already lower-cased, against the names the relation
// carries at run time.
func findColumn(meta []plan.ColumnMeta, table, name string) (int, error) {
	found := -1
	for i, m := range meta {
		if m.Name != name {
			continue
		}
		if table != "" && m.Table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		return -1, errColumnNotFound
	}
	return found, nil
}

// resolve looks a column reference up in the runtime scope chain and returns
// the slot the lookup amounts to, or the error it raises. It also holds
// every relation on the chain to the layout contract: as many names as
// columns.
func resolve(sc *scope, c *sqlparser.ColumnRef) (plan.Slot, error) {
	lt, ln := strings.ToLower(c.Table), strings.ToLower(c.Column)
	var depth int32
	for s := sc; s != nil; s = s.outer {
		meta, cols := s.rel.meta, len(s.rel.cols)
		if s.pair != nil {
			// A LEFT JOIN candidate pair: the left row's columns then the
			// right row's.
			meta = append(append([]plan.ColumnMeta(nil), meta...), s.pair.meta...)
			cols += len(s.pair.cols)
		}
		if len(meta) != cols {
			return plan.Slot{}, fmt.Errorf("layout contract broken: the relation at depth %d carries %d names for %d columns", depth, len(meta), cols)
		}
		idx, err := findColumn(meta, lt, ln)
		if err == nil {
			return plan.Slot{Depth: depth, Col: int32(idx)}, nil
		}
		if err != errColumnNotFound {
			return plan.Slot{}, err
		}
		depth++
	}
	if c.Table != "" {
		return plan.Slot{}, fmt.Errorf("unknown column %s.%s", c.Table, c.Column)
	}
	return plan.Slot{}, fmt.Errorf("unknown column %s", c.Column)
}

// CheckSlots holds every column read of the interpreters to the name lookup
// until the returned function is called: the plan's slot must name the scope
// and the column the lookup finds in the runtime scope chain. plan.Build
// refuses a statement with an unknown or ambiguous name, so a read the
// lookup fails is a mismatch too. stop returns the number of reads checked.
// Not for concurrent executions: the observer is a package variable.
func CheckSlots(t testing.TB) (stop func() int) {
	t.Helper()
	reads, failures := 0, 0
	slotObserver = func(c *sqlparser.ColumnRef, sc *scope, got plan.Slot) {
		reads++
		want, err := resolve(sc, c)
		var diff string
		switch {
		case err != nil:
			diff = fmt.Sprintf("slot (depth %d, column %d), name lookup error %v", got.Depth, got.Col, err)
		case got != want:
			diff = fmt.Sprintf("slot (depth %d, column %d), name lookup (depth %d, column %d)", got.Depth, got.Col, want.Depth, want.Col)
		}
		if diff != "" {
			if failures++; failures <= 10 {
				t.Errorf("column reference %s: %s", c.SQL(), diff)
			}
		}
	}
	return func() int {
		slotObserver = nil
		return reads
	}
}
