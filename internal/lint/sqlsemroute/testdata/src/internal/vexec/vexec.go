// Package vexec is the sqlsemroute fixture for the typed executor: boxed
// rows and compiled closures hold sqlsem.Value directly, so the same shapes
// are flagged there.
package vexec

import "internal/sqlsem"

// rowFn is a compiled expression, as in the fused scan.
type rowFn func(i int) sqlsem.Value

func rawEq(a, b sqlsem.Value) bool {
	return a == b // want `raw == comparison of sqlsem.Value`
}

// closureAnd collapses both arms inside the closure.
func closureAnd(l, r rowFn) func(int) bool {
	return func(i int) bool {
		return l(i).Bool() && r(i).Bool() // want `&& over Value.Bool\(\) collapses NULL to false`
	}
}

func closureNot(f rowFn) func(int) bool {
	return func(i int) bool {
		return !f(i).Bool() // want `! over Value.Bool\(\) collapses NULL to false`
	}
}

// routed goes through the kernel and is left alone.
func routed(a, b sqlsem.Value) bool { return a.Equal(b) }

// filterCollapse is the blessed boundary shape, waived with a reason.
func filterCollapse(stages []rowFn, i int) bool {
	for _, pred := range stages {
		//lint:nullsafe consumer collapse: the fused scan's filter rejects UNKNOWN rows, per SQL semantics
		if !pred(i).Bool() {
			return false
		}
	}
	return true
}
