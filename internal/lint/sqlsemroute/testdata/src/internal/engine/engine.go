// Package engine is the sqlsemroute fixture for the interpreters: the
// two-valued expression shapes the analyzer must flag over the (aliased)
// shared Value type, plus the shapes it must leave alone.
package engine

import "internal/sqlsem"

// Value is the interpreters' spelling of the shared value type; the analyzer
// must see through the alias.
type Value = sqlsem.Value

// rawEq is the NULL-blind, representation-sensitive shape: struct equality
// says NULL == NULL and 1 != 1.0.
func rawEq(a, b Value) bool {
	return a == b // want `raw == comparison of sqlsem.Value`
}

func rawNeq(a, b Value) bool {
	return a != b // want `raw != comparison of sqlsem.Value`
}

// collapsedAnd combines predicates after collapsing each to a bool,
// losing UNKNOWN before the connective.
func collapsedAnd(a, b Value) bool {
	return a.Bool() && b.Bool() // want `&& over Value.Bool\(\) collapses NULL to false`
}

func collapsedOr(a Value, other bool) bool {
	return other || a.Bool() // want `\|\| over Value.Bool\(\) collapses NULL to false`
}

// collapsedNot turns UNKNOWN into TRUE.
func collapsedNot(a Value) bool {
	return !a.Bool() // want `! over Value.Bool\(\) collapses NULL to false`
}

// kindCompare compares the discriminants, not the values: Kind has its own
// two-valued identity and is exempt.
func kindCompare(a, b Value) bool {
	return a.Kind == b.Kind
}

// plainBools: connectives over ordinary booleans are not the analyzer's
// business.
func plainBools(x, y bool) bool {
	return x && !y
}

// consumerCollapse is the blessed boundary shape, waived with a reason.
func consumerCollapse(conjuncts []Value) bool {
	for _, v := range conjuncts {
		//lint:nullsafe consumer collapse: the filter boundary rejects UNKNOWN rows, per SQL semantics
		if !v.Bool() {
			return false
		}
	}
	return true
}
