// Package sqlsemroute flags expression-level two-valued treatment of
// nullable SQL values in the executor packages. internal/sqlsem is the
// single source of ternary truth (PR 5): comparisons over NULL must yield
// UNKNOWN, boolean connectives must follow the three-valued truth tables,
// and UNKNOWN may collapse to "row rejected" only at a predicate consumer.
// Before PR 5 every paradigm had hand-rolled flattenings of exactly the
// shapes this analyzer matches — NULL = x evaluating to FALSE instead of
// UNKNOWN, AND/OR over collapsed booleans — and when all six engines agree
// on the wrong answer the differential oracle is blind to the bug.
//
// Two shapes are flagged in internal/engine and internal/vexec — the
// interpreters, the vectorized evaluator and the fused scan's closure
// compiler all hold the one sqlsem.Value (engine.Value is its alias), so the
// checks see every paradigm:
//
//   - v1 == v2 / v1 != v2 where either operand is a sqlsem.Value: Go
//     struct equality compares the raw {Kind,I,F,S} fields, which is both
//     NULL-blind (NULL == NULL is true) and representation-sensitive
//     (1 != 1.0); route through sqlsem.CompareValues or compare the
//     fields you mean explicitly;
//   - b1 && b2 / b1 || b2 / !b where an operand is a Value.Bool() call:
//     Bool() collapses NULL to false *inside* the expression, which is the
//     consumer collapse applied in the wrong place — combine Tri values
//     with sqlsem.And/Or/Not and collapse at the filter via Accept.
//
// Suppress deliberate sites with //lint:nullsafe <reason> (e.g. a consumer
// collapse that really is the filter boundary).
package sqlsemroute

import (
	"go/ast"
	"go/token"

	"sqalpel/internal/lint/analysis"
	"sqalpel/internal/lint/lintutil"
)

// Markers lists the executor packages that must route ternary logic
// through internal/sqlsem.
var Markers = []string{
	"internal/engine",
	"internal/vexec",
}

// ValueMarker/ValueType locate the nullable SQL value type. internal/sqlsem
// itself is not a marked package: it holds the kernels the executors are
// routed to.
const (
	ValueMarker = "internal/sqlsem"
	ValueType   = "Value"
)

// Token is the suppression token: //lint:nullsafe <reason>.
const Token = "nullsafe"

var Analyzer = &analysis.Analyzer{
	Name: "sqlsemroute",
	Doc: "flag raw ==/!= over sqlsem.Value and &&/||/! over Value.Bool() in executor packages: " +
		"ternary NULL logic must route through internal/sqlsem; suppress with //lint:nullsafe <reason>",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PathMatchesAny(pass.Pkg.Path(), Markers...) {
		return nil, nil
	}
	sup := lintutil.NewSuppressions(pass.Fset, pass.Files)
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ:
				if isValue(pass, n.X) || isValue(pass, n.Y) {
					report(pass, sup, n.OpPos,
						"raw %s comparison of sqlsem.Value compares struct fields two-valuedly "+
							"(NULL-blind, representation-sensitive); use sqlsem.CompareValues, "+
							"or compare the intended fields explicitly", n.Op)
				}
			case token.LAND, token.LOR:
				if isValueBoolCall(pass, n.X) || isValueBoolCall(pass, n.Y) {
					report(pass, sup, n.OpPos,
						"%s over Value.Bool() collapses NULL to false inside the expression; "+
							"combine sqlsem.Tri values with sqlsem.And/Or and collapse only at the "+
							"predicate consumer (Tri.Accept)", n.Op)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.NOT && isValueBoolCall(pass, n.X) {
				report(pass, sup, n.OpPos,
					"! over Value.Bool() collapses NULL to false before negating, turning UNKNOWN "+
						"into TRUE; use sqlsem.Not on the Tri value instead")
			}
		}
		return true
	})
	return nil, nil
}

func report(pass *analysis.Pass, sup *lintutil.Suppressions, pos token.Pos, format string, args ...any) {
	if sup.Suppressed(pass.Fset, pos, Token) {
		return
	}
	pass.Reportf(pos, format+" (or annotate //lint:"+Token+" <reason>)", args...)
}

// isValue reports whether the expression's type is sqlsem.Value. Untyped
// nils and non-Value operands (including Kind, which has its own identity)
// do not match.
func isValue(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	return lintutil.NamedIn(tv.Type, ValueMarker, ValueType)
}

// isValueBoolCall matches <sqlsem.Value>.Bool() call expressions.
func isValueBoolCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return lintutil.IsMethodCall(pass.TypesInfo, call, ValueMarker, ValueType, "Bool")
}
