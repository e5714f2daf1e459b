package plan

import (
	"math"
	"strconv"
	"strings"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// FoldExpr constant-folds literal arithmetic inside a filter predicate:
// `x < 10 + 5` plans as `x < 15` and `d < DATE '1994-01-01' + INTERVAL '1'
// YEAR` as `d < DATE '1995-01-01'`, so none of the engines pays the
// arithmetic per row and the zone maps see a literal bound. Folding is
// deliberately conservative — only +, - and * over plain integer literals,
// skipped on overflow, and date ± interval (chains included) where both
// literals parse and the engines' own sqlsem.AddInterval succeeds — so the
// folded predicate evaluates to exactly the values the original would, and a
// malformed literal keeps its tree and with it the runtime error, in the
// order the engines raise it. The input tree is never modified; nodes are
// rebuilt only on the path to a folded constant. Sub-query statements keep
// their identity, so plan lookups by statement pointer are unaffected.
func FoldExpr(e sqlparser.Expr) sqlparser.Expr {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		left := FoldExpr(v.Left)
		right := FoldExpr(v.Right)
		if li, lok := intLit(left); lok {
			if ri, rok := intLit(right); rok {
				if folded, ok := foldInt(v.Op, li, ri); ok {
					return &sqlparser.NumberLit{Value: strconv.FormatInt(folded, 10)}
				}
			}
		}
		if folded, ok := foldDateInterval(v.Op, left, right); ok {
			return folded
		}
		if left != v.Left || right != v.Right {
			cp := *v
			cp.Left = left
			cp.Right = right
			return &cp
		}
		return v
	case *sqlparser.ParenExpr:
		inner := FoldExpr(v.Expr)
		_, isDate := inner.(*sqlparser.DateLit)
		if _, ok := intLit(inner); ok || isDate {
			// A parenthesized constant is just the constant.
			return inner
		}
		if inner != v.Expr {
			return &sqlparser.ParenExpr{Expr: inner}
		}
		return v
	case *sqlparser.UnaryExpr:
		inner := FoldExpr(v.Expr)
		if v.Op == "-" {
			if n, ok := intLit(inner); ok && n != math.MinInt64 {
				return &sqlparser.NumberLit{Value: strconv.FormatInt(-n, 10)}
			}
		}
		if inner != v.Expr {
			cp := *v
			cp.Expr = inner
			return &cp
		}
		return v
	default:
		return e
	}
}

// intLit reports whether the expression is a plain integer literal.
func intLit(e sqlparser.Expr) (int64, bool) {
	n, ok := e.(*sqlparser.NumberLit)
	if !ok {
		return 0, false
	}
	if strings.ContainsAny(n.Value, ".eE") {
		return 0, false
	}
	v, err := strconv.ParseInt(n.Value, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// foldDateInterval folds DATE '…' ± INTERVAL '…' unit into the date literal
// the engines' runtime branch would compute, row by row, from the same
// kernels.
func foldDateInterval(op string, left, right sqlparser.Expr) (sqlparser.Expr, bool) {
	d, isDate := left.(*sqlparser.DateLit)
	iv, isInterval := right.(*sqlparser.IntervalLit)
	if !isDate || !isInterval || (op != "+" && op != "-") {
		return nil, false
	}
	days, dateErr := sqlsem.ParseDate(d.Value)
	count, countErr := sqlsem.ParseNumber(iv.Value)
	if dateErr != nil || countErr != nil {
		return nil, false
	}
	n := count.Int()
	if op == "-" {
		n = -n
	}
	sum, err := sqlsem.AddInterval(days, n, iv.Unit)
	if err != nil {
		return nil, false
	}
	return &sqlparser.DateLit{Value: sqlsem.FormatDate(sum)}, true
}

// foldInt evaluates an exact integer operation, refusing on overflow so the
// runtime arithmetic (which wraps) stays authoritative for such inputs.
func foldInt(op string, a, b int64) (int64, bool) {
	switch op {
	case "+":
		s := a + b
		if (b > 0 && s < a) || (b < 0 && s > a) {
			return 0, false
		}
		return s, true
	case "-":
		d := a - b
		if (b < 0 && d < a) || (b > 0 && d > a) {
			return 0, false
		}
		return d, true
	case "*":
		if a == 0 || b == 0 {
			return 0, true
		}
		p := a * b
		if p/b != a {
			return 0, false
		}
		return p, true
	default:
		return 0, false
	}
}
