package vexec

import (
	"fmt"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// This file is the closure compiler of the fused scan (Options.Fused): it
// turns a filter conjunct into one Go closure that reads the table's typed
// column vectors at a row cursor. Compilation mirrors the vectorized
// evaluator (expr.go) case for case — the same resolution rules, the same
// NULL semantics and scalar kernels (internal/sqlsem), the same error texts,
// and the same split between errors that are statement properties (unknown
// columns — raised at compile time) and errors that are data properties
// (type mismatches — raised from inside the closure, only when a row
// actually exhibits them).
//
// One structural rule keeps the two evaluators' observable behaviour
// aligned: the vectorized evaluator computes every sub-expression eagerly
// over the whole batch, so the closures also evaluate all children before
// applying the operator — no short-circuiting in AND/OR/CASE/IN — and the
// contexts expr.go wraps with deferToFallback (AND/OR arms, CASE arms, IN
// list items) defer here too, at compile time and at run time alike.
//
// Sub-query use sites are not compiled: the fused source leaves conjuncts
// holding them to an ordinary filterOp above it, which probes the one
// sub-query implementation (subquery.go).

// rowFn is one compiled expression: evaluate at physical row i of the
// vectors it was compiled against.
type rowFn func(i int) (sqlsem.Value, error)

func constFn(s sqlsem.Value) rowFn {
	return func(int) (sqlsem.Value, error) { return s, nil }
}

// compileExpr builds the closure of one expression over the vectors of b, a
// dense batch (the fused scan hands in the whole table). The closure reads
// b's vectors at the physical row it is called with.
func compileExpr(e sqlparser.Expr, b *Batch) (rowFn, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		s, err := sqlsem.ParseNumber(v.Value)
		if err != nil {
			return nil, err
		}
		return constFn(s), nil
	case *sqlparser.StringLit:
		return constFn(sqlsem.NewString(v.Value)), nil
	case *sqlparser.BoolLit:
		return constFn(sqlsem.NewBool(v.Value)), nil
	case *sqlparser.NullLit:
		return constFn(sqlsem.Null()), nil
	case *sqlparser.DateLit:
		d, err := sqlsem.ParseDate(v.Value)
		if err != nil {
			return nil, errEval(e, err)
		}
		return constFn(sqlsem.NewDate(d)), nil
	case *sqlparser.IntervalLit:
		// Bare intervals evaluate to their numeric count; date arithmetic
		// with a unit is handled in the BinaryExpr case.
		s, err := sqlsem.ParseNumber(v.Value)
		if err != nil {
			return nil, err
		}
		return constFn(s), nil
	case *sqlparser.ColumnRef:
		idx, err := b.findColumn(v.Table, v.Column)
		if err != nil {
			return nil, err
		}
		vec := b.col(idx)
		return func(i int) (sqlsem.Value, error) { return vec.At(i), nil }, nil
	case *sqlparser.ParenExpr:
		return compileExpr(v.Expr, b)
	case *sqlparser.UnaryExpr:
		return compileUnary(v, b)
	case *sqlparser.BinaryExpr:
		return compileBinary(v, b)
	case *sqlparser.FuncCall:
		return compileFunc(v, b)
	case *sqlparser.CaseExpr:
		return compileCase(v, b)
	case *sqlparser.BetweenExpr:
		return compileBetween(v, b)
	case *sqlparser.InExpr:
		return compileIn(v, b)
	case *sqlparser.IsNullExpr:
		val, err := compileExpr(v.Expr, b)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(i int) (sqlsem.Value, error) {
			s, err := val(i)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.NewBool(s.IsNull() != not), nil
		}, nil
	case *sqlparser.ExtractExpr:
		val, err := compileExpr(v.From, b)
		if err != nil {
			return nil, err
		}
		return func(i int) (sqlsem.Value, error) {
			s, err := val(i)
			if err != nil || s.IsNull() {
				return sqlsem.Null(), err
			}
			if s.Kind != sqlsem.KindDate {
				return sqlsem.Value{}, errEval(v, fmt.Errorf("EXTRACT requires a date, got %s", s.Kind))
			}
			return sqlsem.NewInt(sqlsem.DatePart(v.Unit, s.I)), nil
		}, nil
	case *sqlparser.SubstringExpr:
		return compileSubstring(v, b)
	case *sqlparser.CastExpr:
		val, err := compileExpr(v.Expr, b)
		if err != nil {
			return nil, err
		}
		return func(i int) (sqlsem.Value, error) {
			s, err := val(i)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.Cast(s, v.Type)
		}, nil
	default:
		// Includes the sub-query use sites, which the fused source never
		// hands in.
		return nil, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

func compileUnary(v *sqlparser.UnaryExpr, b *Batch) (rowFn, error) {
	val, err := compileExpr(v.Expr, b)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "NOT":
		return func(i int) (sqlsem.Value, error) {
			s, err := val(i)
			if err != nil {
				return sqlsem.Value{}, err
			}
			return sqlsem.Not(s.Tri()).Value(), nil
		}, nil
	case "-":
		return func(i int) (sqlsem.Value, error) {
			s, err := val(i)
			return s.Neg(), err
		}, nil
	case "+":
		return val, nil
	default:
		return nil, fmt.Errorf("unknown unary operator %q", v.Op)
	}
}

func compileBinary(v *sqlparser.BinaryExpr, b *Batch) (rowFn, error) {
	if v.Op == "AND" || v.Op == "OR" {
		l, err := compileExpr(v.Left, b)
		if err != nil {
			return nil, deferToFallback(err)
		}
		r, err := compileExpr(v.Right, b)
		if err != nil {
			return nil, deferToFallback(err)
		}
		and := v.Op == "AND"
		return func(i int) (sqlsem.Value, error) {
			ls, err := l(i)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			rs, err := r(i)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			if and {
				return sqlsem.And(ls.Tri(), rs.Tri()).Value(), nil
			}
			return sqlsem.Or(ls.Tri(), rs.Tri()).Value(), nil
		}, nil
	}

	// Date +/- INTERVAL with a calendar unit.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := compileExpr(v.Left, b)
		if err != nil {
			return nil, err
		}
		ns, err := sqlsem.ParseNumber(iv.Value)
		if err != nil {
			return nil, err
		}
		nv := ns.Int()
		if v.Op == "-" {
			nv = -nv
		}
		return func(i int) (sqlsem.Value, error) {
			s, err := l(i)
			if err != nil || s.IsNull() {
				return sqlsem.Null(), err
			}
			if s.Kind != sqlsem.KindDate {
				return sqlsem.Value{}, fmt.Errorf("interval arithmetic requires a date, got %s", s.Kind)
			}
			d, err := sqlsem.AddInterval(s.I, nv, iv.Unit)
			return sqlsem.NewDate(d), err
		}, nil
	}

	l, err := compileExpr(v.Left, b)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(v.Right, b)
	if err != nil {
		return nil, err
	}
	// both evaluates the operands in order, the shared prologue of the
	// operator closures below.
	both := func(i int) (ls, rs sqlsem.Value, err error) {
		if ls, err = l(i); err == nil {
			rs, err = r(i)
		}
		return ls, rs, err
	}
	switch op := v.Op; op {
	case "+", "-", "*", "/", "%", "||":
		return func(i int) (sqlsem.Value, error) {
			ls, rs, err := both(i)
			if err != nil {
				return sqlsem.Value{}, err
			}
			out, err := sqlsem.Arithmetic(op, ls, rs)
			if err != nil {
				return sqlsem.Value{}, errEval(v, err)
			}
			return out, nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(i int) (sqlsem.Value, error) {
			ls, rs, err := both(i)
			return sqlsem.CompareValues(op, ls, rs).Value(), err
		}, nil
	case "LIKE", "NOT LIKE":
		negate := op == "NOT LIKE"
		return func(i int) (sqlsem.Value, error) {
			ls, rs, err := both(i)
			if err != nil {
				return sqlsem.Value{}, err
			}
			eitherNull := ls.IsNull() || rs.IsNull()
			matched := !eitherNull && sqlsem.LikeMatch(ls.String(), rs.String())
			return sqlsem.Like(eitherNull, matched, negate).Value(), nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown binary operator %q", v.Op)
	}
}

func compileCase(v *sqlparser.CaseExpr, b *Batch) (rowFn, error) {
	var operand rowFn
	var err error
	if v.Operand != nil {
		if operand, err = compileExpr(v.Operand, b); err != nil {
			return nil, err
		}
	}
	conds := make([]rowFn, len(v.Whens))
	thens := make([]rowFn, len(v.Whens))
	for wi, w := range v.Whens {
		if conds[wi], err = compileExpr(w.When, b); err != nil {
			return nil, deferToFallback(err)
		}
		if thens[wi], err = compileExpr(w.Then, b); err != nil {
			return nil, deferToFallback(err)
		}
	}
	elseFn := constFn(sqlsem.Null())
	if v.Else != nil {
		if elseFn, err = compileExpr(v.Else, b); err != nil {
			return nil, deferToFallback(err)
		}
	}
	return func(i int) (sqlsem.Value, error) {
		var opVal sqlsem.Value
		if operand != nil {
			var err error
			if opVal, err = operand(i); err != nil {
				return sqlsem.Value{}, err
			}
		}
		// Every arm evaluates, also past the first hit: arm errors defer the
		// statement wherever they sit.
		var out sqlsem.Value
		matched := false
		for wi := range conds {
			c, err := conds[wi](i)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			t, err := thens[wi](i)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			if matched {
				continue
			}
			if operand != nil {
				matched = opVal.Equal(c)
			} else {
				matched = c.Bool()
			}
			if matched {
				out = t
			}
		}
		ev, err := elseFn(i)
		if err != nil {
			return sqlsem.Value{}, deferToFallback(err)
		}
		if !matched {
			out = ev
		}
		return out, nil
	}, nil
}

func compileBetween(v *sqlparser.BetweenExpr, b *Batch) (rowFn, error) {
	val, err := compileExpr(v.Expr, b)
	if err != nil {
		return nil, err
	}
	lo, err := compileExpr(v.Lo, b)
	if err != nil {
		return nil, err
	}
	hi, err := compileExpr(v.Hi, b)
	if err != nil {
		return nil, err
	}
	return func(i int) (sqlsem.Value, error) {
		a, err := val(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		l, err := lo(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		h, err := hi(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		geLo, leHi := sqlsem.CompareValues(">=", a, l), sqlsem.CompareValues("<=", a, h)
		return sqlsem.Between(geLo, leHi, v.Not).Value(), nil
	}, nil
}

func compileIn(v *sqlparser.InExpr, b *Batch) (rowFn, error) {
	if v.Subquery != nil {
		return nil, fmt.Errorf("%w: sub-query in a compiled filter", ErrUnsupported)
	}
	val, err := compileExpr(v.Expr, b)
	if err != nil {
		return nil, err
	}
	items := make([]rowFn, len(v.List))
	for ii, item := range v.List {
		if items[ii], err = compileExpr(item, b); err != nil {
			return nil, deferToFallback(err)
		}
	}
	return func(i int) (sqlsem.Value, error) {
		a, err := val(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		// Every item evaluates, also past the match: item errors defer.
		var found, listHasNull bool
		for _, item := range items {
			s, err := item(i)
			if err != nil {
				return sqlsem.Value{}, deferToFallback(err)
			}
			switch {
			case found:
			case a.Equal(s):
				found = true
			case s.IsNull():
				listHasNull = true
			}
		}
		return inTri(a.IsNull(), found, listHasNull, v.Not).Value(), nil
	}, nil
}

func compileSubstring(v *sqlparser.SubstringExpr, b *Batch) (rowFn, error) {
	val, err := compileExpr(v.Expr, b)
	if err != nil {
		return nil, err
	}
	start, err := compileExpr(v.Start, b)
	if err != nil {
		return nil, err
	}
	length := constFn(sqlsem.Null())
	if v.Length != nil {
		if length, err = compileExpr(v.Length, b); err != nil {
			return nil, err
		}
	}
	return func(i int) (sqlsem.Value, error) {
		s, err := val(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		st, err := start(i)
		if err != nil {
			return sqlsem.Value{}, err
		}
		lv, err := length(i)
		return sqlsem.Substring(s, st, lv, v.Length != nil), err
	}, nil
}

func compileFunc(v *sqlparser.FuncCall, b *Batch) (rowFn, error) {
	args := make([]rowFn, len(v.Args))
	for ai, a := range v.Args {
		var err error
		if args[ai], err = compileExpr(a, b); err != nil {
			return nil, err
		}
	}
	return func(i int) (sqlsem.Value, error) {
		// All arguments evaluate before the function applies; the common
		// arities fit the stack buffer.
		var buf [4]sqlsem.Value
		vals := buf[:0]
		for _, a := range args {
			s, err := a(i)
			if err != nil {
				return sqlsem.Value{}, err
			}
			vals = append(vals, s)
		}
		return sqlsem.ApplyFunc(v.Name, vals), nil
	}, nil
}
