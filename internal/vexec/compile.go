package vexec

import (
	"fmt"
	"strings"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// This file is the closure compiler of the fused scan (Options.Fused): it
// turns a filter conjunct into one Go closure that reads the table's typed
// column vectors at a row cursor. Compilation mirrors the vectorized
// evaluator (expr.go) case for case — the same resolution rules, the same
// NULL semantics (through the shared sqlsem kernels and the scalar kernels
// of value.go), the same error texts, and the same split between errors
// that are statement properties (unknown columns, malformed literals —
// raised at compile time) and errors that are data properties (type
// mismatches — raised from inside the closure, only when a row actually
// exhibits them).
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
type rowFn func(i int) (scalar, error)

func constFn(s scalar) rowFn {
	return func(int) (scalar, error) { return s, nil }
}

func boolScalar(b bool) scalar {
	if b {
		return scalar{kind: KindBool, i: 1}
	}
	return scalar{kind: KindBool}
}

// tri lifts the scalar into the shared ternary-logic domain, the row image
// of triAt.
func (s scalar) tri() sqlsem.Tri {
	if s.isNull() {
		return sqlsem.Unknown
	}
	return sqlsem.Of(s.boolVal())
}

// triScalar lowers a ternary truth value into a boolean scalar, the row
// image of setTri: UNKNOWN becomes NULL.
func triScalar(t sqlsem.Tri) scalar {
	if t == sqlsem.Unknown {
		return nullScalar
	}
	return boolScalar(t == sqlsem.True)
}

// compileExpr builds the closure of one expression over the vectors of b, a
// dense batch (the fused scan hands in the whole table). The closure reads
// b's vectors at the physical row it is called with.
func compileExpr(e sqlparser.Expr, b *Batch) (rowFn, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		s, err := parseNumberScalar(v.Value)
		if err != nil {
			return nil, err
		}
		return constFn(s), nil
	case *sqlparser.StringLit:
		return constFn(scalar{kind: KindString, s: v.Value}), nil
	case *sqlparser.BoolLit:
		return constFn(boolScalar(v.Value)), nil
	case *sqlparser.NullLit:
		return constFn(nullScalar), nil
	case *sqlparser.DateLit:
		d, err := parseDate(v.Value)
		if err != nil {
			return nil, errEval(e, fmt.Errorf("invalid date %q: %w", v.Value, err))
		}
		return constFn(scalar{kind: KindDate, i: d}), nil
	case *sqlparser.IntervalLit:
		// Bare intervals evaluate to their numeric count; date arithmetic
		// with a unit is handled in the BinaryExpr case.
		s, err := parseNumberScalar(v.Value)
		if err != nil {
			return nil, err
		}
		return constFn(s), nil
	case *sqlparser.ColumnRef:
		idx, err := b.findColumn(v.Table, v.Column)
		if err != nil {
			return nil, err
		}
		vec := b.cols[idx]
		return func(i int) (scalar, error) { return vec.At(i), nil }, nil
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
		return func(i int) (scalar, error) {
			s, err := val(i)
			if err != nil {
				return scalar{}, err
			}
			return boolScalar(s.isNull() != not), nil
		}, nil
	case *sqlparser.ExtractExpr:
		val, err := compileExpr(v.From, b)
		if err != nil {
			return nil, err
		}
		return func(i int) (scalar, error) {
			s, err := val(i)
			if err != nil || s.isNull() {
				return nullScalar, err
			}
			if s.kind != KindDate {
				return scalar{}, errEval(v, fmt.Errorf("EXTRACT requires a date, got %s", s.kind))
			}
			return scalar{kind: KindInt, i: datePart(v.Unit, s.i)}, nil
		}, nil
	case *sqlparser.SubstringExpr:
		return compileSubstring(v, b)
	case *sqlparser.CastExpr:
		val, err := compileExpr(v.Expr, b)
		if err != nil {
			return nil, err
		}
		return func(i int) (scalar, error) {
			s, err := val(i)
			if err != nil || s.isNull() {
				return nullScalar, err
			}
			return castScalar(s, v.Type)
		}, nil
	case *sqlparser.ParamRef:
		return nil, fmt.Errorf("unresolved template parameter ${%s}", v.Name)
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
		return func(i int) (scalar, error) {
			s, err := val(i)
			if err != nil {
				return scalar{}, err
			}
			return triScalar(sqlsem.Not(s.tri())), nil
		}, nil
	case "-":
		return func(i int) (scalar, error) {
			s, err := val(i)
			switch {
			case err != nil || s.isNull():
				return nullScalar, err
			case s.kind == KindInt:
				return scalar{kind: KindInt, i: -s.i}, nil
			default:
				return scalar{kind: KindFloat, f: -s.floatVal()}, nil
			}
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
		return func(i int) (scalar, error) {
			ls, err := l(i)
			if err != nil {
				return scalar{}, deferToFallback(err)
			}
			rs, err := r(i)
			if err != nil {
				return scalar{}, deferToFallback(err)
			}
			if and {
				return triScalar(sqlsem.And(ls.tri(), rs.tri())), nil
			}
			return triScalar(sqlsem.Or(ls.tri(), rs.tri())), nil
		}, nil
	}

	// Date +/- INTERVAL with a calendar unit.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := compileExpr(v.Left, b)
		if err != nil {
			return nil, err
		}
		ns, err := parseNumberScalar(iv.Value)
		if err != nil {
			return nil, err
		}
		nv := ns.intVal()
		if v.Op == "-" {
			nv = -nv
		}
		return func(i int) (scalar, error) {
			s, err := l(i)
			if err != nil || s.isNull() {
				return nullScalar, err
			}
			if s.kind != KindDate {
				return scalar{}, fmt.Errorf("interval arithmetic requires a date, got %s", s.kind)
			}
			d, ok := addInterval(s.i, nv, iv.Unit)
			if !ok {
				return scalar{}, fmt.Errorf("unknown interval unit %q", iv.Unit)
			}
			return scalar{kind: KindDate, i: d}, nil
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
	both := func(i int) (ls, rs scalar, err error) {
		if ls, err = l(i); err == nil {
			rs, err = r(i)
		}
		return ls, rs, err
	}
	switch op := v.Op; op {
	case "+", "-", "*", "/", "%", "||":
		return func(i int) (scalar, error) {
			ls, rs, err := both(i)
			if err != nil {
				return scalar{}, err
			}
			out, err := arithScalar(op, ls, rs)
			if err != nil {
				return scalar{}, errEval(v, err)
			}
			return out, nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(i int) (scalar, error) {
			ls, rs, err := both(i)
			if err != nil || ls.isNull() || rs.isNull() {
				return nullScalar, err
			}
			return boolScalar(sqlsem.Compare(op, compareScalars(ls, rs)) == sqlsem.True), nil
		}, nil
	case "LIKE", "NOT LIKE":
		negate := op == "NOT LIKE"
		return func(i int) (scalar, error) {
			ls, rs, err := both(i)
			if err != nil {
				return scalar{}, err
			}
			eitherNull := ls.isNull() || rs.isNull()
			matched := !eitherNull && likeMatch(ls.render(), rs.render())
			return triScalar(sqlsem.Like(eitherNull, matched, negate)), nil
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
	elseFn := constFn(nullScalar)
	if v.Else != nil {
		if elseFn, err = compileExpr(v.Else, b); err != nil {
			return nil, deferToFallback(err)
		}
	}
	return func(i int) (scalar, error) {
		var opVal scalar
		if operand != nil {
			var err error
			if opVal, err = operand(i); err != nil {
				return scalar{}, err
			}
		}
		// Every arm evaluates, also past the first hit: arm errors defer the
		// statement wherever they sit.
		var out scalar
		matched := false
		for wi := range conds {
			c, err := conds[wi](i)
			if err != nil {
				return scalar{}, deferToFallback(err)
			}
			t, err := thens[wi](i)
			if err != nil {
				return scalar{}, deferToFallback(err)
			}
			if matched {
				continue
			}
			if operand != nil {
				matched = equalScalars(opVal, c)
			} else {
				matched = c.boolVal()
			}
			if matched {
				out = t
			}
		}
		ev, err := elseFn(i)
		if err != nil {
			return scalar{}, deferToFallback(err)
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
	return func(i int) (scalar, error) {
		a, err := val(i)
		if err != nil {
			return scalar{}, err
		}
		l, err := lo(i)
		if err != nil {
			return scalar{}, err
		}
		h, err := hi(i)
		if err != nil {
			return scalar{}, err
		}
		geLo := sqlsem.CompareNullable(">=", a.isNull() || l.isNull(), compareScalarsNonNull(a, l))
		leHi := sqlsem.CompareNullable("<=", a.isNull() || h.isNull(), compareScalarsNonNull(a, h))
		return triScalar(sqlsem.Between(geLo, leHi, v.Not)), nil
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
	return func(i int) (scalar, error) {
		a, err := val(i)
		if err != nil {
			return scalar{}, err
		}
		// Every item evaluates, also past the match: item errors defer.
		var found, listHasNull bool
		for _, item := range items {
			s, err := item(i)
			if err != nil {
				return scalar{}, deferToFallback(err)
			}
			switch {
			case found:
			case equalScalars(a, s):
				found = true
			case s.isNull():
				listHasNull = true
			}
		}
		return triScalar(inTri(a.isNull(), found, listHasNull, v.Not)), nil
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
	length := constFn(nullScalar)
	if v.Length != nil {
		if length, err = compileExpr(v.Length, b); err != nil {
			return nil, err
		}
	}
	return func(i int) (scalar, error) {
		s, err := val(i)
		if err != nil {
			return scalar{}, err
		}
		st, err := start(i)
		if err != nil {
			return scalar{}, err
		}
		lv, err := length(i)
		if err != nil || s.isNull() {
			return nullScalar, err
		}
		return scalar{kind: KindString, s: substringOf(s.render(), st, lv, v.Length != nil)}, nil
	}, nil
}

func compileFunc(v *sqlparser.FuncCall, b *Batch) (rowFn, error) {
	if v.IsAggregate() {
		return nil, fmt.Errorf("aggregate %s used outside GROUP BY context", v.Name)
	}
	args := make([]rowFn, len(v.Args))
	for ai, a := range v.Args {
		var err error
		if args[ai], err = compileExpr(a, b); err != nil {
			return nil, err
		}
	}
	switch v.Name {
	case "abs", "length", "char_length":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s expects 1 argument", v.Name)
		}
	case "round":
		if len(args) == 0 {
			return nil, fmt.Errorf("round expects at least 1 argument")
		}
	case "upper", "lower", "coalesce":
	default:
		return nil, fmt.Errorf("unknown function %q", v.Name)
	}
	return func(i int) (scalar, error) {
		// All arguments evaluate before the function applies; the common
		// arities fit the stack buffer.
		var buf [4]scalar
		vals := buf[:0]
		for _, a := range args {
			s, err := a(i)
			if err != nil {
				return scalar{}, err
			}
			vals = append(vals, s)
		}
		return applyFunc(v.Name, vals), nil
	}, nil
}

// applyFunc applies a scalar function to its evaluated arguments with the
// semantics of evalFunc's per-row loops; name and arity were checked at
// compile time.
func applyFunc(name string, vals []scalar) scalar {
	switch name {
	case "abs":
		if vals[0].isNull() {
			return nullScalar
		}
		return absScalar(vals[0])
	case "length", "char_length":
		// No NULL check: the interpreters measure the rendered value, and
		// NULL renders as the 4-character string "NULL".
		return scalar{kind: KindInt, i: int64(len(vals[0].render()))}
	case "upper":
		return scalar{kind: KindString, s: strings.ToUpper(vals[0].render())}
	case "lower":
		return scalar{kind: KindString, s: strings.ToLower(vals[0].render())}
	case "round":
		scale := 0
		if len(vals) > 1 {
			scale = int(vals[1].intVal())
		}
		return scalar{kind: KindFloat, f: roundHalfAway(vals[0].floatVal(), scale)}
	default: // coalesce
		for _, s := range vals {
			if !s.isNull() {
				return s
			}
		}
		return nullScalar
	}
}
