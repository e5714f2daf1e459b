package vexec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// evalCtx evaluates expressions over one batch. In grouped context the
// batch rows are groups: aggs maps canonical aggregate SQL text to the
// per-group aggregate column and refs maps column reference keys to the
// per-group first-row columns; both are nil in row context.
type evalCtx struct {
	ex    *executor
	batch *Batch
	aggs  map[string]*Vector
	refs  map[string]*Vector
}

func refKey(table, col string) string {
	return strings.ToLower(table) + "." + strings.ToLower(col)
}

// errEval wraps evaluation failures with the failing expression.
func errEval(e sqlparser.Expr, err error) error {
	return fmt.Errorf("evaluating %q: %w", e.SQL(), err)
}

// deferToFallback marks runtime errors raised in conditionally-evaluated
// contexts (filter conjuncts, AND/OR arms, CASE arms, IN list items) as
// ErrUnsupported. Vectorized evaluation is eager over the whole batch, so
// it can raise type errors on rows the interpreters' short-circuiting (or
// the interpreters' later filter placement) never reaches; deferring those
// statements to the interpreter keeps the engines' observable behaviour
// identical — the interpreter decides whether the query errors.
func deferToFallback(err error) error {
	if err == nil || errors.Is(err, ErrUnsupported) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrUnsupported, err)
}

// eval evaluates an expression into a dense vector over the batch's live
// rows.
func (ctx *evalCtx) eval(e sqlparser.Expr) (*Vector, error) {
	n := ctx.batch.Len()
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		s, err := parseNumberScalar(v.Value)
		if err != nil {
			return nil, err
		}
		return constVec(s, n), nil
	case *sqlparser.StringLit:
		return constVec(scalar{kind: KindString, s: v.Value}, n), nil
	case *sqlparser.BoolLit:
		b := int64(0)
		if v.Value {
			b = 1
		}
		return constVec(scalar{kind: KindBool, i: b}, n), nil
	case *sqlparser.NullLit:
		return NewNullVector(n), nil
	case *sqlparser.DateLit:
		d, err := parseDate(v.Value)
		if err != nil {
			return nil, errEval(e, fmt.Errorf("invalid date %q: %w", v.Value, err))
		}
		return constVec(scalar{kind: KindDate, i: d}, n), nil
	case *sqlparser.IntervalLit:
		// Bare intervals evaluate to their numeric count; date arithmetic
		// with a unit is handled in the BinaryExpr case.
		s, err := parseNumberScalar(v.Value)
		if err != nil {
			return nil, err
		}
		return constVec(s, n), nil
	case *sqlparser.ColumnRef:
		return ctx.resolveColumn(v)
	case *sqlparser.ParenExpr:
		return ctx.eval(v.Expr)
	case *sqlparser.UnaryExpr:
		return ctx.evalUnary(v)
	case *sqlparser.BinaryExpr:
		return ctx.evalBinary(v)
	case *sqlparser.FuncCall:
		return ctx.evalFunc(v)
	case *sqlparser.CaseExpr:
		return ctx.evalCase(v)
	case *sqlparser.BetweenExpr:
		return ctx.evalBetween(v)
	case *sqlparser.InExpr:
		return ctx.evalIn(v)
	case *sqlparser.IsNullExpr:
		val, err := ctx.eval(v.Expr)
		if err != nil {
			return nil, err
		}
		out := NewVector(KindBool, n)
		for i := 0; i < n; i++ {
			if val.IsNull(i) != v.Not {
				out.Ints[i] = 1
			}
		}
		return out, nil
	case *sqlparser.ExistsExpr:
		return ctx.evalExists(v)
	case *sqlparser.SubqueryExpr:
		return ctx.evalScalarSub(v)
	case *sqlparser.ExtractExpr:
		return ctx.evalExtract(v)
	case *sqlparser.SubstringExpr:
		return ctx.evalSubstring(v)
	case *sqlparser.CastExpr:
		return ctx.evalCast(v)
	case *sqlparser.ParamRef:
		return nil, fmt.Errorf("unresolved template parameter ${%s}", v.Name)
	default:
		return nil, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

func (ctx *evalCtx) resolveColumn(v *sqlparser.ColumnRef) (*Vector, error) {
	if ctx.refs != nil {
		if vec, ok := ctx.refs[refKey(v.Table, v.Column)]; ok {
			return vec, nil
		}
	}
	idx, err := ctx.batch.findColumn(v.Table, v.Column)
	if err != nil {
		return nil, err
	}
	return ctx.batch.dense(idx), nil
}

// constVec fills a vector with one scalar and marks it as a broadcast
// constant, which is what arms the dictionary fast paths downstream.
func constVec(s scalar, n int) *Vector {
	if s.kind == KindNull {
		return NewNullVector(n)
	}
	out := NewVector(s.kind, n)
	out.constVal = true
	switch s.kind {
	case KindInt, KindDate, KindBool:
		for i := range out.Ints {
			out.Ints[i] = s.i
		}
	case KindFloat:
		for i := range out.Floats {
			out.Floats[i] = s.f
		}
	case KindString:
		for i := range out.Strs {
			out.Strs[i] = s.s
		}
	}
	return out
}

// parseNumberScalar mirrors the interpreter's numeric literal parsing:
// integers stay exact, everything else becomes a float. Literals vexec
// cannot parse cleanly are NOT silently coerced (the interpreter's atof
// collapses garbage to 0); they defer the statement to the interpreter via
// ErrUnsupported so the engines cannot disagree on such input.
func parseNumberScalar(s string) (scalar, error) {
	if !strings.ContainsAny(s, ".eE") {
		var n int64
		neg := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if i == 0 && (c == '-' || c == '+') {
				neg = c == '-'
				continue
			}
			if c < '0' || c > '9' {
				f, err := atof(s)
				return scalar{kind: KindFloat, f: f}, err
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return scalar{kind: KindInt, i: n}, nil
	}
	f, err := atof(s)
	return scalar{kind: KindFloat, f: f}, err
}

// atof parses a float literal strictly (the whole string must parse, no
// trailing garbage). Unlike the interpreter's variant it reports failure
// instead of silently coercing: the caller defers the statement back to
// the interpreter, which owns the semantics of malformed numerics.
func atof(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: unparsable numeric literal %q", ErrUnsupported, s)
	}
	return f, nil
}

// truthy is the two-valued truth of row i: NULL is false. It implements
// the predicate-consumer collapse (sqlsem.Tri.Accept) for filters, HAVING
// and CASE WHEN arms; expression-internal logic must use triAt instead so
// UNKNOWN propagates.
func truthy(v *Vector, i int) bool {
	if v.IsNull(i) {
		return false
	}
	switch v.Kind {
	case KindBool, KindInt, KindDate:
		return v.Ints[i] != 0
	case KindFloat:
		return v.Floats[i] != 0
	default:
		return false
	}
}

// triAt lifts row i into the shared ternary-logic domain: NULL is UNKNOWN.
func triAt(v *Vector, i int) sqlsem.Tri {
	if v.IsNull(i) {
		return sqlsem.Unknown
	}
	return sqlsem.Of(truthy(v, i))
}

// setTri lowers a ternary truth value into row i of a boolean vector:
// UNKNOWN becomes NULL, so null bitmaps flow through boolean vectors
// exactly like the interpreters' NULL values flow through predicates.
func setTri(out *Vector, i int, t sqlsem.Tri) {
	switch t {
	case sqlsem.True:
		out.Ints[i] = 1
	case sqlsem.Unknown:
		out.SetNull(i)
	}
}

func (ctx *evalCtx) evalUnary(v *sqlparser.UnaryExpr) (*Vector, error) {
	val, err := ctx.eval(v.Expr)
	if err != nil {
		return nil, err
	}
	n := val.Len()
	switch v.Op {
	case "NOT":
		out := NewVector(KindBool, n)
		for i := 0; i < n; i++ {
			setTri(out, i, sqlsem.Not(triAt(val, i)))
		}
		return out, nil
	case "-":
		// Fast paths for homogeneous numeric vectors.
		if val.Kind == KindInt {
			out := NewVector(KindInt, n)
			for i := 0; i < n; i++ {
				out.Ints[i] = -val.Ints[i]
			}
			out.Nulls = copyNulls(val.Nulls)
			return out, nil
		}
		if val.Kind == KindFloat && val.IsInt == nil {
			out := NewVector(KindFloat, n)
			for i := 0; i < n; i++ {
				out.Floats[i] = -val.Floats[i]
			}
			out.Nulls = copyNulls(val.Nulls)
			return out, nil
		}
		bld := newBuilder(n)
		for i := 0; i < n; i++ {
			s := val.At(i)
			switch s.kind {
			case KindNull:
				bld.append(nullScalar)
			case KindInt:
				bld.append(scalar{kind: KindInt, i: -s.i})
			default:
				bld.append(scalar{kind: KindFloat, f: -s.floatVal()})
			}
		}
		return bld.finalize()
	case "+":
		return val, nil
	default:
		return nil, fmt.Errorf("unknown unary operator %q", v.Op)
	}
}

func copyNulls(nulls []bool) []bool {
	if nulls == nil {
		return nil
	}
	out := make([]bool, len(nulls))
	copy(out, nulls)
	return out
}

func (ctx *evalCtx) evalBinary(v *sqlparser.BinaryExpr) (*Vector, error) {
	switch v.Op {
	case "AND", "OR":
		l, err := ctx.eval(v.Left)
		if err != nil {
			return nil, deferToFallback(err)
		}
		r, err := ctx.eval(v.Right)
		if err != nil {
			return nil, deferToFallback(err)
		}
		n := l.Len()
		out := NewVector(KindBool, n)
		if v.Op == "AND" {
			for i := 0; i < n; i++ {
				setTri(out, i, sqlsem.And(triAt(l, i), triAt(r, i)))
			}
		} else {
			for i := 0; i < n; i++ {
				setTri(out, i, sqlsem.Or(triAt(l, i), triAt(r, i)))
			}
		}
		return out, nil
	}

	// Date +/- INTERVAL with a calendar unit.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := ctx.eval(v.Left)
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
		n := l.Len()
		out := NewVector(KindDate, n)
		for i := 0; i < n; i++ {
			s := l.At(i)
			if s.isNull() {
				out.SetNull(i)
				continue
			}
			if s.kind != KindDate {
				return nil, fmt.Errorf("interval arithmetic requires a date, got %s", s.kind)
			}
			d, ok := addInterval(s.i, nv, iv.Unit)
			if !ok {
				return nil, fmt.Errorf("unknown interval unit %q", iv.Unit)
			}
			out.Ints[i] = d
		}
		return out, nil
	}

	l, err := ctx.eval(v.Left)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(v.Right)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "+", "-", "*", "/", "%", "||":
		out, err := arithVec(v.Op, l, r)
		if err != nil {
			return nil, errEval(v, err)
		}
		return out, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return cmpVec(v.Op, l, r), nil
	case "LIKE", "NOT LIKE":
		return likeVec(l, r, v.Op == "NOT LIKE"), nil
	default:
		return nil, fmt.Errorf("unknown binary operator %q", v.Op)
	}
}

// arithScalar mirrors engine.Arithmetic exactly: numeric promotion, date
// day-count arithmetic, integer-preserving division, NULL on division by
// zero.
func arithScalar(op string, a, b scalar) (scalar, error) {
	if a.isNull() || b.isNull() {
		return nullScalar, nil
	}
	if a.kind == KindDate && b.isNumeric() {
		switch op {
		case "+":
			return scalar{kind: KindDate, i: a.i + b.intVal()}, nil
		case "-":
			return scalar{kind: KindDate, i: a.i - b.intVal()}, nil
		}
	}
	if a.kind == KindDate && b.kind == KindDate && op == "-" {
		return scalar{kind: KindInt, i: a.i - b.i}, nil
	}
	if a.kind == KindString || b.kind == KindString {
		if op == "||" {
			return scalar{kind: KindString, s: a.render() + b.render()}, nil
		}
		return scalar{}, fmt.Errorf("cannot apply %q to %s and %s", op, a.kind, b.kind)
	}
	if op == "||" {
		return scalar{kind: KindString, s: a.render() + b.render()}, nil
	}
	if a.kind == KindInt && b.kind == KindInt {
		switch op {
		case "+":
			return scalar{kind: KindInt, i: a.i + b.i}, nil
		case "-":
			return scalar{kind: KindInt, i: a.i - b.i}, nil
		case "*":
			return scalar{kind: KindInt, i: a.i * b.i}, nil
		case "%":
			if b.i == 0 {
				return nullScalar, nil
			}
			return scalar{kind: KindInt, i: a.i % b.i}, nil
		case "/":
			if b.i == 0 {
				return nullScalar, nil
			}
			if a.i%b.i == 0 {
				return scalar{kind: KindInt, i: a.i / b.i}, nil
			}
			return scalar{kind: KindFloat, f: float64(a.i) / float64(b.i)}, nil
		}
	}
	af, bf := a.floatVal(), b.floatVal()
	switch op {
	case "+":
		return scalar{kind: KindFloat, f: af + bf}, nil
	case "-":
		return scalar{kind: KindFloat, f: af - bf}, nil
	case "*":
		return scalar{kind: KindFloat, f: af * bf}, nil
	case "/":
		if bf == 0 {
			return nullScalar, nil
		}
		return scalar{kind: KindFloat, f: af / bf}, nil
	case "%":
		if bf == 0 {
			return nullScalar, nil
		}
		return scalar{kind: KindFloat, f: float64(int64(af) % int64(bf))}, nil
	default:
		return scalar{}, fmt.Errorf("unknown arithmetic operator %q", op)
	}
}

// arithVec applies an arithmetic operator element-wise with typed fast
// paths for the hot shapes (pure int and pure float vectors) and a generic
// scalar loop for everything else.
func arithVec(op string, l, r *Vector) (*Vector, error) {
	n := l.Len()
	pureFloat := func(v *Vector) bool { return v.Kind == KindFloat && v.IsInt == nil }

	// int op int for the exact operators.
	if l.Kind == KindInt && r.Kind == KindInt && (op == "+" || op == "-" || op == "*") {
		out := NewVector(KindInt, n)
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			switch op {
			case "+":
				out.Ints[i] = l.Ints[i] + r.Ints[i]
			case "-":
				out.Ints[i] = l.Ints[i] - r.Ints[i]
			case "*":
				out.Ints[i] = l.Ints[i] * r.Ints[i]
			}
		}
		return out, nil
	}

	// Mixes of pure int and pure float vectors for + - *.
	numericPure := func(v *Vector) bool { return v.Kind == KindInt || pureFloat(v) }
	if numericPure(l) && numericPure(r) && (pureFloat(l) || pureFloat(r)) && (op == "+" || op == "-" || op == "*") {
		out := NewVector(KindFloat, n)
		lf := func(i int) float64 {
			if l.Kind == KindInt {
				return float64(l.Ints[i])
			}
			return l.Floats[i]
		}
		rf := func(i int) float64 {
			if r.Kind == KindInt {
				return float64(r.Ints[i])
			}
			return r.Floats[i]
		}
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			switch op {
			case "+":
				out.Floats[i] = lf(i) + rf(i)
			case "-":
				out.Floats[i] = lf(i) - rf(i)
			case "*":
				out.Floats[i] = lf(i) * rf(i)
			}
		}
		return out, nil
	}

	// Generic scalar path covering division, modulo, concatenation, dates,
	// bools and the int/float duality masks.
	bld := newBuilder(n)
	for i := 0; i < n; i++ {
		s, err := arithScalar(op, l.At(i), r.At(i))
		if err != nil {
			return nil, err
		}
		bld.append(s)
	}
	return bld.finalize()
}

// cmpVec applies a comparison operator with ternary NULL semantics: any
// NULL operand marks the output row NULL (UNKNOWN), matching the
// interpreters and sqlsem.CompareNullable. The typed fast paths only skip
// the boxing, never the null bitmap.
func cmpVec(op string, l, r *Vector) *Vector {
	n := l.Len()
	out := NewVector(KindBool, n)
	set := func(i, c int) {
		if sqlsem.Compare(op, c) == sqlsem.True {
			out.Ints[i] = 1
		}
	}
	intKinds := func(v *Vector) bool {
		return v.Kind == KindInt || v.Kind == KindDate || v.Kind == KindBool
	}
	switch {
	case intKinds(l) && intKinds(r):
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			a, b := l.Ints[i], r.Ints[i]
			c := 0
			if a < b {
				c = -1
			} else if a > b {
				c = 1
			}
			set(i, c)
		}
	case l.Kind == KindFloat && l.IsInt == nil && r.Kind == KindFloat && r.IsInt == nil:
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			a, b := l.Floats[i], r.Floats[i]
			c := 0
			if a < b {
				c = -1
			} else if a > b {
				c = 1
			}
			set(i, c)
		}
	case l.Kind == KindString && r.Kind == KindString && l.Dict != nil && l.Dict == r.Dict:
		// Shared dictionary: code order is value order, so the comparison
		// never touches the strings.
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			a, b := l.Codes[i], r.Codes[i]
			c := 0
			if a < b {
				c = -1
			} else if a > b {
				c = 1
			}
			set(i, c)
		}
	case n > 0 && l.Dict != nil && r.constVal && r.Kind == KindString:
		// Column-vs-literal: one binary search resolves the literal to a
		// code (or its insertion point), then every row compares codes.
		code, exact := l.Dict.Code(r.Strs[0])
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			set(i, dictCmp(l.Codes[i], code, exact))
		}
	case n > 0 && r.Dict != nil && l.constVal && l.Kind == KindString:
		code, exact := r.Dict.Code(l.Strs[0])
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			set(i, -dictCmp(r.Codes[i], code, exact))
		}
	case l.Kind == KindString && r.Kind == KindString:
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			set(i, strings.Compare(l.StrAt(i), r.StrAt(i)))
		}
	default:
		for i := 0; i < n; i++ {
			a, b := l.At(i), r.At(i)
			if a.isNull() || b.isNull() {
				out.SetNull(i)
				continue
			}
			set(i, compareScalars(a, b))
		}
	}
	return out
}

// dictCmp is the sign of strings.Compare(dict.Vals[c], q) given q's binary
// search result: when q is present, code comparison; when absent, every
// code below the insertion point sorts before q and every code at or above
// it sorts after.
func dictCmp(c, code uint32, exact bool) int {
	if exact {
		if c < code {
			return -1
		} else if c > code {
			return 1
		}
		return 0
	}
	if c < code {
		return -1
	}
	return 1
}

// likeVec applies LIKE / NOT LIKE with ternary NULL semantics: a NULL
// string or pattern yields NULL, negation included (NOT UNKNOWN stays
// UNKNOWN).
func likeVec(l, r *Vector, negate bool) *Vector {
	n := l.Len()
	out := NewVector(KindBool, n)
	if n > 0 && l.Dict != nil && r.constVal && r.Kind == KindString && len(l.Dict.Vals) <= 4*n {
		// Low-cardinality dictionary against a constant pattern: match each
		// distinct value once, then the scan loop is a table lookup.
		table := make([]bool, len(l.Dict.Vals))
		for c, s := range l.Dict.Vals {
			table[c] = likeMatch(s, r.Strs[0])
		}
		for i := 0; i < n; i++ {
			if l.IsNull(i) {
				setTri(out, i, sqlsem.Like(true, false, negate))
				continue
			}
			setTri(out, i, sqlsem.Like(false, table[l.Codes[i]], negate))
		}
		return out
	}
	for i := 0; i < n; i++ {
		a, b := l.At(i), r.At(i)
		eitherNull := a.isNull() || b.isNull()
		matched := false
		if !eitherNull {
			matched = likeMatch(a.render(), b.render())
		}
		setTri(out, i, sqlsem.Like(eitherNull, matched, negate))
	}
	return out
}

func (ctx *evalCtx) evalCase(v *sqlparser.CaseExpr) (*Vector, error) {
	n := ctx.batch.Len()
	var operand *Vector
	var err error
	if v.Operand != nil {
		operand, err = ctx.eval(v.Operand)
		if err != nil {
			return nil, err
		}
	}
	conds := make([]*Vector, len(v.Whens))
	thens := make([]*Vector, len(v.Whens))
	for wi, w := range v.Whens {
		if conds[wi], err = ctx.eval(w.When); err != nil {
			return nil, deferToFallback(err)
		}
		if thens[wi], err = ctx.eval(w.Then); err != nil {
			return nil, deferToFallback(err)
		}
	}
	var elseVec *Vector
	if v.Else != nil {
		if elseVec, err = ctx.eval(v.Else); err != nil {
			return nil, deferToFallback(err)
		}
	}
	bld := newBuilder(n)
	for i := 0; i < n; i++ {
		matched := false
		for wi := range v.Whens {
			var hit bool
			if operand != nil {
				hit = equalScalars(operand.At(i), conds[wi].At(i))
			} else {
				hit = truthy(conds[wi], i)
			}
			if hit {
				bld.append(thens[wi].At(i))
				matched = true
				break
			}
		}
		if !matched {
			if elseVec != nil {
				bld.append(elseVec.At(i))
			} else {
				bld.append(nullScalar)
			}
		}
	}
	return bld.finalize()
}

func (ctx *evalCtx) evalBetween(v *sqlparser.BetweenExpr) (*Vector, error) {
	val, err := ctx.eval(v.Expr)
	if err != nil {
		return nil, err
	}
	lo, err := ctx.eval(v.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := ctx.eval(v.Hi)
	if err != nil {
		return nil, err
	}
	n := val.Len()
	out := NewVector(KindBool, n)
	for i := 0; i < n; i++ {
		a, l, h := val.At(i), lo.At(i), hi.At(i)
		geLo := sqlsem.CompareNullable(">=", a.isNull() || l.isNull(), compareScalarsNonNull(a, l))
		leHi := sqlsem.CompareNullable("<=", a.isNull() || h.isNull(), compareScalarsNonNull(a, h))
		setTri(out, i, sqlsem.Between(geLo, leHi, v.Not))
	}
	return out, nil
}

// compareScalarsNonNull compares two scalars when neither is NULL; with a
// NULL operand the result is unused (CompareNullable short-circuits to
// UNKNOWN) and zero is returned.
func compareScalarsNonNull(a, b scalar) int {
	if a.isNull() || b.isNull() {
		return 0
	}
	return compareScalars(a, b)
}

func (ctx *evalCtx) evalIn(v *sqlparser.InExpr) (*Vector, error) {
	if v.Subquery != nil {
		return ctx.evalInSub(v)
	}
	val, err := ctx.eval(v.Expr)
	if err != nil {
		return nil, err
	}
	items := make([]*Vector, len(v.List))
	for ii, item := range v.List {
		if items[ii], err = ctx.eval(item); err != nil {
			return nil, deferToFallback(err)
		}
	}
	n := val.Len()
	out := NewVector(KindBool, n)
	if codes, listHasNull, ok := dictInCodes(val, items); ok {
		// Dictionary-coded value against an all-literal string list: the
		// list resolves to a code set once, and each row is code lookups.
		for i := 0; i < n; i++ {
			if val.IsNull(i) {
				setTri(out, i, inTri(true, false, listHasNull, v.Not))
				continue
			}
			c := val.Codes[i]
			found := false
			for _, want := range codes {
				if c == want {
					found = true
					break
				}
			}
			setTri(out, i, inTri(false, found, listHasNull, v.Not))
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		a := val.At(i)
		var found, listHasNull bool
		for _, item := range items {
			s := item.At(i)
			if equalScalars(a, s) {
				found = true
				break
			}
			if s.isNull() {
				listHasNull = true
			}
		}
		t := sqlsem.In(a.isNull(), found, listHasNull, false)
		if v.Not {
			t = sqlsem.Not(t)
		}
		setTri(out, i, t)
	}
	return out, nil
}

// inTri folds the IN truth table plus optional negation.
func inTri(valNull, found, listHasNull, not bool) sqlsem.Tri {
	t := sqlsem.In(valNull, found, listHasNull, false)
	if not {
		t = sqlsem.Not(t)
	}
	return t
}

// dictInCodes resolves an IN list against a dictionary-coded value vector:
// ok only when every list item is a broadcast string constant (or a NULL
// literal), in which case the present items' codes are returned. Items
// absent from the dictionary simply contribute no code — they can never
// match any row.
func dictInCodes(val *Vector, items []*Vector) (codes []uint32, listHasNull, ok bool) {
	if val.Dict == nil || val.Len() == 0 {
		return nil, false, false
	}
	for _, item := range items {
		switch {
		case item.Kind == KindNull:
			listHasNull = true
		case item.constVal && item.Kind == KindString:
			if c, exact := val.Dict.Code(item.Strs[0]); exact {
				codes = append(codes, c)
			}
		default:
			return nil, false, false
		}
	}
	return codes, listHasNull, true
}

// subFor looks up the prepared state of a sub-query use site.
func (ctx *evalCtx) subFor(s *sqlparser.SelectStatement) (*subState, error) {
	if st, ok := ctx.ex.subs[s]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("%w: sub-query was not prepared", ErrUnsupported)
}

// applyCandidates probes a decorrelated hash build with the batch's outer
// correlation keys: cand lists the matching inner rows of every live batch
// row, off[i]..off[i+1] delimiting row i's range in inner-row order. Pair
// conjuncts (the non-equi correlation predicates) filter the candidates with
// two-valued truth — the same collapse the interpreter's sub-query WHERE
// filter applies. Probing mutates nothing, so filters holding probes run
// safely from morsel workers.
func (ctx *evalCtx) applyCandidates(as *applyState) (cand []int32, off []int32, err error) {
	b := ctx.batch
	n := b.Len()
	keyVecs := make([]*Vector, len(as.outerKeys))
	for i, k := range as.outerKeys {
		if keyVecs[i], err = ctx.eval(k); err != nil {
			return nil, nil, deferToFallback(err)
		}
	}
	off = make([]int32, n+1)
	var buf []byte
	for i := 0; i < n; i++ {
		// A NULL outer key matches nothing: equality with NULL is UNKNOWN.
		if !nullKeyRow(keyVecs, i) {
			buf = encodeRowKey(buf[:0], keyVecs, i)
			if g, ok := as.groups[string(buf)]; ok {
				for r := as.lists.head[g]; r >= 0; r = as.lists.next[r] {
					cand = append(cand, r)
				}
			}
		}
		off[i+1] = int32(len(cand))
	}
	if len(as.pairConjuncts) == 0 || len(cand) == 0 {
		return cand, off, nil
	}

	outerIdx := make([]int, len(cand))
	innerIdx := make([]int, len(cand))
	for i := 0; i < n; i++ {
		for k := off[i]; k < off[i+1]; k++ {
			outerIdx[k] = b.physRow(i)
			innerIdx[k] = int(cand[k])
		}
	}
	pctx := &evalCtx{ex: ctx.ex, batch: pairBatch(b, outerIdx, as.inner, innerIdx)}
	pass := make([]bool, len(cand))
	for i := range pass {
		pass[i] = true
	}
	for _, c := range as.pairConjuncts {
		v, err := pctx.eval(c)
		if err != nil {
			return nil, nil, deferToFallback(err)
		}
		for k := range pass {
			if pass[k] && (v.IsNull(k) || !truthy(v, k)) {
				pass[k] = false
			}
		}
	}
	// Compact the survivors in place; the write index never overtakes the
	// read index.
	out := cand[:0]
	newOff := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for k := off[i]; k < off[i+1]; k++ {
			if pass[k] {
				out = append(out, cand[k])
			}
		}
		newOff[i+1] = int32(len(out))
	}
	return out, newOff, nil
}

// evalExists answers EXISTS/NOT EXISTS. Uncorrelated sites are a constant;
// correlated sites ask whether any candidate survives the key probe and the
// pair conjuncts. The result is always two-valued, like the interpreters'.
func (ctx *evalCtx) evalExists(v *sqlparser.ExistsExpr) (*Vector, error) {
	st, err := ctx.subFor(v.Subquery)
	if err != nil {
		return nil, err
	}
	n := ctx.batch.Len()
	out := NewVector(KindBool, n)
	if !st.correlated {
		if st.exists != v.Not {
			for i := range out.Ints {
				out.Ints[i] = 1
			}
		}
		return out, nil
	}
	_, off, err := ctx.applyCandidates(st.apply)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if (off[i+1] > off[i]) != v.Not {
			out.Ints[i] = 1
		}
	}
	return out, nil
}

// evalScalarSub answers a scalar sub-query site. Uncorrelated sites broadcast
// the materialized first-row value; ApplyAgg sites look their aggregate group
// up directly by outer key (falling back to the empty-group value); ApplyFirst
// sites take the first surviving candidate's projected value, NULL when none.
func (ctx *evalCtx) evalScalarSub(v *sqlparser.SubqueryExpr) (*Vector, error) {
	st, err := ctx.subFor(v.Select)
	if err != nil {
		return nil, err
	}
	n := ctx.batch.Len()
	if !st.correlated {
		return constVec(st.scalarVal, n), nil
	}
	as := st.apply
	if as.shape == plan.ApplyAgg {
		keyVecs := make([]*Vector, len(as.outerKeys))
		for i, k := range as.outerKeys {
			if keyVecs[i], err = ctx.eval(k); err != nil {
				return nil, deferToFallback(err)
			}
		}
		bld := newBuilder(n)
		var buf []byte
		for i := 0; i < n; i++ {
			if nullKeyRow(keyVecs, i) {
				bld.append(as.emptyVal)
				continue
			}
			buf = encodeRowKey(buf[:0], keyVecs, i)
			if g, ok := as.groups[string(buf)]; ok {
				bld.append(as.groupVals.At(int(g)))
			} else {
				bld.append(as.emptyVal)
			}
		}
		return bld.finalize()
	}
	cand, off, err := ctx.applyCandidates(as)
	if err != nil {
		return nil, err
	}
	bld := newBuilder(n)
	for i := 0; i < n; i++ {
		if off[i+1] > off[i] {
			bld.append(as.projVals.At(int(cand[off[i]])))
		} else {
			bld.append(nullScalar)
		}
	}
	return bld.finalize()
}

// evalInSub answers IN/NOT IN against a sub-query with the shared ternary
// membership semantics (sqlsem.In): an uncorrelated site probes the
// materialized set, a correlated site scans its candidate rows' projected
// values — the per-row image of the interpreter's membership set.
func (ctx *evalCtx) evalInSub(v *sqlparser.InExpr) (*Vector, error) {
	st, err := ctx.subFor(v.Subquery)
	if err != nil {
		return nil, err
	}
	val, err := ctx.eval(v.Expr)
	if err != nil {
		return nil, err
	}
	n := val.Len()
	out := NewVector(KindBool, n)
	if !st.correlated {
		var buf []byte
		for i := 0; i < n; i++ {
			a := val.At(i)
			found := false
			if !a.isNull() && len(st.set) > 0 {
				buf = appendScalarKey(buf[:0], a)
				found = st.set[string(buf)]
			}
			t := sqlsem.In(a.isNull(), found, st.setHasNull, st.setEmpty)
			if v.Not {
				t = sqlsem.Not(t)
			}
			setTri(out, i, t)
		}
		return out, nil
	}
	as := st.apply
	cand, off, err := ctx.applyCandidates(as)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		a := val.At(i)
		var found, hasNull bool
		for k := off[i]; k < off[i+1]; k++ {
			s := as.projVals.At(int(cand[k]))
			if s.isNull() {
				hasNull = true
				continue
			}
			if equalScalars(a, s) {
				found = true
				break
			}
		}
		t := sqlsem.In(a.isNull(), found, hasNull, off[i+1] == off[i])
		if v.Not {
			t = sqlsem.Not(t)
		}
		setTri(out, i, t)
	}
	return out, nil
}

func (ctx *evalCtx) evalExtract(v *sqlparser.ExtractExpr) (*Vector, error) {
	val, err := ctx.eval(v.From)
	if err != nil {
		return nil, err
	}
	n := val.Len()
	out := NewVector(KindInt, n)
	for i := 0; i < n; i++ {
		s := val.At(i)
		if s.isNull() {
			out.SetNull(i)
			continue
		}
		if s.kind != KindDate {
			return nil, errEval(v, fmt.Errorf("EXTRACT requires a date, got %s", s.kind))
		}
		out.Ints[i] = datePart(v.Unit, s.i)
	}
	return out, nil
}

func (ctx *evalCtx) evalSubstring(v *sqlparser.SubstringExpr) (*Vector, error) {
	val, err := ctx.eval(v.Expr)
	if err != nil {
		return nil, err
	}
	start, err := ctx.eval(v.Start)
	if err != nil {
		return nil, err
	}
	var length *Vector
	if v.Length != nil {
		if length, err = ctx.eval(v.Length); err != nil {
			return nil, err
		}
	}
	n := val.Len()
	out := NewVector(KindString, n)
	for i := 0; i < n; i++ {
		s := val.At(i)
		if s.isNull() {
			out.SetNull(i)
			continue
		}
		var lv scalar
		if length != nil {
			lv = length.At(i)
		}
		out.Strs[i] = substringOf(s.render(), start.At(i), lv, length != nil)
	}
	return out, nil
}

func (ctx *evalCtx) evalCast(v *sqlparser.CastExpr) (*Vector, error) {
	val, err := ctx.eval(v.Expr)
	if err != nil {
		return nil, err
	}
	n := val.Len()
	bld := newBuilder(n)
	for i := 0; i < n; i++ {
		s := val.At(i)
		if s.isNull() {
			bld.append(nullScalar)
			continue
		}
		c, err := castScalar(s, v.Type)
		if err != nil {
			return nil, err
		}
		bld.append(c)
	}
	return bld.finalize()
}

func (ctx *evalCtx) evalFunc(v *sqlparser.FuncCall) (*Vector, error) {
	if v.IsAggregate() {
		if ctx.aggs == nil {
			return nil, fmt.Errorf("aggregate %s used outside GROUP BY context", v.Name)
		}
		vec, ok := ctx.aggs[v.SQL()]
		if !ok {
			return nil, fmt.Errorf("internal: aggregate %s was not precomputed", v.SQL())
		}
		return vec, nil
	}
	n := ctx.batch.Len()
	args := make([]*Vector, len(v.Args))
	for ai, a := range v.Args {
		var err error
		if args[ai], err = ctx.eval(a); err != nil {
			return nil, err
		}
	}
	switch v.Name {
	case "abs":
		if len(args) != 1 {
			return nil, fmt.Errorf("abs expects 1 argument")
		}
		bld := newBuilder(n)
		for i := 0; i < n; i++ {
			s := args[0].At(i)
			if s.isNull() {
				bld.append(nullScalar)
				continue
			}
			bld.append(absScalar(s))
		}
		return bld.finalize()
	case "length", "char_length":
		if len(args) != 1 {
			return nil, fmt.Errorf("%s expects 1 argument", v.Name)
		}
		out := NewVector(KindInt, n)
		for i := 0; i < n; i++ {
			out.Ints[i] = int64(len(args[0].At(i).render()))
		}
		return out, nil
	case "upper", "lower":
		out := NewVector(KindString, n)
		for i := 0; i < n; i++ {
			if v.Name == "upper" {
				out.Strs[i] = strings.ToUpper(args[0].At(i).render())
			} else {
				out.Strs[i] = strings.ToLower(args[0].At(i).render())
			}
		}
		return out, nil
	case "coalesce":
		bld := newBuilder(n)
		for i := 0; i < n; i++ {
			picked := nullScalar
			for _, a := range args {
				if s := a.At(i); !s.isNull() {
					picked = s
					break
				}
			}
			bld.append(picked)
		}
		return bld.finalize()
	case "round":
		if len(args) == 0 {
			return nil, fmt.Errorf("round expects at least 1 argument")
		}
		out := NewVector(KindFloat, n)
		for i := 0; i < n; i++ {
			scale := 0
			if len(args) > 1 {
				scale = int(args[1].At(i).intVal())
			}
			out.Floats[i] = roundHalfAway(args[0].At(i).floatVal(), scale)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown function %q", v.Name)
	}
}
