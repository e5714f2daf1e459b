package engine

import (
	"fmt"
	"strings"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// tri lifts a runtime value into the shared ternary-logic domain: NULL is
// UNKNOWN, everything else its two-valued truth.
func tri(v Value) sqlsem.Tri {
	if v.IsNull() {
		return sqlsem.Unknown
	}
	return sqlsem.Of(v.Bool())
}

// triValue lowers a ternary truth value back into the value domain: UNKNOWN
// becomes NULL. Predicate consumers (filters, HAVING, CASE arms, join
// conditions) never see the NULL — they collapse it with Value.Bool — but a
// predicate in projection position surfaces it.
func triValue(t sqlsem.Tri) Value {
	if !t.Known() {
		return Null()
	}
	return NewBool(t == sqlsem.True)
}

// scope is one level of column visibility: a relation plus the current row,
// chained to the enclosing query's scope for correlated sub-queries.
type scope struct {
	rel   *relation
	row   int
	outer *scope
}

// evaluator evaluates scalar expressions against a scope chain. When group
// is non-nil the evaluator is in aggregate context: aggregate function calls
// are computed over the listed row indexes of the scope relation, and plain
// column references resolve against the first row of the group.
type evaluator struct {
	ex    *executor
	sc    *scope
	group []int
}

// errEval wraps evaluation failures with the failing expression.
func errEval(e sqlparser.Expr, err error) error {
	return fmt.Errorf("evaluating %q: %w", e.SQL(), err)
}

// resolve looks a column reference up in the scope chain.
func (ev *evaluator) resolve(table, name string) (Value, error) {
	for s := ev.sc; s != nil; s = s.outer {
		idx, err := s.rel.findColumn(table, name)
		if err == nil {
			if s == ev.sc && ev.group != nil && len(ev.group) == 0 {
				// The global group of an ungrouped aggregate over empty input
				// has no first row: its plain columns are NULL.
				return Null(), nil
			}
			return s.rel.value(s.row, idx), nil
		}
		if err != errColumnNotFound {
			return Value{}, err
		}
	}
	if table != "" {
		return Value{}, fmt.Errorf("unknown column %s.%s", table, name)
	}
	return Value{}, fmt.Errorf("unknown column %s", name)
}

// eval evaluates an expression to a single value.
func (ev *evaluator) eval(e sqlparser.Expr) (Value, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		return parseNumber(v.Value), nil
	case *sqlparser.StringLit:
		return NewString(v.Value), nil
	case *sqlparser.BoolLit:
		return NewBool(v.Value), nil
	case *sqlparser.NullLit:
		return Null(), nil
	case *sqlparser.DateLit:
		d, err := ParseDate(v.Value)
		if err != nil {
			return Value{}, errEval(e, err)
		}
		return NewDate(d), nil
	case *sqlparser.IntervalLit:
		// Bare intervals only appear as the right operand of date arithmetic
		// which is handled in the BinaryExpr case; evaluating one directly
		// yields its numeric count (used for day intervals).
		return parseNumber(v.Value), nil
	case *sqlparser.ColumnRef:
		return ev.resolve(v.Table, v.Column)
	case *sqlparser.ParenExpr:
		return ev.eval(v.Expr)
	case *sqlparser.UnaryExpr:
		return ev.evalUnary(v)
	case *sqlparser.BinaryExpr:
		return ev.evalBinary(v)
	case *sqlparser.FuncCall:
		return ev.evalFunc(v)
	case *sqlparser.CaseExpr:
		return ev.evalCase(v)
	case *sqlparser.BetweenExpr:
		return ev.evalBetween(v)
	case *sqlparser.InExpr:
		return ev.evalIn(v)
	case *sqlparser.ExistsExpr:
		rel, err := ev.ex.executeSubquery(v.Subquery, ev.sc)
		if err != nil {
			return Value{}, errEval(e, err)
		}
		if v.Not {
			return NewBool(rel.numRows() == 0), nil
		}
		return NewBool(rel.numRows() > 0), nil
	case *sqlparser.IsNullExpr:
		val, err := ev.eval(v.Expr)
		if err != nil {
			return Value{}, err
		}
		if v.Not {
			return NewBool(!val.IsNull()), nil
		}
		return NewBool(val.IsNull()), nil
	case *sqlparser.SubqueryExpr:
		rel, err := ev.ex.executeSubquery(v.Select, ev.sc)
		if err != nil {
			return Value{}, errEval(e, err)
		}
		if rel.numRows() == 0 || len(rel.cols) == 0 {
			return Null(), nil
		}
		return rel.value(0, 0), nil
	case *sqlparser.ExtractExpr:
		val, err := ev.eval(v.From)
		if err != nil {
			return Value{}, err
		}
		if val.IsNull() {
			return Null(), nil
		}
		if val.Kind != KindDate {
			return Value{}, errEval(e, fmt.Errorf("EXTRACT requires a date, got %s", val.Kind))
		}
		y, m, d := DateParts(val.I)
		switch v.Unit {
		case "YEAR":
			return NewInt(int64(y)), nil
		case "MONTH":
			return NewInt(int64(m)), nil
		default:
			return NewInt(int64(d)), nil
		}
	case *sqlparser.SubstringExpr:
		return ev.evalSubstring(v)
	case *sqlparser.CastExpr:
		return ev.evalCast(v)
	case *sqlparser.ParamRef:
		return Value{}, fmt.Errorf("unresolved template parameter ${%s}", v.Name)
	default:
		return Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

func parseNumber(s string) Value {
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
				return NewFloat(atof(s))
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return NewInt(n)
	}
	return NewFloat(atof(s))
}

func atof(s string) float64 {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	if err != nil {
		return 0
	}
	return f
}

func (ev *evaluator) evalUnary(v *sqlparser.UnaryExpr) (Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	switch v.Op {
	case "NOT":
		return triValue(sqlsem.Not(tri(val))), nil
	case "-":
		if val.IsNull() {
			return Null(), nil
		}
		if val.Kind == KindInt {
			return NewInt(-val.I), nil
		}
		return NewFloat(-val.Float()), nil
	case "+":
		return val, nil
	default:
		return Value{}, fmt.Errorf("unknown unary operator %q", v.Op)
	}
}

func (ev *evaluator) evalBinary(v *sqlparser.BinaryExpr) (Value, error) {
	switch v.Op {
	case "AND":
		l, err := ev.eval(v.Left)
		if err != nil {
			return Value{}, err
		}
		lt := tri(l)
		if lt == sqlsem.False {
			// Definite FALSE short-circuits; UNKNOWN must still see the
			// right side (UNKNOWN AND FALSE is FALSE, not UNKNOWN).
			return NewBool(false), nil
		}
		r, err := ev.eval(v.Right)
		if err != nil {
			return Value{}, err
		}
		return triValue(sqlsem.And(lt, tri(r))), nil
	case "OR":
		l, err := ev.eval(v.Left)
		if err != nil {
			return Value{}, err
		}
		lt := tri(l)
		if lt == sqlsem.True {
			return NewBool(true), nil
		}
		r, err := ev.eval(v.Right)
		if err != nil {
			return Value{}, err
		}
		return triValue(sqlsem.Or(lt, tri(r))), nil
	}

	// Date +/- INTERVAL handled before generic arithmetic.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := ev.eval(v.Left)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() {
			return Null(), nil
		}
		n := parseNumber(iv.Value).Int()
		if v.Op == "-" {
			n = -n
		}
		if l.Kind != KindDate {
			return Value{}, fmt.Errorf("interval arithmetic requires a date, got %s", l.Kind)
		}
		d, err := AddInterval(l.I, n, iv.Unit)
		if err != nil {
			return Value{}, err
		}
		return NewDate(d), nil
	}

	l, err := ev.eval(v.Left)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(v.Right)
	if err != nil {
		return Value{}, err
	}
	switch v.Op {
	case "+", "-", "*", "/", "%", "||":
		val, err := Arithmetic(v.Op, l, r)
		if err != nil {
			return Value{}, errEval(v, err)
		}
		return val, nil
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return triValue(sqlsem.Unknown), nil
		}
		return triValue(sqlsem.Compare(v.Op, Compare(l, r))), nil
	case "LIKE", "NOT LIKE":
		eitherNull := l.IsNull() || r.IsNull()
		matched := false
		if !eitherNull {
			matched = Like(l.String(), r.String())
		}
		return triValue(sqlsem.Like(eitherNull, matched, v.Op == "NOT LIKE")), nil
	default:
		return Value{}, fmt.Errorf("unknown binary operator %q", v.Op)
	}
}

func (ev *evaluator) evalCase(v *sqlparser.CaseExpr) (Value, error) {
	var operand Value
	var err error
	if v.Operand != nil {
		operand, err = ev.eval(v.Operand)
		if err != nil {
			return Value{}, err
		}
	}
	for _, w := range v.Whens {
		cond, err := ev.eval(w.When)
		if err != nil {
			return Value{}, err
		}
		matched := false
		if v.Operand != nil {
			matched = Equal(operand, cond)
		} else {
			matched = cond.Bool()
		}
		if matched {
			return ev.eval(w.Then)
		}
	}
	if v.Else != nil {
		return ev.eval(v.Else)
	}
	return Null(), nil
}

func (ev *evaluator) evalBetween(v *sqlparser.BetweenExpr) (Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	lo, err := ev.eval(v.Lo)
	if err != nil {
		return Value{}, err
	}
	hi, err := ev.eval(v.Hi)
	if err != nil {
		return Value{}, err
	}
	geLo := sqlsem.CompareNullable(">=", val.IsNull() || lo.IsNull(), compareNonNull(val, lo))
	leHi := sqlsem.CompareNullable("<=", val.IsNull() || hi.IsNull(), compareNonNull(val, hi))
	return triValue(sqlsem.Between(geLo, leHi, v.Not)), nil
}

// compareNonNull compares two values when neither is NULL; with a NULL
// operand the result is unused (CompareNullable short-circuits to UNKNOWN)
// and zero is returned.
func compareNonNull(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		return 0
	}
	return Compare(a, b)
}

func (ev *evaluator) evalIn(v *sqlparser.InExpr) (Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	var found, listHasNull, listEmpty bool
	if v.Subquery != nil {
		set, hasNull, err := ev.ex.subquerySet(v.Subquery, ev.sc)
		if err != nil {
			return Value{}, err
		}
		found = !val.IsNull() && set[val.Key()]
		listHasNull = hasNull
		listEmpty = len(set) == 0 && !hasNull
	} else {
		// An explicit IN list is never empty. A found match still
		// short-circuits (TRUE dominates any NULL in the list), preserving
		// the interpreter's error-evaluation order.
		for _, item := range v.List {
			iv, err := ev.eval(item)
			if err != nil {
				return Value{}, err
			}
			if Equal(val, iv) {
				found = true
				break
			}
			if iv.IsNull() {
				listHasNull = true
			}
		}
	}
	t := sqlsem.In(val.IsNull(), found, listHasNull, listEmpty)
	if v.Not {
		t = sqlsem.Not(t)
	}
	return triValue(t), nil
}

func (ev *evaluator) evalSubstring(v *sqlparser.SubstringExpr) (Value, error) {
	s, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	if s.IsNull() {
		return Null(), nil
	}
	start, err := ev.eval(v.Start)
	if err != nil {
		return Value{}, err
	}
	str := s.String()
	from := int(start.Int()) - 1
	if from < 0 {
		from = 0
	}
	if from > len(str) {
		from = len(str)
	}
	to := len(str)
	if v.Length != nil {
		length, err := ev.eval(v.Length)
		if err != nil {
			return Value{}, err
		}
		to = from + int(length.Int())
		if to > len(str) {
			to = len(str)
		}
		if to < from {
			to = from
		}
	}
	return NewString(str[from:to]), nil
}

func (ev *evaluator) evalCast(v *sqlparser.CastExpr) (Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	if val.IsNull() {
		return Null(), nil
	}
	switch strings.ToLower(v.Type) {
	case "integer", "int", "bigint", "smallint":
		return NewInt(val.Int()), nil
	case "double", "float", "real", "decimal", "numeric":
		return NewFloat(val.Float()), nil
	case "varchar", "char", "text", "string":
		return NewString(val.String()), nil
	case "date":
		if val.Kind == KindDate {
			return val, nil
		}
		d, err := ParseDate(val.String())
		if err != nil {
			return Value{}, err
		}
		return NewDate(d), nil
	default:
		return Value{}, fmt.Errorf("unsupported cast target %q", v.Type)
	}
}

// evalFunc evaluates scalar functions and, in aggregate context, aggregate
// functions over the current group.
func (ev *evaluator) evalFunc(v *sqlparser.FuncCall) (Value, error) {
	if v.IsAggregate() {
		if ev.group == nil {
			return Value{}, fmt.Errorf("aggregate %s used outside GROUP BY context", v.Name)
		}
		return ev.evalAggregate(v)
	}
	args := make([]Value, len(v.Args))
	for i, a := range v.Args {
		val, err := ev.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = val
	}
	switch v.Name {
	case "abs":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("abs expects 1 argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f := args[0].Float()
		if f < 0 {
			f = -f
		}
		if args[0].Kind == KindInt {
			return NewInt(int64(f)), nil
		}
		return NewFloat(f), nil
	case "length", "char_length":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("%s expects 1 argument", v.Name)
		}
		return NewInt(int64(len(args[0].String()))), nil
	case "upper":
		return NewString(strings.ToUpper(args[0].String())), nil
	case "lower":
		return NewString(strings.ToLower(args[0].String())), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "round":
		if len(args) == 0 {
			return Value{}, fmt.Errorf("round expects at least 1 argument")
		}
		f := args[0].Float()
		scale := 0
		if len(args) > 1 {
			scale = int(args[1].Int())
		}
		mult := 1.0
		for i := 0; i < scale; i++ {
			mult *= 10
		}
		rounded := float64(int64(f*mult+copySign(0.5, f))) / mult
		return NewFloat(rounded), nil
	default:
		return Value{}, fmt.Errorf("unknown function %q", v.Name)
	}
}

func copySign(mag, sign float64) float64 {
	if sign < 0 {
		return -mag
	}
	return mag
}

// evalAggregate computes an aggregate over the evaluator's group rows.
// The column-at-a-time engine first materialises the argument vector (plus
// an overflow-guarding widened copy for multiplicative expressions); the
// row engine folds values directly into the accumulator.
func (ev *evaluator) evalAggregate(v *sqlparser.FuncCall) (Value, error) {
	name := strings.ToLower(v.Name)
	if v.Star {
		if name != "count" {
			return Value{}, fmt.Errorf("%s(*) is not valid", name)
		}
		return NewInt(int64(len(ev.group))), nil
	}
	if len(v.Args) != 1 {
		return Value{}, fmt.Errorf("aggregate %s expects exactly 1 argument", name)
	}
	arg := v.Args[0]

	var vals []Value
	if ev.ex.mode == ModeColumn {
		vec, err := ev.materializeVector(arg)
		if err != nil {
			return Value{}, err
		}
		vals = vec
	}

	var (
		count    int64
		sum      float64
		sumIsInt = true
		sumInt   int64
		min, max Value
		distinct map[string]bool
	)
	if v.Distinct {
		distinct = map[string]bool{}
	}
	fold := func(val Value) {
		if val.IsNull() {
			return
		}
		if v.Distinct {
			k := val.Key()
			if distinct[k] {
				return
			}
			distinct[k] = true
		}
		count++
		if val.Kind == KindInt {
			sumInt += val.I
		} else {
			sumIsInt = false
		}
		sum += val.Float()
		if min.Kind == KindNull || Compare(val, min) < 0 {
			min = val
		}
		if max.Kind == KindNull || Compare(val, max) > 0 {
			max = val
		}
	}

	if vals != nil {
		for _, val := range vals {
			fold(val)
		}
	} else {
		child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}}
		for _, ri := range ev.group {
			child.sc.row = ri
			val, err := child.eval(arg)
			if err != nil {
				return Value{}, err
			}
			fold(val)
		}
	}

	switch name {
	case "count":
		return NewInt(count), nil
	case "sum":
		if count == 0 {
			return Null(), nil
		}
		if sumIsInt {
			return NewInt(sumInt), nil
		}
		return NewFloat(sum), nil
	case "avg":
		if count == 0 {
			return Null(), nil
		}
		return NewFloat(sum / float64(count)), nil
	case "min":
		if count == 0 {
			return Null(), nil
		}
		return min, nil
	case "max":
		if count == 0 {
			return Null(), nil
		}
		return max, nil
	default:
		return Value{}, fmt.Errorf("unknown aggregate %q", name)
	}
}

// materializeVector evaluates the expression for every row of the group into
// a freshly allocated vector, recursively materialising the operands of
// arithmetic expressions first — the column-at-a-time execution model. For
// multiplicative expressions over column data an additional widened copy is
// made, modelling the overflow-guarding type casts the paper identifies as
// the dominant cost of TPC-H Q1 on MonetDB.
func (ev *evaluator) materializeVector(e sqlparser.Expr) ([]Value, error) {
	rows := ev.group
	stats := ev.ex.stats
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		if isArithmeticOp(v.Op) {
			left, err := ev.materializeVector(v.Left)
			if err != nil {
				return nil, err
			}
			right, err := ev.materializeVector(v.Right)
			if err != nil {
				return nil, err
			}
			if v.Op == "*" && ev.ex.guardCasts {
				// Overflow guard: widen both operand vectors before the
				// multiplication, costing an extra copy of each.
				left = widenVector(left, stats)
				right = widenVector(right, stats)
			}
			out := make([]Value, len(rows))
			for i := range rows {
				val, err := Arithmetic(v.Op, left[i], right[i])
				if err != nil {
					return nil, errEval(v, err)
				}
				out[i] = val
			}
			if stats != nil {
				stats.IntermediatesMaterialized += int64(len(out))
			}
			return out, nil
		}
	case *sqlparser.ParenExpr:
		return ev.materializeVector(v.Expr)
	case *sqlparser.ColumnRef:
		out := make([]Value, len(rows))
		child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}}
		for i, ri := range rows {
			child.sc.row = ri
			val, err := child.eval(v)
			if err != nil {
				return nil, err
			}
			out[i] = val
		}
		if stats != nil {
			stats.IntermediatesMaterialized += int64(len(out))
		}
		return out, nil
	case *sqlparser.NumberLit, *sqlparser.StringLit, *sqlparser.DateLit:
		child := &evaluator{ex: ev.ex, sc: ev.sc}
		val, err := child.eval(e)
		if err != nil {
			return nil, err
		}
		out := make([]Value, len(rows))
		for i := range out {
			out[i] = val
		}
		return out, nil
	}
	// Fallback: evaluate row-at-a-time into a materialised vector.
	out := make([]Value, len(rows))
	child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}, group: ev.group}
	for i, ri := range rows {
		child.sc.row = ri
		val, err := (&evaluator{ex: ev.ex, sc: child.sc}).eval(e)
		if err != nil {
			return nil, err
		}
		out[i] = val
	}
	if stats != nil {
		stats.IntermediatesMaterialized += int64(len(out))
	}
	return out, nil
}

func isArithmeticOp(op string) bool {
	switch op {
	case "+", "-", "*", "/", "%":
		return true
	}
	return false
}

// widenVector copies a vector into its "wider" representation (floats),
// accounting the copy as materialised intermediates.
func widenVector(in []Value, stats *Stats) []Value {
	out := make([]Value, len(in))
	for i, v := range in {
		if v.IsNull() {
			out[i] = v
			continue
		}
		if v.Kind == KindString || v.Kind == KindDate {
			out[i] = v
			continue
		}
		out[i] = NewFloat(v.Float())
	}
	if stats != nil {
		stats.IntermediatesMaterialized += int64(len(out))
		stats.GuardCasts += int64(len(out))
	}
	return out
}
