package engine

import (
	"errors"
	"fmt"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// scope is one level of column visibility: a relation plus the current row,
// chained to the enclosing query's scope for correlated sub-queries. A LEFT
// JOIN candidate pair is one level too: rel/row is its left half and
// pair/pairRow its right half, read in place under the join's layout (left
// columns then right columns).
type scope struct {
	rel     *relation
	row     int
	pair    *relation
	pairRow int
	outer   *scope
}

// value reads a column of the scope's current row.
func (s *scope) value(col int) Value {
	if n := len(s.rel.cols); col >= n {
		return s.pair.cols[col-n][s.pairRow]
	}
	return s.rel.cols[col][s.row]
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

// slotObserver, when set, sees every column read: the reference, the scope
// it is evaluated in and the slot the plan gave it. Tests hold the slots to
// the name lookup they replaced.
var slotObserver func(c *sqlparser.ColumnRef, sc *scope, sl plan.Slot)

// errUnboundRef is a read of a reference the plan gave no slot: plan.Build
// refuses an unknown or ambiguous name, so only an executor that evaluates
// what the plan never binds (an equi-join key) can meet it.
var errUnboundRef = errors.New("internal: column reference has no slot")

// column reads a column reference through its plan-assigned slot: hop to the
// scope that knows the name, index its relation.
func (ev *evaluator) column(c *sqlparser.ColumnRef) (Value, error) {
	sl := ev.ex.slots[c.Ord]
	if slotObserver != nil {
		slotObserver(c, ev.sc, sl)
	}
	if sl.Depth < 0 {
		return Value{}, errUnboundRef
	}
	if sl.Depth == 0 && ev.group != nil && len(ev.group) == 0 {
		// The global group of an ungrouped aggregate over empty input has no
		// first row: its plain columns are NULL.
		return sqlsem.Null(), nil
	}
	s := ev.sc
	for d := sl.Depth; d > 0; d-- {
		s = s.outer
	}
	return s.value(int(sl.Col)), nil
}

// eval evaluates an expression to a single value.
func (ev *evaluator) eval(e sqlparser.Expr) (Value, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		return sqlsem.ParseNumber(v.Value)
	case *sqlparser.StringLit:
		return sqlsem.NewString(v.Value), nil
	case *sqlparser.BoolLit:
		return sqlsem.NewBool(v.Value), nil
	case *sqlparser.NullLit:
		return sqlsem.Null(), nil
	case *sqlparser.DateLit:
		d, err := sqlsem.ParseDate(v.Value)
		if err != nil {
			return Value{}, errEval(e, err)
		}
		return sqlsem.NewDate(d), nil
	case *sqlparser.IntervalLit:
		// Bare intervals only appear as the right operand of date arithmetic
		// which is handled in the BinaryExpr case; evaluating one directly
		// yields its numeric count (used for day intervals).
		return sqlsem.ParseNumber(v.Value)
	case *sqlparser.ColumnRef:
		return ev.column(v)
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
			return sqlsem.NewBool(rel.numRows() == 0), nil
		}
		return sqlsem.NewBool(rel.numRows() > 0), nil
	case *sqlparser.IsNullExpr:
		val, err := ev.eval(v.Expr)
		if err != nil {
			return Value{}, err
		}
		if v.Not {
			return sqlsem.NewBool(!val.IsNull()), nil
		}
		return sqlsem.NewBool(val.IsNull()), nil
	case *sqlparser.SubqueryExpr:
		rel, err := ev.ex.executeSubquery(v.Select, ev.sc)
		if err != nil {
			return Value{}, errEval(e, err)
		}
		if rel.numRows() == 0 || len(rel.cols) == 0 {
			return sqlsem.Null(), nil
		}
		return rel.cols[0][0], nil
	case *sqlparser.ExtractExpr:
		val, err := ev.eval(v.From)
		if err != nil {
			return Value{}, err
		}
		if val.IsNull() {
			return sqlsem.Null(), nil
		}
		if val.Kind != sqlsem.KindDate {
			return Value{}, errEval(e, fmt.Errorf("EXTRACT requires a date, got %s", val.Kind))
		}
		return sqlsem.NewInt(sqlsem.DatePart(v.Unit, val.I)), nil
	case *sqlparser.SubstringExpr:
		return ev.evalSubstring(v)
	case *sqlparser.CastExpr:
		return ev.evalCast(v)
	default:
		return Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

func (ev *evaluator) evalUnary(v *sqlparser.UnaryExpr) (Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	switch v.Op {
	case "NOT":
		return sqlsem.Not(val.Tri()).Value(), nil
	case "-":
		return val.Neg(), nil
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
		lt := l.Tri()
		if lt == sqlsem.False {
			// Definite FALSE short-circuits; UNKNOWN must still see the
			// right side (UNKNOWN AND FALSE is FALSE, not UNKNOWN).
			return sqlsem.NewBool(false), nil
		}
		r, err := ev.eval(v.Right)
		if err != nil {
			return Value{}, err
		}
		return sqlsem.And(lt, r.Tri()).Value(), nil
	case "OR":
		l, err := ev.eval(v.Left)
		if err != nil {
			return Value{}, err
		}
		lt := l.Tri()
		if lt == sqlsem.True {
			return sqlsem.NewBool(true), nil
		}
		r, err := ev.eval(v.Right)
		if err != nil {
			return Value{}, err
		}
		return sqlsem.Or(lt, r.Tri()).Value(), nil
	}

	// Date +/- INTERVAL handled before generic arithmetic.
	if iv, ok := v.Right.(*sqlparser.IntervalLit); ok && (v.Op == "+" || v.Op == "-") {
		l, err := ev.eval(v.Left)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() {
			return sqlsem.Null(), nil
		}
		nv, err := sqlsem.ParseNumber(iv.Value)
		if err != nil {
			return Value{}, err
		}
		n := nv.Int()
		if v.Op == "-" {
			n = -n
		}
		if l.Kind != sqlsem.KindDate {
			return Value{}, fmt.Errorf("interval arithmetic requires a date, got %s", l.Kind)
		}
		d, err := sqlsem.AddInterval(l.I, n, iv.Unit)
		if err != nil {
			return Value{}, err
		}
		return sqlsem.NewDate(d), nil
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
		val, err := sqlsem.Arithmetic(v.Op, l, r)
		if err != nil {
			return Value{}, errEval(v, err)
		}
		return val, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return sqlsem.CompareValues(v.Op, l, r).Value(), nil
	case "LIKE", "NOT LIKE":
		eitherNull := l.IsNull() || r.IsNull()
		matched := false
		if !eitherNull {
			matched = sqlsem.LikeMatch(l.String(), r.String())
		}
		return sqlsem.Like(eitherNull, matched, v.Op == "NOT LIKE").Value(), nil
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
			matched = operand.Equal(cond)
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
	return sqlsem.Null(), nil
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
	geLo, leHi := sqlsem.CompareValues(">=", val, lo), sqlsem.CompareValues("<=", val, hi)
	return sqlsem.Between(geLo, leHi, v.Not).Value(), nil
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
			if val.Equal(iv) {
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
	return t.Value(), nil
}

func (ev *evaluator) evalSubstring(v *sqlparser.SubstringExpr) (Value, error) {
	s, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	if s.IsNull() {
		return sqlsem.Null(), nil
	}
	start, err := ev.eval(v.Start)
	if err != nil {
		return Value{}, err
	}
	var length Value
	if v.Length != nil {
		if length, err = ev.eval(v.Length); err != nil {
			return Value{}, err
		}
	}
	return sqlsem.Substring(s, start, length, v.Length != nil), nil
}

func (ev *evaluator) evalCast(v *sqlparser.CastExpr) (Value, error) {
	val, err := ev.eval(v.Expr)
	if err != nil {
		return Value{}, err
	}
	return sqlsem.Cast(val, v.Type)
}

// evalFunc evaluates scalar functions and, in aggregate context, aggregate
// functions over the current group.
func (ev *evaluator) evalFunc(v *sqlparser.FuncCall) (Value, error) {
	if v.IsAggregate() {
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
	return sqlsem.ApplyFunc(v.Name, args), nil
}

// evalAggregate computes an aggregate over the evaluator's group rows.
// The column-at-a-time engine first materialises the argument vector (plus
// an overflow-guarding widened copy for multiplicative expressions); the
// row engine folds values directly into the accumulator.
func (ev *evaluator) evalAggregate(v *sqlparser.FuncCall) (Value, error) {
	name := v.Name // the parser's canonical lower-case name
	if v.Star {
		return sqlsem.NewInt(int64(len(ev.group))), nil
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
		if val.Kind == sqlsem.KindInt {
			sumInt += val.I
		} else {
			sumIsInt = false
		}
		sum += val.Float()
		if min.Kind == sqlsem.KindNull || val.Compare(min) < 0 {
			min = val
		}
		if max.Kind == sqlsem.KindNull || val.Compare(max) > 0 {
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
		return sqlsem.NewInt(count), nil
	case "sum":
		if count == 0 {
			return sqlsem.Null(), nil
		}
		if sumIsInt {
			return sqlsem.NewInt(sumInt), nil
		}
		return sqlsem.NewFloat(sum), nil
	case "avg":
		if count == 0 {
			return sqlsem.Null(), nil
		}
		return sqlsem.NewFloat(sum / float64(count)), nil
	case "min":
		if count == 0 {
			return sqlsem.Null(), nil
		}
		return min, nil
	case "max":
		if count == 0 {
			return sqlsem.Null(), nil
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
				val, err := sqlsem.Arithmetic(v.Op, left[i], right[i])
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
		if len(rows) > 0 {
			// One slot read for the vector: a column of the group's own
			// relation is gathered at the group's rows, an enclosing scope's
			// is one value for all of them.
			val, err := ev.column(v)
			if err != nil {
				return nil, err
			}
			if sl := ev.ex.slots[v.Ord]; sl.Depth == 0 {
				col := ev.sc.rel.cols[sl.Col]
				for i, ri := range rows {
					out[i] = col[ri]
				}
			} else {
				for i := range out {
					out[i] = val
				}
			}
		}
		if stats != nil {
			stats.IntermediatesMaterialized += int64(len(out))
		}
		return out, nil
	case *sqlparser.NumberLit, *sqlparser.StringLit, *sqlparser.DateLit:
		val, err := ev.eval(e)
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
	child := &evaluator{ex: ev.ex, sc: &scope{rel: ev.sc.rel, outer: ev.sc.outer}}
	for i, ri := range rows {
		child.sc.row = ri
		val, err := child.eval(e)
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
		if v.Kind == sqlsem.KindString || v.Kind == sqlsem.KindDate {
			out[i] = v
			continue
		}
		out[i] = sqlsem.NewFloat(v.Float())
	}
	if stats != nil {
		stats.IntermediatesMaterialized += int64(len(out))
		stats.GuardCasts += int64(len(out))
	}
	return out
}
