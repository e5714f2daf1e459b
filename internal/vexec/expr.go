package vexec

import (
	"errors"
	"fmt"
	"strings"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// evalCtx evaluates expressions over one batch. In grouped context the
// batch rows are groups and grp holds their columns: aggregate calls read
// the per-group aggregate column and column references the per-group
// first-row column the plan's aggregation contract (Select.AggOf/CarriedOf)
// points them to; grp is nil in row context.
type evalCtx struct {
	ex    *executor
	batch *Batch
	grp   *aggResult
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
		s, err := sqlsem.ParseNumber(v.Value)
		if err != nil {
			return nil, err
		}
		return constVec(s, n), nil
	case *sqlparser.StringLit:
		return constVec(sqlsem.NewString(v.Value), n), nil
	case *sqlparser.BoolLit:
		return constVec(sqlsem.NewBool(v.Value), n), nil
	case *sqlparser.NullLit:
		return NewNullVector(n), nil
	case *sqlparser.DateLit:
		d, err := sqlsem.ParseDate(v.Value)
		if err != nil {
			return nil, errEval(e, err)
		}
		return constVec(sqlsem.NewDate(d), n), nil
	case *sqlparser.IntervalLit:
		// Bare intervals evaluate to their numeric count; date arithmetic
		// with a unit is handled in the BinaryExpr case.
		s, err := sqlsem.ParseNumber(v.Value)
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
		out := NewVector(sqlsem.KindBool, n)
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
	default:
		return nil, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

func (ctx *evalCtx) resolveColumn(v *sqlparser.ColumnRef) (*Vector, error) {
	if ctx.grp != nil {
		if i, ok := ctx.grp.sp.CarriedOf[v]; ok {
			return ctx.grp.refs[i], nil
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
func constVec(s sqlsem.Value, n int) *Vector {
	if s.Kind == sqlsem.KindNull {
		return NewNullVector(n)
	}
	out := NewVector(s.Kind, n)
	out.constVal = true
	switch s.Kind {
	case sqlsem.KindInt, sqlsem.KindDate, sqlsem.KindBool:
		for i := range out.Ints {
			out.Ints[i] = s.I
		}
	case sqlsem.KindFloat:
		for i := range out.Floats {
			out.Floats[i] = s.F
		}
	case sqlsem.KindString:
		for i := range out.Strs {
			out.Strs[i] = s.S
		}
	}
	return out
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
	case sqlsem.KindBool, sqlsem.KindInt, sqlsem.KindDate:
		return v.Ints[i] != 0
	case sqlsem.KindFloat:
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
		out := NewVector(sqlsem.KindBool, n)
		for i := 0; i < n; i++ {
			setTri(out, i, sqlsem.Not(triAt(val, i)))
		}
		return out, nil
	case "-":
		// Fast paths for homogeneous numeric vectors.
		if val.Kind == sqlsem.KindInt {
			out := NewVector(sqlsem.KindInt, n)
			for i := 0; i < n; i++ {
				out.Ints[i] = -val.Ints[i]
			}
			out.Nulls = copyNulls(val.Nulls)
			return out, nil
		}
		if val.Kind == sqlsem.KindFloat && val.IsInt == nil {
			out := NewVector(sqlsem.KindFloat, n)
			for i := 0; i < n; i++ {
				out.Floats[i] = -val.Floats[i]
			}
			out.Nulls = copyNulls(val.Nulls)
			return out, nil
		}
		bld := newBuilder(n)
		for i := 0; i < n; i++ {
			bld.append(val.At(i).Neg())
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
		out := NewVector(sqlsem.KindBool, n)
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
		ns, err := sqlsem.ParseNumber(iv.Value)
		if err != nil {
			return nil, err
		}
		nv := ns.Int()
		if v.Op == "-" {
			nv = -nv
		}
		n := l.Len()
		out := NewVector(sqlsem.KindDate, n)
		for i := 0; i < n; i++ {
			s := l.At(i)
			if s.IsNull() {
				out.SetNull(i)
				continue
			}
			if s.Kind != sqlsem.KindDate {
				return nil, fmt.Errorf("interval arithmetic requires a date, got %s", s.Kind)
			}
			if out.Ints[i], err = sqlsem.AddInterval(s.I, nv, iv.Unit); err != nil {
				return nil, err
			}
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

// arithVec applies an arithmetic operator element-wise with typed fast
// paths for the hot shapes (pure int and pure float vectors) and a generic
// scalar loop for everything else.
func arithVec(op string, l, r *Vector) (*Vector, error) {
	n := l.Len()
	pureFloat := func(v *Vector) bool { return v.Kind == sqlsem.KindFloat && v.IsInt == nil }

	// int op int for the exact operators.
	if l.Kind == sqlsem.KindInt && r.Kind == sqlsem.KindInt && (op == "+" || op == "-" || op == "*") {
		out := NewVector(sqlsem.KindInt, n)
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
	numericPure := func(v *Vector) bool { return v.Kind == sqlsem.KindInt || pureFloat(v) }
	if numericPure(l) && numericPure(r) && (pureFloat(l) || pureFloat(r)) && (op == "+" || op == "-" || op == "*") {
		out := NewVector(sqlsem.KindFloat, n)
		lf := func(i int) float64 {
			if l.Kind == sqlsem.KindInt {
				return float64(l.Ints[i])
			}
			return l.Floats[i]
		}
		rf := func(i int) float64 {
			if r.Kind == sqlsem.KindInt {
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
		s, err := sqlsem.Arithmetic(op, l.At(i), r.At(i))
		if err != nil {
			return nil, err
		}
		bld.append(s)
	}
	return bld.finalize()
}

// cmpVec applies a comparison operator with ternary NULL semantics: any
// NULL operand marks the output row NULL (UNKNOWN), matching the
// interpreters and sqlsem.CompareValues. The typed fast paths only skip
// the boxing, never the null bitmap.
func cmpVec(op string, l, r *Vector) *Vector {
	n := l.Len()
	out := NewVector(sqlsem.KindBool, n)
	set := func(i, c int) {
		if sqlsem.Compare(op, c) == sqlsem.True {
			out.Ints[i] = 1
		}
	}
	intKinds := func(v *Vector) bool {
		return v.Kind == sqlsem.KindInt || v.Kind == sqlsem.KindDate || v.Kind == sqlsem.KindBool
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
	case l.Kind == sqlsem.KindFloat && l.IsInt == nil && r.Kind == sqlsem.KindFloat && r.IsInt == nil:
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
	case l.Kind == sqlsem.KindString && r.Kind == sqlsem.KindString && l.Dict != nil && l.Dict == r.Dict:
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
	case n > 0 && l.Dict != nil && r.constVal && r.Kind == sqlsem.KindString:
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
	case n > 0 && r.Dict != nil && l.constVal && l.Kind == sqlsem.KindString:
		code, exact := r.Dict.Code(l.Strs[0])
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			set(i, -dictCmp(r.Codes[i], code, exact))
		}
	case l.Kind == sqlsem.KindString && r.Kind == sqlsem.KindString:
		for i := 0; i < n; i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.SetNull(i)
				continue
			}
			set(i, strings.Compare(l.StrAt(i), r.StrAt(i)))
		}
	default:
		for i := 0; i < n; i++ {
			setTri(out, i, sqlsem.CompareValues(op, l.At(i), r.At(i)))
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
	out := NewVector(sqlsem.KindBool, n)
	if n > 0 && l.Dict != nil && r.constVal && r.Kind == sqlsem.KindString && len(l.Dict.Vals) <= 4*n {
		// Low-cardinality dictionary against a constant pattern: match each
		// distinct value once, then the scan loop is a table lookup.
		table := make([]bool, len(l.Dict.Vals))
		for c, s := range l.Dict.Vals {
			table[c] = sqlsem.LikeMatch(s, r.Strs[0])
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
		eitherNull := a.IsNull() || b.IsNull()
		matched := false
		if !eitherNull {
			matched = sqlsem.LikeMatch(a.String(), b.String())
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
				hit = operand.At(i).Equal(conds[wi].At(i))
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
				bld.append(sqlsem.Null())
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
	out := NewVector(sqlsem.KindBool, n)
	for i := 0; i < n; i++ {
		a, l, h := val.At(i), lo.At(i), hi.At(i)
		geLo, leHi := sqlsem.CompareValues(">=", a, l), sqlsem.CompareValues("<=", a, h)
		setTri(out, i, sqlsem.Between(geLo, leHi, v.Not))
	}
	return out, nil
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
	out := NewVector(sqlsem.KindBool, n)
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
			if a.Equal(s) {
				found = true
				break
			}
			if s.IsNull() {
				listHasNull = true
			}
		}
		t := sqlsem.In(a.IsNull(), found, listHasNull, false)
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
		case item.Kind == sqlsem.KindNull:
			listHasNull = true
		case item.constVal && item.Kind == sqlsem.KindString:
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
// filter applies — over a view of the (outer, inner) row pairs, so only the
// columns they name are gathered. Probing reads the build and writes only
// batches of its own, so filters holding probes run safely from morsel
// workers.
func (ctx *evalCtx) applyCandidates(as *applyState) (cand []int32, off []int32, err error) {
	b := ctx.batch
	n := b.Len()
	keyVecs, err := ctx.evalAppend(nil, as.outerKeys)
	if err != nil {
		return nil, nil, deferToFallback(err)
	}
	off = make([]int32, n+1)
	ht, kc := as.prober(keyVecs)
	for i := 0; i < n; i++ {
		// A NULL outer key matches nothing: equality with NULL is UNKNOWN.
		if !nullKeyRow(keyVecs, i) {
			if g := kc.lookup(ht, keyVecs, i); g >= 0 {
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

	outerIdx := make([]int32, len(cand))
	for i := 0; i < n; i++ {
		for k := off[i]; k < off[i+1]; k++ {
			outerIdx[k] = int32(b.physRow(i))
		}
	}
	pass, err := ctx.ex.pairsPassing(b, outerIdx, as.inner, cand, as.pairConjuncts)
	if err != nil {
		return nil, nil, err
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
	out := NewVector(sqlsem.KindBool, n)
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
		keyVecs, err := ctx.evalAppend(nil, as.outerKeys)
		if err != nil {
			return nil, deferToFallback(err)
		}
		bld := newBuilder(n)
		ht, kc := as.prober(keyVecs)
		for i := 0; i < n; i++ {
			val := as.emptyVal
			if !nullKeyRow(keyVecs, i) {
				if g := kc.lookup(ht, keyVecs, i); g >= 0 {
					val = as.groupVals.At(g)
				}
			}
			bld.append(val)
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
			bld.append(sqlsem.Null())
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
	out := NewVector(sqlsem.KindBool, n)
	if !st.correlated {
		var buf []byte
		for i := 0; i < n; i++ {
			a := val.At(i)
			found := false
			if !a.IsNull() && len(st.set) > 0 {
				buf = a.AppendKey(buf[:0])
				found = st.set[string(buf)]
			}
			t := sqlsem.In(a.IsNull(), found, st.setHasNull, st.setEmpty)
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
			if s.IsNull() {
				hasNull = true
				continue
			}
			if a.Equal(s) {
				found = true
				break
			}
		}
		t := sqlsem.In(a.IsNull(), found, hasNull, off[i+1] == off[i])
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
	out := NewVector(sqlsem.KindInt, n)
	for i := 0; i < n; i++ {
		s := val.At(i)
		if s.IsNull() {
			out.SetNull(i)
			continue
		}
		if s.Kind != sqlsem.KindDate {
			return nil, errEval(v, fmt.Errorf("EXTRACT requires a date, got %s", s.Kind))
		}
		out.Ints[i] = sqlsem.DatePart(v.Unit, s.I)
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
	out := NewVector(sqlsem.KindString, n)
	for i := 0; i < n; i++ {
		var lv sqlsem.Value
		if length != nil {
			lv = length.At(i)
		}
		if s := sqlsem.Substring(val.At(i), start.At(i), lv, length != nil); s.IsNull() {
			out.SetNull(i)
		} else {
			out.Strs[i] = s.S
		}
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
		c, err := sqlsem.Cast(val.At(i), v.Type)
		if err != nil {
			return nil, err
		}
		bld.append(c)
	}
	return bld.finalize()
}

func (ctx *evalCtx) evalFunc(v *sqlparser.FuncCall) (*Vector, error) {
	if v.IsAggregate() {
		i, ok := ctx.grp.sp.AggOf[v]
		if !ok {
			return nil, fmt.Errorf("internal: aggregate %s was not precomputed", v.SQL())
		}
		return ctx.grp.aggs[i], nil
	}
	n := ctx.batch.Len()
	args := make([]*Vector, len(v.Args))
	for ai, a := range v.Args {
		var err error
		if args[ai], err = ctx.eval(a); err != nil {
			return nil, err
		}
	}
	bld := newBuilder(n)
	vals := make([]sqlsem.Value, len(args))
	for i := 0; i < n; i++ {
		for ai, a := range args {
			vals[ai] = a.At(i)
		}
		bld.append(sqlsem.ApplyFunc(v.Name, vals))
	}
	return bld.finalize()
}
