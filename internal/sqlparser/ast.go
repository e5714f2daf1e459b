package sqlparser

import (
	"fmt"
	"strings"
)

// Node is implemented by every AST node. SQL renders the node back to SQL
// text in the sqalpel dialect; the rendering is canonical (keywords upper
// case, single spaces) so two structurally identical queries render to the
// same string.
type Node interface {
	SQL() string
}

// Statement is the interface of top-level SQL statements.
type Statement interface {
	Node
	statement()
}

// SelectStatement is a full SELECT query, optionally combined with other
// selects through set operators (UNION / EXCEPT / INTERSECT).
type SelectStatement struct {
	Distinct   bool
	Projection []SelectItem
	From       []TableExpr
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	OrderBy    []OrderItem
	Limit      *int64
	Offset     *int64

	// SetOp chains this select with the next one, e.g. UNION ALL.
	SetOp   string // "", "UNION", "UNION ALL", "EXCEPT", "INTERSECT"
	SetNext *SelectStatement
}

func (*SelectStatement) statement() {}

// SQL renders the statement.
func (s *SelectStatement) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Projection {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.SQL())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.SQL())
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&sb, " LIMIT %d", *s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(&sb, " OFFSET %d", *s.Offset)
	}
	if s.SetNext != nil {
		sb.WriteString(" ")
		sb.WriteString(s.SetOp)
		sb.WriteString(" ")
		sb.WriteString(s.SetNext.SQL())
	}
	return sb.String()
}

// SelectItem is one element of the projection list.
type SelectItem struct {
	// Star is true for a bare `*` or a qualified `t.*`; Expr is nil then and
	// Qualifier may carry the table alias.
	Star      bool
	Qualifier string
	Expr      Expr
	Alias     string
}

// SQL renders the projection element.
func (s SelectItem) SQL() string {
	if s.Star {
		if s.Qualifier != "" {
			return s.Qualifier + ".*"
		}
		return "*"
	}
	out := s.Expr.SQL()
	if s.Alias != "" {
		out += " AS " + s.Alias
	}
	return out
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the order item.
func (o OrderItem) SQL() string {
	out := o.Expr.SQL()
	if o.Desc {
		out += " DESC"
	}
	return out
}

// TableExpr is a table reference in the FROM clause.
type TableExpr interface {
	Node
	tableExpr()
}

// TableName references a base table, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableExpr() {}

// SQL renders the table reference.
func (t *TableName) SQL() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// DerivedTable is a parenthesised sub-select used as a table, always aliased.
type DerivedTable struct {
	Select *SelectStatement
	Alias  string
}

func (*DerivedTable) tableExpr() {}

// SQL renders the derived table.
func (d *DerivedTable) SQL() string {
	out := "(" + d.Select.SQL() + ")"
	if d.Alias != "" {
		out += " " + d.Alias
	}
	return out
}

// JoinExpr is an explicit JOIN between two table expressions.
type JoinExpr struct {
	Kind  string // "INNER", "LEFT", "RIGHT", "FULL", "CROSS"
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for CROSS joins
}

func (*JoinExpr) tableExpr() {}

// SQL renders the join.
func (j *JoinExpr) SQL() string {
	kw := j.Kind + " JOIN"
	if j.Kind == "INNER" {
		kw = "JOIN"
	}
	out := j.Left.SQL() + " " + kw + " " + j.Right.SQL()
	if j.On != nil {
		out += " ON " + j.On.SQL()
	}
	return out
}

// Expr is the interface of all expression nodes.
type Expr interface {
	Node
	expr()
}

// ColumnRef references a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table  string
	Column string
	// Ord numbers the reference within one Parse or ParseExpr call, in parse
	// order across every nesting level: the index of what the plan layer
	// resolved for this node (plan.Plan.Slots), so an executor reaches it
	// with a slice index instead of a map lookup or a name search.
	Ord int
}

func (*ColumnRef) expr() {}

// SQL renders the reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// NumberLit is a numeric literal kept in source form.
type NumberLit struct {
	Value string
}

func (*NumberLit) expr() {}

// SQL renders the literal.
func (n *NumberLit) SQL() string { return n.Value }

// StringLit is a string literal.
type StringLit struct {
	Value string
}

func (*StringLit) expr() {}

// SQL renders the literal with quote escaping.
func (s *StringLit) SQL() string {
	return "'" + strings.ReplaceAll(s.Value, "'", "''") + "'"
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Value bool
}

func (*BoolLit) expr() {}

// SQL renders the literal.
func (b *BoolLit) SQL() string {
	if b.Value {
		return "TRUE"
	}
	return "FALSE"
}

// NullLit is the NULL literal.
type NullLit struct{}

func (*NullLit) expr() {}

// SQL renders NULL.
func (*NullLit) SQL() string { return "NULL" }

// DateLit is a DATE 'yyyy-mm-dd' literal.
type DateLit struct {
	Value string // ISO date text
}

func (*DateLit) expr() {}

// SQL renders the literal.
func (d *DateLit) SQL() string { return "DATE '" + d.Value + "'" }

// IntervalLit is an INTERVAL 'n' unit literal, e.g. INTERVAL '3' MONTH.
type IntervalLit struct {
	Value string
	Unit  string // YEAR, MONTH, DAY
}

func (*IntervalLit) expr() {}

// SQL renders the literal.
func (i *IntervalLit) SQL() string { return "INTERVAL '" + i.Value + "' " + i.Unit }

// BinaryExpr is a binary operation: arithmetic, comparison, AND/OR, LIKE,
// string concatenation.
type BinaryExpr struct {
	Op    string // "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "LIKE", "NOT LIKE", "||"
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}

// SQL renders the expression with minimal parentheses: nested AND/OR and
// arithmetic of lower precedence are parenthesised.
func (b *BinaryExpr) SQL() string {
	l := maybeParen(b.Left, b.Op, true)
	r := maybeParen(b.Right, b.Op, false)
	return l + " " + b.Op + " " + r
}

func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE", "IN", "NOT IN", "BETWEEN", "IS":
		return 3
	case "+", "-", "||":
		return 4
	case "*", "/", "%":
		return 5
	default:
		return 6
	}
}

func maybeParen(e Expr, parentOp string, isLeft bool) string {
	be, ok := e.(*BinaryExpr)
	if !ok {
		return e.SQL()
	}
	pp, cp := precedence(parentOp), precedence(be.Op)
	if cp < pp || (cp == pp && !isLeft && (parentOp == "-" || parentOp == "/")) {
		return "(" + e.SQL() + ")"
	}
	return e.SQL()
}

// UnaryExpr is NOT <expr> or -<expr> or +<expr>.
type UnaryExpr struct {
	Op   string // "NOT", "-", "+"
	Expr Expr
}

func (*UnaryExpr) expr() {}

// SQL renders the expression.
func (u *UnaryExpr) SQL() string {
	if u.Op == "NOT" {
		return "NOT " + u.Expr.SQL()
	}
	if be, ok := u.Expr.(*BinaryExpr); ok {
		return u.Op + "(" + be.SQL() + ")"
	}
	return u.Op + u.Expr.SQL()
}

// ParenExpr preserves user parentheses that matter for readability of the
// generated grammar (e.g. OR groups).
type ParenExpr struct {
	Expr Expr
}

func (*ParenExpr) expr() {}

// SQL renders the parenthesised expression.
func (p *ParenExpr) SQL() string { return "(" + p.Expr.SQL() + ")" }

// FuncCall is a function or aggregate call.
type FuncCall struct {
	Name     string // canonical lower-case name
	Distinct bool   // e.g. count(DISTINCT x)
	Star     bool   // count(*)
	Args     []Expr
}

func (*FuncCall) expr() {}

// SQL renders the call.
func (f *FuncCall) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteString("(")
	if f.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.SQL())
	}
	sb.WriteString(")")
	return sb.String()
}

// IsAggregate reports whether the call is a SQL aggregate (count, sum, ...).
func (f *FuncCall) IsAggregate() bool { return IsAggregateName(f.Name) }

// CaseExpr is a searched or simple CASE expression.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN ... THEN ... arm of a CASE.
type CaseWhen struct {
	When Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// SQL renders the expression.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteString(" ")
		sb.WriteString(c.Operand.SQL())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN ")
		sb.WriteString(w.When.SQL())
		sb.WriteString(" THEN ")
		sb.WriteString(w.Then.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// BetweenExpr is <expr> [NOT] BETWEEN <lo> AND <hi>.
type BetweenExpr struct {
	Not  bool
	Expr Expr
	Lo   Expr
	Hi   Expr
}

func (*BetweenExpr) expr() {}

// SQL renders the predicate.
func (b *BetweenExpr) SQL() string {
	kw := " BETWEEN "
	if b.Not {
		kw = " NOT BETWEEN "
	}
	return b.Expr.SQL() + kw + b.Lo.SQL() + " AND " + b.Hi.SQL()
}

// InExpr is <expr> [NOT] IN (list) or <expr> [NOT] IN (subquery).
type InExpr struct {
	Not      bool
	Expr     Expr
	List     []Expr
	Subquery *SelectStatement
}

func (*InExpr) expr() {}

// SQL renders the predicate.
func (i *InExpr) SQL() string {
	kw := " IN ("
	if i.Not {
		kw = " NOT IN ("
	}
	var sb strings.Builder
	sb.WriteString(i.Expr.SQL())
	sb.WriteString(kw)
	if i.Subquery != nil {
		sb.WriteString(i.Subquery.SQL())
	} else {
		for j, e := range i.List {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not      bool
	Subquery *SelectStatement
}

func (*ExistsExpr) expr() {}

// SQL renders the predicate.
func (e *ExistsExpr) SQL() string {
	kw := "EXISTS ("
	if e.Not {
		kw = "NOT EXISTS ("
	}
	return kw + e.Subquery.SQL() + ")"
}

// IsNullExpr is <expr> IS [NOT] NULL.
type IsNullExpr struct {
	Not  bool
	Expr Expr
}

func (*IsNullExpr) expr() {}

// SQL renders the predicate.
func (i *IsNullExpr) SQL() string {
	if i.Not {
		return i.Expr.SQL() + " IS NOT NULL"
	}
	return i.Expr.SQL() + " IS NULL"
}

// SubqueryExpr is a scalar sub-select used inside an expression, e.g. in a
// comparison against an aggregate over a correlated query.
type SubqueryExpr struct {
	Select *SelectStatement
}

func (*SubqueryExpr) expr() {}

// SQL renders the sub-select in parentheses.
func (s *SubqueryExpr) SQL() string { return "(" + s.Select.SQL() + ")" }

// ExtractExpr is EXTRACT(unit FROM expr).
type ExtractExpr struct {
	Unit string // YEAR, MONTH, DAY
	From Expr
}

func (*ExtractExpr) expr() {}

// SQL renders the expression.
func (e *ExtractExpr) SQL() string {
	return "EXTRACT(" + e.Unit + " FROM " + e.From.SQL() + ")"
}

// SubstringExpr is SUBSTRING(expr FROM start FOR length).
type SubstringExpr struct {
	Expr   Expr
	Start  Expr
	Length Expr // may be nil
}

func (*SubstringExpr) expr() {}

// SQL renders the expression.
func (s *SubstringExpr) SQL() string {
	out := "SUBSTRING(" + s.Expr.SQL() + " FROM " + s.Start.SQL()
	if s.Length != nil {
		out += " FOR " + s.Length.SQL()
	}
	return out + ")"
}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	Expr Expr
	Type string
}

func (*CastExpr) expr() {}

// SQL renders the expression.
func (c *CastExpr) SQL() string {
	return "CAST(" + c.Expr.SQL() + " AS " + c.Type + ")"
}

// ParamRef is a ${name} parameter reference; it appears only when parsing
// query templates produced by the grammar layer, never in complete queries.
type ParamRef struct {
	Name string
}

func (*ParamRef) expr() {}

// SQL renders the parameter reference.
func (p *ParamRef) SQL() string { return "${" + p.Name + "}" }

// WalkExprs calls fn for every expression node reachable from e, including e
// itself, in depth-first order. fn returning false prunes the walk below the
// current node.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *BinaryExpr:
		WalkExprs(v.Left, fn)
		WalkExprs(v.Right, fn)
	case *UnaryExpr:
		WalkExprs(v.Expr, fn)
	case *ParenExpr:
		WalkExprs(v.Expr, fn)
	case *FuncCall:
		for _, a := range v.Args {
			WalkExprs(a, fn)
		}
	case *CaseExpr:
		WalkExprs(v.Operand, fn)
		for _, w := range v.Whens {
			WalkExprs(w.When, fn)
			WalkExprs(w.Then, fn)
		}
		WalkExprs(v.Else, fn)
	case *BetweenExpr:
		WalkExprs(v.Expr, fn)
		WalkExprs(v.Lo, fn)
		WalkExprs(v.Hi, fn)
	case *InExpr:
		WalkExprs(v.Expr, fn)
		for _, x := range v.List {
			WalkExprs(x, fn)
		}
	case *IsNullExpr:
		WalkExprs(v.Expr, fn)
	case *ExtractExpr:
		WalkExprs(v.From, fn)
	case *SubstringExpr:
		WalkExprs(v.Expr, fn)
		WalkExprs(v.Start, fn)
		WalkExprs(v.Length, fn)
	case *CastExpr:
		WalkExprs(v.Expr, fn)
	}
}

// ClauseExprs calls fn with each expression of the statement's own clauses:
// the projection items, WHERE, GROUP BY, HAVING and the ORDER BY keys, in
// that order, skipping absent ones (a star item, no WHERE). FROM — ON
// conditions, derived tables — and the set-operation branches are the
// caller's to walk.
func (s *SelectStatement) ClauseExprs(fn func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			fn(e)
		}
	}
	for _, p := range s.Projection {
		visit(p.Expr)
	}
	visit(s.Where)
	for _, g := range s.GroupBy {
		visit(g)
	}
	visit(s.Having)
	for _, o := range s.OrderBy {
		visit(o.Expr)
	}
}

// ColumnsIn returns the distinct column references appearing in e, in first
// appearance order.
func ColumnsIn(e Expr) []*ColumnRef {
	var cols []*ColumnRef
	seen := map[string]bool{}
	WalkExprs(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			key := c.Table + "." + c.Column
			if !seen[key] {
				seen[key] = true
				cols = append(cols, c)
			}
		}
		return true
	})
	return cols
}

// Subqueries returns the sub-select statements directly embedded in e
// (scalar sub-queries, IN sub-queries and EXISTS predicates).
func Subqueries(e Expr) []*SelectStatement {
	var subs []*SelectStatement
	WalkExprs(e, func(x Expr) bool {
		switch v := x.(type) {
		case *SubqueryExpr:
			subs = append(subs, v.Select)
		case *InExpr:
			if v.Subquery != nil {
				subs = append(subs, v.Subquery)
			}
		case *ExistsExpr:
			subs = append(subs, v.Subquery)
		}
		return true
	})
	return subs
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExprs(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}
