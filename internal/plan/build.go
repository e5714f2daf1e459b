package plan

import (
	"fmt"
	"strings"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// Build parses and plans a query against the catalog. Parse failures are
// reported as "parse error: ..." so engine-level wrapping reproduces the
// historical message format.
func Build(cat Catalog, sql string) (*Plan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("parse error: %w", err)
	}
	return BuildStmt(cat, stmt)
}

// BuildStmt plans an already parsed statement against the catalog.
func BuildStmt(cat Catalog, stmt *sqlparser.SelectStatement) (*Plan, error) {
	b := &builder{
		cat: cat,
		p:   &Plan{},
	}
	root, err := b.buildChain(stmt)
	if err != nil {
		return nil, err
	}
	b.p.Root = root
	if err := b.bindSlots(); err != nil {
		return nil, err
	}
	b.p.NotVectorizableReason = b.checkSelect(root)
	b.p.Vectorizable = b.p.NotVectorizableReason == ""
	return b.p, nil
}

// builder carries the shared state of one Build.
type builder struct {
	cat Catalog
	p   *Plan
	// refs is one past the largest ColumnRef.Ord of the statement: the size
	// of the slot tables.
	refs int
	// err is the first statement error bindSlots met.
	err error
}

// buildChain plans a statement and its set-operation continuations.
func (b *builder) buildChain(stmt *sqlparser.SelectStatement) (*Select, error) {
	head, err := b.buildSelect(stmt)
	if err != nil {
		return nil, err
	}
	cur := head
	for s := stmt; s.SetNext != nil; s = s.SetNext {
		next, err := b.buildSelect(s.SetNext)
		if err != nil {
			return nil, err
		}
		cur.SetNext = next
		cur = next
	}
	return head, nil
}

// buildSelect plans one SELECT core.
func (b *builder) buildSelect(stmt *sqlparser.SelectStatement) (*Select, error) {
	sp := &Select{Stmt: stmt}

	// Plan every sub-query reachable through the statement's expressions, so
	// the executors can look their plans (and correlation verdicts) up by
	// statement pointer instead of re-analyzing; the same walk checks the
	// numeric literals.
	if err := b.walkExpressions(stmt); err != nil {
		return nil, err
	}

	// FROM items, resolved against the catalog.
	for _, te := range stmt.From {
		in, err := b.buildInput(te)
		if err != nil {
			return nil, err
		}
		sp.From = append(sp.From, in)
	}

	// WHERE conjuncts: fold constants, split, lift the common-OR predicates.
	where := FoldExpr(stmt.Where)
	raw := liftCommonOrConjuncts(splitAnd(where))
	sp.Conjuncts = make([]Conjunct, len(raw))
	for i, c := range raw {
		sp.Conjuncts[i] = Conjunct{Expr: c, Class: ClassResidual}
	}

	if len(sp.From) > 0 {
		b.classifyPushdowns(sp)
		b.planJoins(sp)
	}

	// Interpreter residual: every non-join conjunct in original order, with
	// sub-query-bearing predicates moved behind the cheap ones (stable).
	if len(sp.From) == 0 {
		// FROM-less SELECT: the interpreters evaluate the conjuncts as-is.
		for _, c := range sp.Conjuncts {
			sp.Residual = append(sp.Residual, c.Expr)
			sp.VexecResidual = append(sp.VexecResidual, c.Expr)
		}
	} else {
		var cheap, costly []sqlparser.Expr
		for _, c := range sp.Conjuncts {
			if c.Class == ClassJoin {
				continue
			}
			if len(sqlparser.Subqueries(c.Expr)) > 0 {
				costly = append(costly, c.Expr)
			} else {
				cheap = append(cheap, c.Expr)
			}
		}
		sp.Residual = append(cheap, costly...)

		sp.VexecPushdown = make([][]sqlparser.Expr, len(sp.From))
		for _, c := range sp.Conjuncts {
			switch c.Class {
			case ClassPushdown:
				sp.VexecPushdown[c.Input] = append(sp.VexecPushdown[c.Input], c.Expr)
			case ClassResidual:
				sp.VexecResidual = append(sp.VexecResidual, c.Expr)
			}
		}
	}

	// Joined schema in join order: From[0], then each step's right input.
	if len(sp.From) > 0 {
		width := 0
		for _, in := range sp.From {
			width += len(in.Schema)
		}
		sp.Schema = append(make([]ColumnMeta, 0, width), sp.From[0].Schema...)
		for _, step := range sp.JoinSteps {
			sp.Schema = append(sp.Schema, sp.From[step.Right].Schema...)
		}
	}

	sp.Grouped = len(stmt.GroupBy) > 0 || statementHasAggregates(stmt)
	if !sp.Grouped && !stmt.Distinct && len(stmt.OrderBy) == 0 && stmt.Limit != nil {
		sp.EarlyLimit = int(*stmt.Limit)
		if stmt.Offset != nil {
			sp.EarlyLimit += int(*stmt.Offset)
		}
	}

	sp.Needed = neededColumns(sp)
	if err := layout(sp); err != nil {
		return nil, err
	}
	resolveOutput(sp)
	if sp.Grouped {
		resolveAggregates(sp)
	}
	return sp, nil
}

// buildInput resolves one FROM item.
func (b *builder) buildInput(te sqlparser.TableExpr) (*Input, error) {
	switch t := te.(type) {
	case *sqlparser.TableName:
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		cols, ok := b.cat.TableColumns(t.Name)
		if !ok {
			return nil, fmt.Errorf("unknown table %q", t.Name)
		}
		in := &Input{Table: t.Name, Alias: alias}
		for _, c := range cols {
			in.Schema = append(in.Schema, ColumnMeta{Table: strings.ToLower(alias), Name: strings.ToLower(c)})
		}
		return in, nil
	case *sqlparser.DerivedTable:
		sub, err := b.buildChain(t.Select)
		if err != nil {
			return nil, err
		}
		in := &Input{Derived: sub, Alias: t.Alias}
		schema := append([]ColumnMeta(nil), sub.OutSchema...)
		if t.Alias != "" {
			for i := range schema {
				schema[i].Table = strings.ToLower(t.Alias)
			}
		}
		in.Schema = schema
		return in, nil
	case *sqlparser.JoinExpr:
		j, err := b.buildJoin(t)
		if err != nil {
			return nil, err
		}
		return &Input{Join: j, Schema: j.Schema}, nil
	default:
		return nil, fmt.Errorf("unsupported table expression %T", te)
	}
}

// buildJoin resolves an explicit JOIN tree node, classifying its ON
// condition into equi-join keys and residual predicates.
func (b *builder) buildJoin(j *sqlparser.JoinExpr) (*Join, error) {
	left, err := b.buildInput(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := b.buildInput(j.Right)
	if err != nil {
		return nil, err
	}
	kind := j.Kind
	if kind == "RIGHT" {
		// The interpreter implements RIGHT as LEFT with swapped sides; the
		// plan normalizes the same way so all executors agree on the
		// output column order.
		left, right = right, left
		kind = "LEFT"
	}
	out := &Join{Kind: kind, Left: left, Right: right}
	out.Schema = append(append([]ColumnMeta(nil), left.Schema...), right.Schema...)
	if kind == "CROSS" {
		return out, nil
	}
	conds := splitAnd(j.On)
	out.AllConds = conds
	for _, c := range conds {
		if isEquiJoinBetween(c, left.Schema, right.Schema) {
			l, r := equiJoinSides(c, left.Schema)
			out.LeftKeys = append(out.LeftKeys, l)
			out.RightKeys = append(out.RightKeys, r)
		} else {
			out.Residual = append(out.Residual, c)
		}
	}
	return out, nil
}

// classifyPushdowns marks conjuncts that resolve entirely within a single
// FROM input (the vectorized executor evaluates them below the joins; the
// result set is provably identical). Constant predicates go to input 0.
// Conjuncts carrying sub-queries contribute the sub-queries' free
// (correlated) references on top of their own: the probe site must see
// those columns, so the conjunct may only be pushed to an input that
// provides them.
func (b *builder) classifyPushdowns(sp *Select) {
	for ci := range sp.Conjuncts {
		c := &sp.Conjuncts[ci]
		refs := b.effectiveRefs(c.Expr)
		if len(refs) == 0 {
			c.Class = ClassPushdown
			c.Input = 0
			continue
		}
		target := -1
		for ii, in := range sp.From {
			if refsResolve(refs, in.Schema) {
				if target >= 0 {
					target = -2 // resolves in several inputs: leave residual
					break
				}
				target = ii
			}
		}
		if target >= 0 {
			c.Class = ClassPushdown
			c.Input = target
		}
	}
}

// planJoins replays the executors' greedy join-order search statically:
// starting from the first FROM input, repeatedly join the first remaining
// input connected to the accumulated schema through an equi-join conjunct;
// fall back to a cross product with the first remaining input when no edge
// exists. Consumed conjuncts become ClassJoin.
func (b *builder) planJoins(sp *Select) {
	accum := append([]ColumnMeta(nil), sp.From[0].Schema...)
	remaining := make([]int, 0, len(sp.From)-1)
	for i := 1; i < len(sp.From); i++ {
		remaining = append(remaining, i)
	}
	for len(remaining) > 0 {
		bestIdx := -1
		var edges []int
		for ri, fi := range remaining {
			var found []int
			for ci := range sp.Conjuncts {
				c := &sp.Conjuncts[ci]
				if c.Class == ClassJoin {
					continue
				}
				if isEquiJoinBetween(c.Expr, accum, sp.From[fi].Schema) {
					found = append(found, ci)
				}
			}
			if len(found) > 0 {
				bestIdx = ri
				edges = found
				break
			}
		}
		if bestIdx < 0 {
			fi := remaining[0]
			sp.JoinSteps = append(sp.JoinSteps, JoinStep{Right: fi, Cross: true})
			accum = append(accum, sp.From[fi].Schema...)
			remaining = remaining[1:]
			continue
		}
		fi := remaining[bestIdx]
		step := JoinStep{Right: fi}
		for _, ci := range edges {
			c := &sp.Conjuncts[ci]
			l, r := equiJoinSides(c.Expr, accum)
			step.LeftKeys = append(step.LeftKeys, l)
			step.RightKeys = append(step.RightKeys, r)
			c.Class = ClassJoin
		}
		sp.JoinSteps = append(sp.JoinSteps, step)
		accum = append(accum, sp.From[fi].Schema...)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
}

// walkExpressions visits every expression of one SELECT core once. It plans
// each nested SELECT reachable through them and records its correlation
// verdict, it sizes the slot tables, and it parses each numeric literal: the
// lexer admits `1e+` and `1e999` and an INTERVAL count is an arbitrary
// string, so a malformed one is a build error here and no executor ever sees
// it.
func (b *builder) walkExpressions(stmt *sqlparser.SelectStatement) error {
	var firstErr error
	checkNumber := func(lit string) {
		if _, err := sqlsem.ParseNumber(lit); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	register := func(s *sqlparser.SelectStatement) {
		if s == nil || b.p.Sub(s) != nil {
			return
		}
		sub, err := b.buildChain(s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if b.p.subs == nil {
			b.p.subs = map[*sqlparser.SelectStatement]subquery{}
		}
		// Correlated: some reference escapes the statement's own FROM scopes,
		// so its result cannot be cached across outer rows.
		var free []*sqlparser.ColumnRef
		b.collectFreeRefs(s, map[string]bool{}, &free)
		b.p.subs[s] = subquery{plan: sub, correlated: len(free) > 0}
	}
	collect := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			switch v := x.(type) {
			case *sqlparser.SubqueryExpr:
				register(v.Select)
			case *sqlparser.InExpr:
				register(v.Subquery)
			case *sqlparser.ExistsExpr:
				register(v.Subquery)
			case *sqlparser.NumberLit:
				checkNumber(v.Value)
			case *sqlparser.IntervalLit:
				checkNumber(v.Value)
			case *sqlparser.ColumnRef:
				b.refs = max(b.refs, v.Ord+1)
			}
			return true
		})
	}
	stmt.ClauseExprs(collect)
	var walkTE func(te sqlparser.TableExpr)
	walkTE = func(te sqlparser.TableExpr) {
		if j, ok := te.(*sqlparser.JoinExpr); ok {
			collect(j.On)
			walkTE(j.Left)
			walkTE(j.Right)
		}
	}
	for _, te := range stmt.From {
		walkTE(te)
	}
	return firstErr
}

// --- schema resolution -------------------------------------------------------

// schemaFind resolves a possibly qualified column reference against a schema
// with the executors' ambiguity rules: unqualified lookups matching columns
// of the same name under different aliases are ambiguous.
func schemaFind(meta []ColumnMeta, table, name string) (int, error) {
	if schemaFindObserver != nil {
		schemaFindObserver()
	}
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	found := -1
	for i, m := range meta {
		if m.Name != name {
			continue
		}
		if table != "" && m.Table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		return -1, errColumnNotFound
	}
	return found, nil
}

// schemaFindObserver, when set, sees every name lookup; tests count them.
var schemaFindObserver func()

// errColumnNotFound tells "not at this level, ask the enclosing one" from a
// true ambiguity.
var errColumnNotFound = fmt.Errorf("column not found")

func resolvesIn(c *sqlparser.ColumnRef, meta []ColumnMeta) bool {
	_, err := schemaFind(meta, c.Table, c.Column)
	return err == nil
}

func refsResolve(refs []*sqlparser.ColumnRef, meta []ColumnMeta) bool {
	for _, c := range refs {
		if !resolvesIn(c, meta) {
			return false
		}
	}
	return true
}

// isEquiJoinBetween reports whether the conjunct is `a = b` with a resolving
// only in the left schema and b only in the right (or vice versa).
func isEquiJoinBetween(c sqlparser.Expr, left, right []ColumnMeta) bool {
	be, ok := c.(*sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return false
	}
	lc, lok := be.Left.(*sqlparser.ColumnRef)
	rc, rok := be.Right.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return false
	}
	lInLeft, lInRight := resolvesIn(lc, left), resolvesIn(lc, right)
	rInLeft, rInRight := resolvesIn(rc, left), resolvesIn(rc, right)
	return (lInLeft && !lInRight && rInRight && !rInLeft) ||
		(rInLeft && !rInRight && lInRight && !lInLeft)
}

// equiJoinSides returns the expressions keyed on the left and right side
// respectively, assuming isEquiJoinBetween returned true.
func equiJoinSides(c sqlparser.Expr, left []ColumnMeta) (sqlparser.Expr, sqlparser.Expr) {
	be := c.(*sqlparser.BinaryExpr)
	lc := be.Left.(*sqlparser.ColumnRef)
	if resolvesIn(lc, left) {
		return be.Left, be.Right
	}
	return be.Right, be.Left
}

// --- predicate helpers -------------------------------------------------------

// splitAnd flattens a predicate into its top-level conjuncts.
func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []sqlparser.Expr{e}
}

// splitOr flattens a predicate into its top-level disjuncts.
func splitOr(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		if v.Op == "OR" {
			return append(splitOr(v.Left), splitOr(v.Right)...)
		}
	case *sqlparser.ParenExpr:
		return splitOr(v.Expr)
	}
	return []sqlparser.Expr{e}
}

func unwrapParens(e sqlparser.Expr) sqlparser.Expr {
	for {
		p, ok := e.(*sqlparser.ParenExpr)
		if !ok {
			return e
		}
		e = p.Expr
	}
}

// liftCommonOrConjuncts lifts predicates occurring in every arm of a
// top-level OR to the top level (the TPC-H Q19 pattern), so join edges
// buried in the disjunction can still drive hash joins. The original OR is
// kept; the lifted predicates are logically implied by it.
func liftCommonOrConjuncts(conjuncts []sqlparser.Expr) []sqlparser.Expr {
	out := append([]sqlparser.Expr(nil), conjuncts...)
	for _, c := range conjuncts {
		arms := splitOr(c)
		if len(arms) < 2 {
			continue
		}
		firstArm := splitAnd(unwrapParens(arms[0]))
		common := map[string]bool{}
		for _, p := range firstArm {
			common[p.SQL()] = true
		}
		for _, arm := range arms[1:] {
			present := map[string]bool{}
			for _, p := range splitAnd(unwrapParens(arm)) {
				present[p.SQL()] = true
			}
			//lint:ordered set intersection by deletion; emission below walks the first arm's syntactic order, never this map
			for k := range common {
				if !present[k] {
					delete(common, k)
				}
			}
		}
		// Emit in the first arm's syntactic order (a map range here would
		// make the plan — and the EXPLAIN plan-JSON — nondeterministic).
		for _, p := range firstArm {
			if key := p.SQL(); common[key] {
				delete(common, key)
				out = append(out, p)
			}
		}
	}
	return out
}

// statementHasAggregates reports whether the projection or HAVING uses
// aggregate functions.
func statementHasAggregates(stmt *sqlparser.SelectStatement) bool {
	for _, p := range stmt.Projection {
		if p.Expr != nil && sqlparser.HasAggregate(p.Expr) {
			return true
		}
	}
	return stmt.Having != nil && sqlparser.HasAggregate(stmt.Having)
}

// --- output contract -----------------------------------------------------------

// resolveOutput resolves the statement's output contract against the joined
// input schema, once for every executor: star items expand to the matching
// input ordinals ahead of the computed items, every output column gets its
// name, and each ORDER BY key becomes an output ordinal or an expression.
func resolveOutput(sp *Select) {
	var computed []ColumnMeta
	for _, p := range sp.Stmt.Projection {
		if p.Star {
			for ci, m := range sp.Schema {
				if p.Qualifier == "" || strings.EqualFold(p.Qualifier, m.Table) {
					sp.StarCols = append(sp.StarCols, ci)
					sp.OutSchema = append(sp.OutSchema, m)
				}
			}
			continue
		}
		name := p.Alias
		if name == "" {
			if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
				name = cr.Column
			} else {
				name = p.Expr.SQL()
			}
		}
		sp.Items = append(sp.Items, p.Expr)
		computed = append(computed, ColumnMeta{Name: strings.ToLower(name)})
	}
	sp.OutSchema = append(sp.OutSchema, computed...)

	for _, ob := range sp.Stmt.OrderBy {
		key := OrderKey{Col: -1, Desc: ob.Desc}
		switch e := ob.Expr.(type) {
		case *sqlparser.ColumnRef:
			// An unqualified reference sorts by the first computed item of
			// that output name; star columns are reached through the
			// expression like any input column.
			name := strings.ToLower(e.Column)
			for k, m := range computed {
				if e.Table == "" && m.Name == name {
					key.Col = len(sp.StarCols) + k
					break
				}
			}
		case *sqlparser.NumberLit:
			// walkExpressions already rejected a malformed literal.
			if n, _ := sqlsem.ParseNumber(e.Value); n.Int() >= 1 && n.Int() <= int64(len(sp.OutSchema)) {
				key.Col = int(n.Int()) - 1
			}
		}
		if key.Col < 0 {
			key.Expr = ob.Expr
		}
		sp.OrderBy = append(sp.OrderBy, key)
	}
}

// resolveAggregates fills the aggregation contract of a grouped core in one
// walk over projection, HAVING and ORDER BY (keys resolved to an output
// column carry nothing): the executors read it instead of re-walking and
// re-rendering the clauses on every execution.
func resolveAggregates(sp *Select) {
	sp.AggOf = map[*sqlparser.FuncCall]int{}
	sp.CarriedOf = map[*sqlparser.ColumnRef]int{}
	aggs, refs := map[string]int{}, map[string]int{}
	visit := func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.FuncCall:
			if !v.IsAggregate() {
				return true
			}
			key := v.SQL()
			i, ok := aggs[key]
			if !ok {
				i = len(sp.Aggs)
				aggs[key] = i
				sp.Aggs = append(sp.Aggs, Agg{Call: v, Func: strings.ToLower(v.Name)})
			}
			sp.AggOf[v] = i
			return false
		case *sqlparser.ColumnRef:
			key := strings.ToLower(v.Table) + "." + strings.ToLower(v.Column)
			i, ok := refs[key]
			if !ok {
				i = len(sp.Carried)
				refs[key] = i
				sp.Carried = append(sp.Carried, v)
			}
			sp.CarriedOf[v] = i
		}
		return true
	}
	for _, e := range sp.Items {
		sqlparser.WalkExprs(e, visit)
	}
	sqlparser.WalkExprs(sp.Stmt.Having, visit)
	for _, o := range sp.OrderBy {
		sqlparser.WalkExprs(o.Expr, visit)
	}
}

// --- column pruning ----------------------------------------------------------

// neededColumns computes, per table alias, the set of column names the
// statement references anywhere (including sub-queries); the column
// interpreter and the typed executor prune their scans to these. Unqualified
// references are attributed to every base table of the core that has a
// column of that name, so pruning never turns an ambiguous reference into a
// resolvable one.
func neededColumns(sp *Select) map[string]map[string]bool {
	needed := map[string]map[string]bool{}
	add := func(alias, col string) {
		alias = strings.ToLower(alias)
		if needed[alias] == nil {
			needed[alias] = map[string]bool{}
		}
		needed[alias][strings.ToLower(col)] = true
	}

	// The core's base-table inputs, join trees included.
	var bases []*Input
	var gather func(in *Input)
	gather = func(in *Input) {
		switch {
		case in.Join != nil:
			gather(in.Join.Left)
			gather(in.Join.Right)
		case in.Derived == nil:
			bases = append(bases, in)
		}
	}
	for _, in := range sp.From {
		gather(in)
	}

	var refs []*sqlparser.ColumnRef
	star := false
	var collectExpr func(e sqlparser.Expr)
	var collectStmt func(s *sqlparser.SelectStatement)
	collectExpr = func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			switch v := x.(type) {
			case *sqlparser.ColumnRef:
				refs = append(refs, v)
			case *sqlparser.SubqueryExpr:
				collectStmt(v.Select)
			case *sqlparser.InExpr:
				if v.Subquery != nil {
					collectStmt(v.Subquery)
				}
			case *sqlparser.ExistsExpr:
				collectStmt(v.Subquery)
			}
			return true
		})
	}
	var collectJoin func(j *sqlparser.JoinExpr)
	collectJoin = func(j *sqlparser.JoinExpr) {
		collectExpr(j.On)
		for _, side := range []sqlparser.TableExpr{j.Left, j.Right} {
			switch t := side.(type) {
			case *sqlparser.DerivedTable:
				collectStmt(t.Select)
			case *sqlparser.JoinExpr:
				collectJoin(t)
			}
		}
	}
	collectStmt = func(s *sqlparser.SelectStatement) {
		for _, p := range s.Projection {
			star = star || p.Star
		}
		s.ClauseExprs(collectExpr)
		for _, te := range s.From {
			switch t := te.(type) {
			case *sqlparser.DerivedTable:
				collectStmt(t.Select)
			case *sqlparser.JoinExpr:
				collectJoin(t)
			}
		}
		if s.SetNext != nil {
			collectStmt(s.SetNext)
		}
	}
	collectStmt(sp.Stmt)

	if star {
		for _, in := range bases {
			add(in.Alias, "*")
		}
	}
	for _, r := range refs {
		if r.Table != "" {
			add(r.Table, r.Column)
			continue
		}
		for _, in := range bases {
			if resolvesIn(r, in.Schema) {
				add(in.Alias, r.Column)
			}
		}
	}
	return needed
}

// --- correlation -------------------------------------------------------------

// effectiveRefs returns a predicate's outer-level column references plus the
// free (correlated) references of every sub-query it carries — the set of
// columns that must be in scope wherever the predicate is evaluated.
func (b *builder) effectiveRefs(e sqlparser.Expr) []*sqlparser.ColumnRef {
	refs := append([]*sqlparser.ColumnRef(nil), sqlparser.ColumnsIn(e)...)
	for _, s := range sqlparser.Subqueries(e) {
		b.collectFreeRefs(s, map[string]bool{}, &refs)
	}
	return refs
}

// collectFreeRefs appends the column references of the statement (and its
// nested sub-queries) that do not resolve against the statement's own FROM
// scope — the references through which a sub-query is correlated with its
// enclosing query; a sub-query is correlated when there is one. A scope is
// the column keys ("col", "alias.col") available from the statement's FROM
// clause on top of the inherited ones.
func (b *builder) collectFreeRefs(stmt *sqlparser.SelectStatement, inherited map[string]bool, out *[]*sqlparser.ColumnRef) {
	avail := map[string]bool{}
	for k := range inherited {
		avail[k] = true
	}
	var addTable func(te sqlparser.TableExpr)
	addTable = func(te sqlparser.TableExpr) {
		switch t := te.(type) {
		case *sqlparser.TableName:
			alias := t.Alias
			if alias == "" {
				alias = t.Name
			}
			cols, ok := b.cat.TableColumns(t.Name)
			if !ok {
				return
			}
			for _, c := range cols {
				avail[strings.ToLower(c)] = true
				avail[strings.ToLower(alias)+"."+strings.ToLower(c)] = true
			}
		case *sqlparser.DerivedTable:
			for _, p := range t.Select.Projection {
				name := p.Alias
				if name == "" {
					if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
						name = cr.Column
					}
				}
				if name != "" {
					avail[strings.ToLower(name)] = true
					if t.Alias != "" {
						avail[strings.ToLower(t.Alias)+"."+strings.ToLower(name)] = true
					}
				}
				if p.Star {
					for _, te2 := range t.Select.From {
						addTable(te2)
					}
				}
			}
		case *sqlparser.JoinExpr:
			addTable(t.Left)
			addTable(t.Right)
		}
	}
	for _, te := range stmt.From {
		addTable(te)
	}

	var checkExpr func(e sqlparser.Expr)
	checkExpr = func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			switch v := x.(type) {
			case *sqlparser.ColumnRef:
				key := strings.ToLower(v.Column)
				if v.Table != "" {
					key = strings.ToLower(v.Table) + "." + strings.ToLower(v.Column)
				}
				if !avail[key] {
					*out = append(*out, v)
				}
			case *sqlparser.SubqueryExpr:
				b.collectFreeRefs(v.Select, avail, out)
			case *sqlparser.InExpr:
				if v.Subquery != nil {
					b.collectFreeRefs(v.Subquery, avail, out)
				}
			case *sqlparser.ExistsExpr:
				b.collectFreeRefs(v.Subquery, avail, out)
			}
			return true
		})
	}
	stmt.ClauseExprs(checkExpr)
	for _, te := range stmt.From {
		if d, ok := te.(*sqlparser.DerivedTable); ok {
			b.collectFreeRefs(d.Select, map[string]bool{}, out)
		}
	}
	if stmt.SetNext != nil {
		b.collectFreeRefs(stmt.SetNext, inherited, out)
	}
}

// --- vectorizable verdict ----------------------------------------------------

// subSite is one sub-query use site with its consumption shape.
type subSite struct {
	stmt  *sqlparser.SelectStatement
	shape ApplyShape
}

// subSites lists the direct sub-query use sites of an expression.
func subSites(e sqlparser.Expr) []subSite {
	if e == nil {
		return nil
	}
	var sites []subSite
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.SubqueryExpr:
			sites = append(sites, subSite{stmt: v.Select, shape: ApplyFirst})
		case *sqlparser.InExpr:
			if v.Subquery != nil {
				sites = append(sites, subSite{stmt: v.Subquery, shape: ApplyIn})
			}
		case *sqlparser.ExistsExpr:
			sites = append(sites, subSite{stmt: v.Subquery, shape: ApplyExists})
		}
		return true
	})
	return sites
}

// checkSelect rules on one SELECT core of the plan tree, returning the
// first not-vectorizable reason or "": the plan-level verdict on what the
// typed executor can actually run — derived tables, LEFT outer joins and
// sub-queries included. It records the Apply decorrelation recipe for every
// correlated sub-query it accepts; the reasons name exactly the shapes the
// decorrelator provably cannot handle.
func (b *builder) checkSelect(sp *Select) string {
	if sp == nil {
		return ""
	}
	if sp.SetNext != nil {
		return "set operations"
	}
	for _, in := range sp.From {
		if r := b.checkPlanInput(in); r != "" {
			return r
		}
	}
	stmt := sp.Stmt
	// Correlated sub-queries are executable only as decorrelated probes in
	// the WHERE pipeline, where the outer rows being filtered are in scope;
	// in grouped or projected positions there is no outer batch to probe
	// with. Uncorrelated sub-queries run standalone and may appear anywhere.
	check := func(e sqlparser.Expr, inWhere bool) string {
		for _, site := range subSites(e) {
			subPlan := b.p.Sub(site.stmt)
			if subPlan == nil {
				return "sub-queries"
			}
			if b.p.Correlated(site.stmt) {
				if !inWhere {
					return "correlated sub-queries outside WHERE"
				}
				if r := b.computeApply(sp, site); r != "" {
					return r
				}
			}
			if r := b.checkSelect(subPlan); r != "" {
				return r
			}
		}
		return ""
	}
	for _, p := range stmt.Projection {
		if r := check(p.Expr, false); r != "" {
			return r
		}
	}
	if r := check(stmt.Where, true); r != "" {
		return r
	}
	for _, g := range stmt.GroupBy {
		if r := check(g, false); r != "" {
			return r
		}
	}
	if r := check(stmt.Having, false); r != "" {
		return r
	}
	for _, o := range stmt.OrderBy {
		if r := check(o.Expr, false); r != "" {
			return r
		}
	}
	return ""
}

func (b *builder) checkPlanInput(in *Input) string {
	switch {
	case in.Derived != nil:
		return b.checkSelect(in.Derived)
	case in.Join != nil:
		return b.checkPlanJoin(in.Join)
	}
	return ""
}

func (b *builder) checkPlanJoin(j *Join) string {
	if j.Kind != "CROSS" && j.Kind != "INNER" && j.Kind != "LEFT" {
		return j.Kind + " outer joins"
	}
	// A sub-query inside an ON condition has no probe site in the
	// vectorized pipeline: ON conditions run inside the join operator.
	for _, c := range j.AllConds {
		if len(sqlparser.Subqueries(c)) > 0 {
			return "sub-queries in JOIN conditions"
		}
	}
	if r := b.checkPlanInput(j.Left); r != "" {
		return r
	}
	return b.checkPlanInput(j.Right)
}

// computeApply proves one correlated WHERE sub-query decorrelatable against
// its host SELECT and records the Apply recipe, or returns the reason it is
// not. host is the SELECT whose WHERE directly contains the use site.
func (b *builder) computeApply(host *Select, site subSite) string {
	subPlan := b.p.Sub(site.stmt)
	stmt := subPlan.Stmt
	if stmt.SetNext != nil {
		return "set operations"
	}
	if len(stmt.OrderBy) > 0 || stmt.Limit != nil || stmt.Offset != nil {
		return "correlated sub-queries with ORDER BY or LIMIT"
	}
	if len(subPlan.From) == 0 {
		return "correlated FROM-less sub-queries"
	}
	shape := site.shape
	if subPlan.Grouped {
		if shape != ApplyFirst {
			return "correlated aggregated sub-queries outside a scalar position"
		}
		if len(stmt.GroupBy) > 0 || stmt.Having != nil {
			return "correlated sub-queries with GROUP BY or HAVING"
		}
		shape = ApplyAgg
	}
	// Projection constraints. Scalar and IN sites consume a single value per
	// inner row that must be computable from the inner schema alone. EXISTS
	// never consumes the projection, so it is restricted to items whose
	// evaluation provably cannot fail (the interpreters do evaluate them).
	switch shape {
	case ApplyFirst, ApplyAgg, ApplyIn:
		if len(stmt.Projection) != 1 || stmt.Projection[0].Star {
			return "correlated sub-queries projecting more than one value"
		}
		if !refsResolve(sqlparser.ColumnsIn(stmt.Projection[0].Expr), subPlan.Schema) {
			return "correlated sub-queries projecting enclosing-scope columns"
		}
	case ApplyExists:
		for _, p := range stmt.Projection {
			if p.Star {
				continue
			}
			switch v := p.Expr.(type) {
			case *sqlparser.ColumnRef:
				if !resolvesIn(v, subPlan.Schema) && !resolvesIn(v, host.Schema) {
					return "correlated EXISTS projecting unresolvable columns"
				}
			case *sqlparser.NumberLit, *sqlparser.StringLit, *sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.DateLit:
			default:
				return "correlated EXISTS with computed projections"
			}
		}
	}
	// Partition the sub-query's residual conjuncts: inner-only filters,
	// equi-correlation key pairs, and per-pair predicates spanning both
	// sides. Anything else defeats decorrelation.
	ap := &Apply{Shape: shape}
	for _, c := range subPlan.VexecResidual {
		if refsResolve(b.effectiveRefs(c), subPlan.Schema) {
			ap.InnerResidual = append(ap.InnerResidual, c)
			continue
		}
		if inner, outer, ok := correlationKeySides(c, subPlan.Schema, host.Schema); ok {
			ap.InnerKeys = append(ap.InnerKeys, inner)
			ap.OuterKeys = append(ap.OuterKeys, outer)
			continue
		}
		if !pairConjunctOK(c, subPlan.Schema, host.Schema) {
			return "correlated sub-queries whose correlation is not an equi-join"
		}
		ap.PairConjuncts = append(ap.PairConjuncts, c)
	}
	if len(ap.InnerKeys) == 0 {
		return "correlated sub-queries without an equi-join correlation predicate"
	}
	if shape == ApplyAgg && len(ap.PairConjuncts) > 0 {
		return "correlated aggregated sub-queries with non-equi correlation predicates"
	}
	b.p.subs[site.stmt] = subquery{plan: subPlan, correlated: true, apply: ap}
	return ""
}

// correlationKeySides recognizes `inner = outer` equi-correlation: one side
// resolving in the sub-query's own schema, the other only in the enclosing
// query's. Returns the (inner, outer) key expressions.
func correlationKeySides(c sqlparser.Expr, inner, outer []ColumnMeta) (sqlparser.Expr, sqlparser.Expr, bool) {
	be, ok := c.(*sqlparser.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil, nil, false
	}
	lc, lok := be.Left.(*sqlparser.ColumnRef)
	rc, rok := be.Right.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return nil, nil, false
	}
	lIn, rIn := resolvesIn(lc, inner), resolvesIn(rc, inner)
	lOut, rOut := resolvesIn(lc, outer), resolvesIn(rc, outer)
	if lIn && !rIn && rOut {
		return be.Left, be.Right, true
	}
	if rIn && !lIn && lOut {
		return be.Right, be.Left, true
	}
	return nil, nil, false
}

// pairConjunctOK reports whether every column the predicate references
// resolves on exactly one side of the decorrelated pair — the probe
// evaluates it over a combined (outer row, inner row) batch, where a column
// visible on both sides would be ambiguous and one visible on neither
// escapes the pair's scope entirely.
func pairConjunctOK(c sqlparser.Expr, inner, outer []ColumnMeta) bool {
	if len(sqlparser.Subqueries(c)) > 0 {
		return false
	}
	for _, r := range sqlparser.ColumnsIn(c) {
		if resolvesIn(r, inner) == resolvesIn(r, outer) {
			return false
		}
	}
	return true
}
