package plan

import (
	"errors"
	"fmt"
	"strings"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// layout computes the LayoutColumn of a SELECT core and of every input and
// join tree below it (LayoutRow is the Schema they already have), and the
// ordinals of the equi-join keys on their own side of each join. It runs once
// Needed is known: a join tree's base tables are pruned by the core's sets.
// The core holds each layout in one array, input by input in join order —
// Schema, and Pruned, sized by a first pass — and an input's layouts become
// its windows of the two, so a cached plan keeps every column name once.
func layout(sp *Select) error {
	if len(sp.From) == 0 {
		return nil
	}
	width := 0
	for _, in := range sp.From {
		width += prune(in, sp.Needed)
	}
	pruned, err := place(sp.From[0], sp.Schema, make([]ColumnMeta, 0, width))
	nRow := len(sp.From[0].Schema)
	for k := 0; k < len(sp.JoinSteps) && err == nil; k++ {
		step, right := &sp.JoinSteps[k], sp.From[sp.JoinSteps[k].Right]
		// The accumulated left side is the layout so far.
		left := [2][]ColumnMeta{sp.Schema[:nRow], pruned}
		if pruned, err = place(right, sp.Schema[nRow:], pruned); err == nil {
			step.KeyCols, err = keyCols(step.LeftKeys, step.RightKeys, left, [2][]ColumnMeta{right.Schema, right.Pruned})
		}
		nRow += len(right.Schema)
	}
	sp.Pruned = pruned
	return err
}

// prune decides which columns the base tables below the input keep in
// LayoutColumn (PrunedCols) and returns the input's width in that layout. A
// base table keeps the columns its alias's set names; no set at all (nothing
// of the table is referenced) keeps every column, as does a star anywhere in
// the statement. Derived tables are never pruned.
func prune(in *Input, needed map[string]map[string]bool) int {
	switch {
	case in.Join != nil:
		return prune(in.Join.Left, needed) + prune(in.Join.Right, needed)
	case in.Derived == nil:
		if set := needed[strings.ToLower(in.Alias)]; set != nil && !set["*"] {
			in.PrunedCols = make([]int32, 0, len(set))
			for i, m := range in.Schema {
				if set[m.Name] {
					in.PrunedCols = append(in.PrunedCols, int32(i))
				}
			}
			return len(in.PrunedCols)
		}
	}
	return len(in.Schema)
}

// place windows the input's layouts: its Schema becomes the head of row (the
// core's Schema from the input's first column on, which holds the same
// names), its pruned columns are appended to the core's array.
func place(in *Input, row, pruned []ColumnMeta) ([]ColumnMeta, error) {
	start, n := len(pruned), len(in.Schema)
	var err error
	switch j := in.Join; {
	case j != nil:
		nl := len(j.Left.Schema)
		if pruned, err = place(j.Left, row[:nl], pruned); err == nil {
			pruned, err = place(j.Right, row[nl:n], pruned)
		}
		if err == nil {
			j.KeyCols, err = keyCols(j.LeftKeys, j.RightKeys, [2][]ColumnMeta{j.Left.Schema, j.Left.Pruned}, [2][]ColumnMeta{j.Right.Schema, j.Right.Pruned})
		}
		j.Schema = row[:n:n]
	case in.PrunedCols != nil:
		for _, i := range in.PrunedCols {
			pruned = append(pruned, row[i])
		}
	default:
		pruned = append(pruned, row[:n]...)
	}
	in.Schema = row[:n:n]
	in.Pruned = pruned[start:len(pruned):len(pruned)]
	return pruned, err
}

// keyCols resolves a join's equi-keys — bare column references that resolve
// on their side by construction (isEquiJoinBetween) — in both layouts of
// both sides.
func keyCols(leftKeys, rightKeys []sqlparser.Expr, left, right [2][]ColumnMeta) (KeyCols, error) {
	out := make(KeyCols, 0, 4*len(leftKeys))
	for l := range left {
		for _, side := range []struct {
			keys []sqlparser.Expr
			meta []ColumnMeta
		}{{leftKeys, left[l]}, {rightKeys, right[l]}} {
			for _, e := range side.keys {
				c := e.(*sqlparser.ColumnRef)
				col, err := schemaFind(side.meta, c.Table, c.Column)
				if err != nil {
					return nil, fmt.Errorf("internal: join key %s: %w", c.SQL(), err)
				}
				out = append(out, int32(col))
			}
		}
	}
	return out, nil
}

// frame is one level of the scope chain an interpreter evaluates in: the
// layouts of the relation at that level and the enclosing level.
type frame struct {
	layouts [2][]ColumnMeta
	outer   *frame
}

// bindSlots fills the plan's slot tables by replaying the interpreters'
// scope chains over the plan tree: a SELECT core evaluates in its own layout
// chained to its caller's scope, an ON condition in the join's layout chained
// to the core's caller (not to the core), a correlated sub-query chains to
// the scope of the expression holding it, and derived tables and uncorrelated
// sub-queries start a new chain. The same walk is the plan's validity check:
// it returns the first statement error (checkShape, bindExprs) of the
// expressions an executor evaluates, whether or not a row would reach it.
func (b *builder) bindSlots() error {
	for l := range b.p.slots {
		b.p.slots[l] = make([]Slot, b.refs)
		for i := range b.p.slots[l] {
			b.p.slots[l][i].Depth = -1
		}
	}
	b.bindChain(b.p.Root, nil)
	return b.err
}

// fail keeps the first statement error the walk meets; nil is no error.
func (b *builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *builder) bindChain(sp *Select, outer *frame) {
	for head := sp; sp != nil; sp = sp.SetNext {
		b.checkShape(head, sp)
		for _, in := range sp.From {
			b.bindInput(in, outer)
		}
		fr := &frame{layouts: [2][]ColumnMeta{sp.Schema, sp.Pruned}, outer: outer}
		b.bindExprs(fr, false, sp.Residual...)
		b.bindExprs(fr, false, sp.Stmt.GroupBy...)
		b.bindExprs(fr, sp.Grouped, sp.Items...)
		b.bindExprs(fr, sp.Grouped, sp.Stmt.Having)
		for _, k := range sp.OrderBy {
			b.bindExprs(fr, sp.Grouped, k.Expr)
		}
	}
}

// checkShape rules on the shape of one SELECT core of a set-operation chain
// headed by head: a projection, no star beside grouping, and the head's
// width.
func (b *builder) checkShape(head, sp *Select) {
	switch {
	case len(sp.Stmt.Projection) == 0:
		b.fail(errors.New("query has no projection"))
	case sp.Grouped && len(sp.Items) < len(sp.Stmt.Projection):
		b.fail(errors.New("SELECT * is not supported with GROUP BY or aggregates"))
	case len(sp.OutSchema) != len(head.OutSchema):
		b.fail(fmt.Errorf("set operation requires matching column counts (%d vs %d)", len(head.OutSchema), len(sp.OutSchema)))
	}
}

func (b *builder) bindInput(in *Input, outer *frame) {
	switch {
	case in.Derived != nil:
		b.bindChain(in.Derived, nil)
	case in.Join != nil:
		b.bindInput(in.Join.Left, outer)
		b.bindInput(in.Join.Right, outer)
		b.bindExprs(&frame{layouts: [2][]ColumnMeta{in.Schema, in.Pruned}, outer: outer}, false, in.Join.AllConds...)
	}
}

// bindExprs binds the column references of the expressions and checks their
// calls: an aggregate only where aggs allows one (a grouped core's
// projection, HAVING and ORDER BY, never inside another aggregate), with
// count(*) the only star and one argument otherwise; a scalar function by
// sqlsem.CheckFunc after its arguments, as the executors evaluate it; and
// no template parameter anywhere.
func (b *builder) bindExprs(fr *frame, aggs bool, exprs ...sqlparser.Expr) {
	sub := func(s *sqlparser.SelectStatement) {
		if s == nil {
			return
		}
		outer := fr
		if !b.p.Correlated(s) {
			outer = nil
		}
		b.bindChain(b.p.Sub(s), outer)
	}
	visit := func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.ColumnRef:
			b.bind(fr, v)
		case *sqlparser.FuncCall:
			if !v.IsAggregate() {
				b.bindExprs(fr, aggs, v.Args...)
				b.fail(sqlsem.CheckFunc(v.Name, len(v.Args)))
				return false
			}
			switch {
			case !aggs:
				b.fail(fmt.Errorf("aggregate %s used outside GROUP BY context", v.Name))
			case v.Star && v.Name != "count":
				b.fail(fmt.Errorf("%s(*) is not valid", v.Name))
			case !v.Star && len(v.Args) != 1:
				b.fail(fmt.Errorf("aggregate %s expects exactly 1 argument", v.Name))
			}
			b.bindExprs(fr, false, v.Args...)
			return false
		case *sqlparser.ParamRef:
			b.fail(fmt.Errorf("unresolved template parameter ${%s}", v.Name))
		case *sqlparser.SubqueryExpr:
			sub(v.Select)
		case *sqlparser.InExpr:
			sub(v.Subquery)
		case *sqlparser.ExistsExpr:
			sub(v.Subquery)
		}
		return true
	}
	for _, e := range exprs {
		sqlparser.WalkExprs(e, visit)
	}
}

// bind resolves one reference from the frame outwards, per layout: the first
// level that knows the name decides, an ambiguity at a level ends the search
// with its error, and a name no level knows is unknown.
func (b *builder) bind(fr *frame, c *sqlparser.ColumnRef) {
	for l := range b.p.slots {
		sl := Slot{}
		for f := fr; ; f = f.outer {
			if f == nil {
				b.fail(fmt.Errorf("unknown column %s", c.SQL()))
				break
			}
			col, err := schemaFind(f.layouts[l], c.Table, c.Column)
			if err == nil {
				sl.Col = int32(col)
				b.p.slots[l][c.Ord] = sl
				break
			}
			if err != errColumnNotFound {
				b.fail(err)
				break
			}
			sl.Depth++
		}
	}
}
