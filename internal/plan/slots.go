package plan

import (
	"fmt"
	"strings"

	"sqalpel/internal/sqlparser"
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
// sub-queries start a new chain.
func (b *builder) bindSlots() {
	b.p.slotErrs = []error{errUnboundRef}
	for l := range b.p.slots {
		b.p.slots[l] = make([]Slot, b.refs)
		for i := range b.p.slots[l] {
			b.p.slots[l][i].Depth = -1
		}
	}
	b.bindChain(b.p.Root, nil)
}

var errUnboundRef = fmt.Errorf("internal: column reference has no slot")

func (b *builder) bindChain(sp *Select, outer *frame) {
	for ; sp != nil; sp = sp.SetNext {
		for _, in := range sp.From {
			b.bindInput(in, outer)
		}
		fr := &frame{layouts: [2][]ColumnMeta{sp.Schema, sp.Pruned}, outer: outer}
		b.bindExprs(fr, sp.Residual...)
		b.bindExprs(fr, sp.Stmt.GroupBy...)
		b.bindExprs(fr, sp.Items...)
		b.bindExprs(fr, sp.Stmt.Having)
		for _, k := range sp.OrderBy {
			b.bindExprs(fr, k.Expr)
		}
	}
}

func (b *builder) bindInput(in *Input, outer *frame) {
	switch {
	case in.Derived != nil:
		b.bindChain(in.Derived, nil)
	case in.Join != nil:
		b.bindInput(in.Join.Left, outer)
		b.bindInput(in.Join.Right, outer)
		b.bindExprs(&frame{layouts: [2][]ColumnMeta{in.Schema, in.Pruned}, outer: outer}, in.Join.AllConds...)
	}
}

func (b *builder) bindExprs(fr *frame, exprs ...sqlparser.Expr) {
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
	for _, e := range exprs {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			switch v := x.(type) {
			case *sqlparser.ColumnRef:
				b.bind(fr, v)
			case *sqlparser.SubqueryExpr:
				sub(v.Select)
			case *sqlparser.InExpr:
				sub(v.Subquery)
			case *sqlparser.ExistsExpr:
				sub(v.Subquery)
			}
			return true
		})
	}
}

// bind resolves one reference from the frame outwards, per layout: the first
// level that knows the name decides, an ambiguity at a level ends the search
// with its error, and a name no level knows is unknown.
func (b *builder) bind(fr *frame, c *sqlparser.ColumnRef) {
	fail := func(err error) Slot {
		b.p.slotErrs = append(b.p.slotErrs, err)
		return Slot{Depth: -1, Col: int32(len(b.p.slotErrs) - 1)}
	}
	for l := range b.p.slots {
		sl := Slot{}
		for f := fr; ; f = f.outer {
			if f == nil {
				sl = fail(fmt.Errorf("unknown column %s", c.SQL()))
				break
			}
			col, err := schemaFind(f.layouts[l], c.Table, c.Column)
			if err == nil {
				sl.Col = int32(col)
				break
			}
			if err != errColumnNotFound {
				sl = fail(err)
				break
			}
			sl.Depth++
		}
		b.p.slots[l][c.Ord] = sl
	}
}
