package trace

import (
	"strconv"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
)

// Operator ids are a pure function of the logical plan's structure, so every
// engine labels the same logical operator identically and the EXPLAIN
// plan-JSON can be produced without executing anything. NewIDs is the one
// place that knows the scheme. Within one SELECT core (prefix P, empty at the
// root):
//
//	P + "scan.<i>"    base-table FROM input i
//	P + "input.<i>"   derived-table or explicit-join FROM input i
//	P + "filter.<i>"  pushed-down filter over input i (vectorized engines)
//	P + "join.<k>"    join step k of the plan's join order
//	P + "filter"      residual post-join filter
//	P + "aggregate"   grouping/aggregation
//	P + "project"     projection
//	P + "distinct"    duplicate elimination
//	P + "sort"        ORDER BY
//	P + "limit"       LIMIT/OFFSET
//	P + "sub.<k>"     k-th planned sub-query of the core's clauses, counted
//	                  across projection, WHERE, GROUP BY, HAVING, ORDER BY
//	P + "set.<j>"     j-th set-operation branch (j counts from 1)
//
// Nested plans extend the prefix: the ops of derived input i live under
// P+"input.<i>.", of sub-query k under P+"sub.<k>.", of set branch j under
// P+"set.<j>.". The operands of explicit JOIN trees, and everything inside
// them, are not numbered: the whole tree is one input operator.

// Ops are the operator ids of one numbered SELECT core. The executors hold
// one only while tracing, so a non-nil *Ops is also the tracing guard.
type Ops struct {
	// Self is the id of the operator the core runs under: "sub.<k>",
	// "set.<j>" or "input.<i>" of the enclosing core, "" at the root.
	Self string
	// Inputs and Pushdown are indexed by FROM position: the input operator
	// and the filter pushed down over it.
	Inputs, Pushdown []string
	// Joins are indexed by join step.
	Joins                                       []string
	Filter, Agg, Project, Distinct, Sort, Limit string
}

// IDs maps the statement of every numbered core of one plan to its operator
// ids. The executors key their sub-query state by statement too; a copy of a
// plan.Select shares its statement and so its ids.
type IDs map[*sqlparser.SelectStatement]*Ops

// NewIDs numbers the operators of every core of the plan the scheme reaches.
func NewIDs(p *plan.Plan) IDs {
	ids := IDs{}
	ids.statement(p, p.Root, "", "")
	return ids
}

// statement numbers one statement chain: the head core plus its
// set-operation branches.
func (ids IDs) statement(p *plan.Plan, sp *plan.Select, self, prefix string) {
	ids.core(p, sp, self, prefix)
	for j, cur := 1, sp; cur.SetNext != nil; j, cur = j+1, cur.SetNext {
		id := prefix + "set." + strconv.Itoa(j)
		ids.core(p, cur.SetNext, id, id+".")
	}
}

// core numbers one SELECT core and recurses into its derived inputs and its
// planned sub-queries.
func (ids IDs) core(p *plan.Plan, sp *plan.Select, self, prefix string) {
	o := &Ops{
		Self:   self,
		Filter: prefix + "filter", Agg: prefix + "aggregate", Project: prefix + "project",
		Distinct: prefix + "distinct", Sort: prefix + "sort", Limit: prefix + "limit",
		Inputs:   make([]string, len(sp.From)),
		Pushdown: make([]string, len(sp.From)),
		Joins:    make([]string, len(sp.JoinSteps)),
	}
	ids[sp.Stmt] = o
	for i, in := range sp.From {
		n := strconv.Itoa(i)
		o.Pushdown[i] = prefix + "filter." + n
		if in.Join == nil && in.Derived == nil {
			o.Inputs[i] = prefix + "scan." + n
			continue
		}
		o.Inputs[i] = prefix + "input." + n
		if in.Derived != nil {
			ids.statement(p, in.Derived, o.Inputs[i], o.Inputs[i]+".")
		}
	}
	for k := range sp.JoinSteps {
		o.Joins[k] = prefix + "join." + strconv.Itoa(k)
	}
	for k, sub := range subqueries(p, sp.Stmt) {
		id := prefix + "sub." + strconv.Itoa(k)
		ids.statement(p, sub, id, id+".")
	}
}

// subqueries lists the plans of a core's sub-queries in clause order.
func subqueries(p *plan.Plan, stmt *sqlparser.SelectStatement) []*plan.Select {
	var subs []*plan.Select
	stmt.ClauseExprs(func(e sqlparser.Expr) {
		for _, s := range sqlparser.Subqueries(e) {
			if sp := p.Sub(s); sp != nil {
				subs = append(subs, sp)
			}
		}
	})
	return subs
}
