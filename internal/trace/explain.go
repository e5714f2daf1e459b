package trace

import (
	"encoding/json"
	"sort"
	"strings"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
)

// PlanDoc is the EXPLAIN plan-JSON document: a stable, schema-versioned
// rendering of the physical plan. Operators form a flat list in pipeline
// order; tree structure is encoded in the operator ids (nested plans extend
// the id prefix, see ids.go). The document is a pure function of the plan,
// so two engines executing the same plan explain identically.
type PlanDoc struct {
	SchemaVersion int    `json:"schema_version"`
	SQL           string `json:"sql,omitempty"`
	Normalized    string `json:"normalized_sql,omitempty"`
	// Vectorizable is the plan's precomputed verdict; Reason says why a
	// statement is outside the vectorized subset.
	Vectorizable bool     `json:"vectorizable"`
	Reason       string   `json:"not_vectorizable_reason,omitempty"`
	Operators    []PlanOp `json:"operators"`
}

// PlanOp describes one operator of the plan. Fields are populated per kind;
// absent fields are omitted from the JSON so golden files stay readable.
type PlanOp struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Table/Alias name the base table of a scan.
	Table string `json:"table,omitempty"`
	Alias string `json:"alias,omitempty"`
	// Columns are the pruned needed columns of a scan, or the output
	// columns of a projection.
	Columns []string `json:"columns,omitempty"`
	// Predicates are the filter conjuncts (canonical SQL text).
	Predicates []string `json:"predicates,omitempty"`
	// Pushdown marks a filter the vectorized engines evaluate below the
	// joins; the interpreters fold it into the residual filter.
	Pushdown bool `json:"pushdown,omitempty"`
	// Right names the right input of a join step; LeftKeys/RightKeys are
	// its equi-join key expressions.
	Right     string   `json:"right,omitempty"`
	LeftKeys  []string `json:"left_keys,omitempty"`
	RightKeys []string `json:"right_keys,omitempty"`
	// GroupBy and Aggregates describe the aggregation operator.
	GroupBy    []string `json:"group_by,omitempty"`
	Aggregates []string `json:"aggregates,omitempty"`
	// SortKeys are the ORDER BY expressions with direction suffixes.
	SortKeys []string `json:"sort_keys,omitempty"`
	Limit    *int64   `json:"limit,omitempty"`
	Offset   *int64   `json:"offset,omitempty"`
	// Correlated is the sub-query classification (uncorrelated sub-queries
	// are executed once and cached).
	Correlated *bool `json:"correlated,omitempty"`
	// SetOp is the set operation joining a branch to the chain.
	SetOp string `json:"set_op,omitempty"`
}

// Explain renders the plan-JSON document of one planned query.
func Explain(p *plan.Plan, sql string) *PlanDoc {
	doc := &PlanDoc{
		SchemaVersion: SchemaVersion,
		SQL:           sql,
		Normalized:    plan.Normalize(sql),
		Vectorizable:  p.Vectorizable,
		Reason:        p.NotVectorizableReason,
	}
	emitStatement(doc, p, NewIDs(p), p.Root)
	return doc
}

// JSON renders the document with indentation for the explain subcommand and
// the golden files; struct field order keeps the output stable.
func (d *PlanDoc) JSON() ([]byte, error) { return json.MarshalIndent(d, "", "  ") }

// OperatorIDs returns the set of operator ids in the document; the
// differential tests assert every engine's span ids are a subset.
func (d *PlanDoc) OperatorIDs() map[string]bool {
	ids := make(map[string]bool, len(d.Operators))
	for _, op := range d.Operators {
		ids[op.ID] = true
	}
	return ids
}

// emitStatement emits one statement chain: the head core plus its
// set-operation branches, mirroring the executors' executeSelect loop.
func emitStatement(doc *PlanDoc, p *plan.Plan, ids IDs, sp *plan.Select) {
	emitCore(doc, p, ids, sp)
	for cur := sp; cur.SetNext != nil; cur = cur.SetNext {
		doc.Operators = append(doc.Operators, PlanOp{ID: ids[cur.SetNext.Stmt].Self, Kind: KindSet, SetOp: cur.Stmt.SetOp})
		emitCore(doc, p, ids, cur.SetNext)
	}
}

// emitCore emits the operators of one SELECT core in pipeline order:
// inputs (with pushed-down filters), join steps, residual filter,
// aggregation, projection, distinct, sort, limit, then the core's nested
// sub-queries.
func emitCore(doc *PlanDoc, p *plan.Plan, ids IDs, sp *plan.Select) {
	stmt, o := sp.Stmt, ids[sp.Stmt]
	for i, in := range sp.From {
		switch {
		case in.Join != nil:
			doc.Operators = append(doc.Operators, PlanOp{
				ID: o.Inputs[i], Kind: KindJoinTree,
				Predicates: sqlList(in.Join.AllConds),
			})
		case in.Derived != nil:
			doc.Operators = append(doc.Operators, PlanOp{ID: o.Inputs[i], Kind: KindDerived, Alias: in.Alias})
			emitStatement(doc, p, ids, in.Derived)
		default:
			doc.Operators = append(doc.Operators, PlanOp{
				ID: o.Inputs[i], Kind: KindScan,
				Table: in.Table, Alias: in.Alias,
				Columns: neededColumns(sp, in.Alias),
			})
		}
		if i < len(sp.VexecPushdown) && len(sp.VexecPushdown[i]) > 0 {
			doc.Operators = append(doc.Operators, PlanOp{
				ID: o.Pushdown[i], Kind: KindFilter,
				Predicates: sqlList(sp.VexecPushdown[i]), Pushdown: true,
			})
		}
	}
	for k, step := range sp.JoinSteps {
		op := PlanOp{
			ID: o.Joins[k], Kind: KindHashJoin,
			Right:    o.Inputs[step.Right],
			LeftKeys: sqlList(step.LeftKeys), RightKeys: sqlList(step.RightKeys),
		}
		if step.Cross {
			op.Kind = KindCross
			op.LeftKeys, op.RightKeys = nil, nil
		}
		doc.Operators = append(doc.Operators, op)
	}
	if len(sp.Residual) > 0 {
		doc.Operators = append(doc.Operators, PlanOp{ID: o.Filter, Kind: KindFilter, Predicates: sqlList(sp.Residual)})
	}
	if sp.Grouped {
		doc.Operators = append(doc.Operators, PlanOp{
			ID: o.Agg, Kind: KindAgg,
			GroupBy: sqlList(stmt.GroupBy), Aggregates: aggregateList(stmt),
		})
	}
	doc.Operators = append(doc.Operators, PlanOp{ID: o.Project, Kind: KindProject, Columns: outputColumns(sp)})
	if stmt.Distinct {
		doc.Operators = append(doc.Operators, PlanOp{ID: o.Distinct, Kind: KindDistinct})
	}
	if len(stmt.OrderBy) > 0 {
		doc.Operators = append(doc.Operators, PlanOp{ID: o.Sort, Kind: KindSort, SortKeys: orderList(stmt)})
	}
	if stmt.Limit != nil || stmt.Offset != nil {
		doc.Operators = append(doc.Operators, PlanOp{ID: o.Limit, Kind: KindLimit, Limit: stmt.Limit, Offset: stmt.Offset})
	}
	for _, sub := range subqueries(p, stmt) {
		corr := p.Correlated(sub.Stmt)
		doc.Operators = append(doc.Operators, PlanOp{ID: ids[sub.Stmt].Self, Kind: KindSubquery, Correlated: &corr})
		emitStatement(doc, p, ids, sub)
	}
}

// neededColumns lists the pruned column set of one scan alias, sorted.
func neededColumns(sp *plan.Select, alias string) []string {
	set := sp.Needed[strings.ToLower(alias)]
	if len(set) == 0 {
		return nil
	}
	cols := make([]string, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// outputColumns lists the statement's output column names in order.
func outputColumns(sp *plan.Select) []string {
	if len(sp.OutSchema) == 0 {
		return nil
	}
	cols := make([]string, len(sp.OutSchema))
	for i, c := range sp.OutSchema {
		cols[i] = c.Name
	}
	return cols
}

// aggregateList renders the distinct aggregate calls of the projection,
// HAVING and ORDER BY clauses, in first-sight order.
func aggregateList(stmt *sqlparser.SelectStatement) []string {
	var out []string
	seen := map[string]bool{}
	walk := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncCall); ok && f.IsAggregate() {
				if key := f.SQL(); !seen[key] {
					seen[key] = true
					out = append(out, key)
				}
				return false
			}
			return true
		})
	}
	for _, p := range stmt.Projection {
		walk(p.Expr)
	}
	walk(stmt.Having)
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	return out
}

// orderList renders the ORDER BY keys with direction suffixes.
func orderList(stmt *sqlparser.SelectStatement) []string {
	out := make([]string, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		out[i] = o.Expr.SQL()
		if o.Desc {
			out[i] += " DESC"
		}
	}
	return out
}

// sqlList renders expressions to their canonical SQL texts.
func sqlList(exprs []sqlparser.Expr) []string {
	if len(exprs) == 0 {
		return nil
	}
	out := make([]string, len(exprs))
	for i, e := range exprs {
		out[i] = e.SQL()
	}
	return out
}
