package trace

import (
	"strconv"
	"strings"

	"sqalpel/internal/sqlparser"
)

// Operator ids are a pure function of the logical plan's structure, so every
// engine labels the same logical operator identically and the EXPLAIN
// plan-JSON can be produced without executing anything. Within one SELECT
// core (prefix P, empty at the root):
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
//	P + "sub.<k>"     k-th nested sub-query of the core's clauses
//	P + "set.<j>"     j-th set-operation branch (j counts from 1)
//
// Nested plans extend the prefix: the ops of derived input i live under
// P+"input.<i>.", of sub-query k under P+"sub.<k>.", of set branch j under
// P+"set.<j>.".

// UntracedPrefix marks execution contexts without an operator id — the
// operands of explicit JOIN trees (traced as one input operator) and nested
// statements the prefix walk does not enumerate. Executors emit no span
// under it.
const UntracedPrefix = "\x00"

// ScanID is the id of base-table FROM input i.
func ScanID(prefix string, i int) string { return prefix + "scan." + strconv.Itoa(i) }

// InputID is the id of a derived-table or join-tree FROM input i.
func InputID(prefix string, i int) string { return prefix + "input." + strconv.Itoa(i) }

// PushFilterID is the id of the pushed-down filter over FROM input i.
func PushFilterID(prefix string, i int) string { return prefix + "filter." + strconv.Itoa(i) }

// JoinID is the id of join step k.
func JoinID(prefix string, k int) string { return prefix + "join." + strconv.Itoa(k) }

// FilterID is the id of the residual post-join filter.
func FilterID(prefix string) string { return prefix + "filter" }

// AggID is the id of the aggregation operator.
func AggID(prefix string) string { return prefix + "aggregate" }

// ProjectID is the id of the projection operator.
func ProjectID(prefix string) string { return prefix + "project" }

// DistinctID is the id of the duplicate-elimination operator.
func DistinctID(prefix string) string { return prefix + "distinct" }

// SortID is the id of the ORDER BY operator.
func SortID(prefix string) string { return prefix + "sort" }

// LimitID is the id of the LIMIT/OFFSET operator.
func LimitID(prefix string) string { return prefix + "limit" }

// SubID is the id of the core's k-th nested sub-query.
func SubID(prefix string, k int) string { return prefix + "sub." + strconv.Itoa(k) }

// SetID is the id of the core's j-th set-operation branch (j from 1).
func SetID(prefix string, j int) string { return prefix + "set." + strconv.Itoa(j) }

// DerivedPrefix is the id prefix of the plan nested under derived input i.
func DerivedPrefix(prefix string, i int) string { return InputID(prefix, i) + "." }

// SubPrefix is the id prefix of the plan nested under sub-query k.
func SubPrefix(prefix string, k int) string { return SubID(prefix, k) + "." }

// SetPrefix is the id prefix of the plan nested under set branch j.
func SetPrefix(prefix string, j int) string { return SetID(prefix, j) + "." }

// SubOpID recovers the sub-query operator id from its prefix.
func SubOpID(prefix string) string { return strings.TrimSuffix(prefix, ".") }

// SubqueryPrefixes maps every traceable nested SELECT statement reachable
// from stmt to its operator-id prefix. Enumeration is deterministic and
// purely syntactic — the same walk Explain performs — so the executors'
// runtime span ids always match the plan-JSON ids: within one core,
// sub-queries are numbered across the clauses in projection, WHERE,
// GROUP BY, HAVING, ORDER BY order; derived tables keep their FROM
// position; set branches count from 1. Statements nested inside explicit
// JOIN trees are not enumerated (and not traced).
func SubqueryPrefixes(stmt *sqlparser.SelectStatement, prefix string) map[*sqlparser.SelectStatement]string {
	m := map[*sqlparser.SelectStatement]string{}
	addStatementPrefixes(m, stmt, prefix)
	return m
}

// addStatementPrefixes walks one statement chain: the head core plus its
// set-operation branches.
func addStatementPrefixes(m map[*sqlparser.SelectStatement]string, stmt *sqlparser.SelectStatement, prefix string) {
	addCorePrefixes(m, stmt, prefix)
	j := 1
	for cur := stmt; cur.SetNext != nil; cur = cur.SetNext {
		addCorePrefixes(m, cur.SetNext, SetPrefix(prefix, j))
		j++
	}
}

// addCorePrefixes registers the sub-queries of one SELECT core and recurses
// into them and into the core's derived tables.
func addCorePrefixes(m map[*sqlparser.SelectStatement]string, stmt *sqlparser.SelectStatement, prefix string) {
	for i, te := range stmt.From {
		if dt, ok := te.(*sqlparser.DerivedTable); ok {
			addStatementPrefixes(m, dt.Select, DerivedPrefix(prefix, i))
		}
	}
	k := 0
	for _, sub := range CoreSubqueries(stmt) {
		p := SubPrefix(prefix, k)
		m[sub] = p
		k++
		addStatementPrefixes(m, sub, p)
	}
}

// CoreSubqueries enumerates the sub-query statements embedded in one core's
// expression clauses, in syntactic order. Explain and SubqueryPrefixes share
// this walk, which is what keeps runtime ids and plan-JSON ids aligned.
func CoreSubqueries(stmt *sqlparser.SelectStatement) []*sqlparser.SelectStatement {
	var subs []*sqlparser.SelectStatement
	clause := func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		subs = append(subs, sqlparser.Subqueries(e)...)
	}
	for _, p := range stmt.Projection {
		clause(p.Expr)
	}
	clause(stmt.Where)
	for _, g := range stmt.GroupBy {
		clause(g)
	}
	clause(stmt.Having)
	for _, o := range stmt.OrderBy {
		clause(o.Expr)
	}
	return subs
}
