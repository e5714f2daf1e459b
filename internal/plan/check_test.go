package plan

import (
	"testing"

	"sqalpel/internal/sqlparser"
)

// TestBuildRefusesStatementErrors: Build is the one validity check. It
// refuses each class of statement error with the text the executors used to
// raise when a row reached it, the first one of a statement in the order the
// interpreters meet them, and accepts what is valid in the same places.
func TestBuildRefusesStatementErrors(t *testing.T) {
	for _, c := range []struct{ sql, err string }{
		{"SELECT o_total FROM nosuch", `unknown table "nosuch"`},
		{"SELECT nosuch FROM orders WHERE o_total > 100", "unknown column nosuch"},
		{"SELECT o_total AS t FROM orders ORDER BY x", "unknown column x"},
		{"SELECT o_orderkey FROM orders o1, orders o2 WHERE o1.o_custkey = o2.o_orderkey", `ambiguous column reference "o_orderkey"`},
		{"SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_nosuch)", "unknown column c_nosuch"},
		{"SELECT c_name FROM customer LEFT JOIN orders ON o_custkey = c_custkey AND o_nosuch > 1", "unknown column o_nosuch"},
		{"SELECT max(*) FROM orders", "max(*) is not valid"},
		{"SELECT o_custkey FROM orders GROUP BY o_custkey ORDER BY sum(o_total, o_custkey)", "aggregate sum expects exactly 1 argument"},
		{"SELECT o_custkey FROM orders WHERE count(*) > 1 GROUP BY o_custkey", "aggregate count used outside GROUP BY context"},
		{"SELECT avg(sum(o_total)) FROM orders", "aggregate sum used outside GROUP BY context"},
		{"SELECT o_total FROM orders ORDER BY min(o_total)", "aggregate min used outside GROUP BY context"},
		{"SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey AND sum(o_total) > 1", "aggregate sum used outside GROUP BY context"},
		{"SELECT upper(o_total, 1) FROM orders", "upper expects 1 argument"},
		{"SELECT o_total FROM orders WHERE nosuch_fn(o_total) > 1", `unknown function "nosuch_fn"`},
		// A function's arguments are evaluated before the function is checked.
		{"SELECT nosuch_fn(nosuch) FROM orders", "unknown column nosuch"},
		{"SELECT o_total FROM orders LIMIT 1 OFFSET 0 UNION SELECT ${p} FROM orders", "unresolved template parameter ${p}"},
		{"SELECT *, count(*) FROM orders", "SELECT * is not supported with GROUP BY or aggregates"},
		{"SELECT o_total FROM orders UNION SELECT o_total FROM orders EXCEPT SELECT o_total, o_custkey FROM orders", "set operation requires matching column counts (1 vs 2)"},
		{"SELECT d.x FROM (SELECT o_total AS t FROM orders) d", "unknown column d.x"},
	} {
		if _, err := Build(testCat, c.sql); err == nil || err.Error() != c.err {
			t.Errorf("%s: %v, want %q", c.sql, err, c.err)
		}
	}
	for _, sql := range []string{
		"SELECT o_custkey, sum(o_total) AS s FROM orders GROUP BY o_custkey HAVING count(*) > 1 ORDER BY s, max(o_total)",
		"SELECT round(abs(sum(o_total)), 2), coalesce(min(o_total), 0) FROM orders",
		"SELECT count(DISTINCT o_custkey) FROM orders",
		"SELECT o_total AS t FROM orders ORDER BY t, 1",
		"SELECT c_name FROM customer WHERE c_custkey = (SELECT max(o_custkey) FROM orders WHERE o_total > c_nation)",
		"SELECT o_total FROM orders UNION SELECT c_custkey FROM customer",
	} {
		if _, err := Build(testCat, sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
	// The parser never produces a statement without a projection; a caller
	// of BuildStmt can.
	stmt, err := sqlparser.Parse("SELECT o_total FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	stmt.Projection = nil
	if _, err := BuildStmt(testCat, stmt); err == nil || err.Error() != "query has no projection" {
		t.Errorf("empty projection: %v", err)
	}
}
