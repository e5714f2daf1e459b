package engine

import (
	"strings"
	"testing"

	"sqalpel/internal/sqlsem"
)

// nullDB is a tiny table with NULL-rich columns used to pin the ternary
// NULL semantics contract (see internal/sqlsem) on every engine.
//
//	id | a    | s
//	 1 | 1    | alpha
//	 2 | 2    | NULL
//	 3 | NULL | beta
//	 4 | 4    | NULL
//	 5 | NULL | gamma
//	 6 | 6    | alto
func nullDB() *Database {
	db := NewDatabase("nulls")
	t := NewTable("t",
		Column{Name: "id", Type: TypeInt},
		Column{Name: "a", Type: TypeInt},
		Column{Name: "s", Type: TypeString},
	)
	rows := []struct {
		id int64
		a  Value
		s  Value
	}{
		{1, sqlsem.NewInt(1), sqlsem.NewString("alpha")},
		{2, sqlsem.NewInt(2), sqlsem.Null()},
		{3, sqlsem.Null(), sqlsem.NewString("beta")},
		{4, sqlsem.NewInt(4), sqlsem.Null()},
		{5, sqlsem.Null(), sqlsem.NewString("gamma")},
		{6, sqlsem.NewInt(6), sqlsem.NewString("alto")},
	}
	for _, r := range rows {
		t.MustAppendRow(sqlsem.NewInt(r.id), r.a, r.s)
	}
	db.AddTable(t)
	return db
}

// runAllEngines executes the query on all five registry engines and asserts
// they return bit-identical results; the first engine's result is returned.
func runAllEngines(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	reg := NewRegistry()
	var first *Result
	var firstKey string
	for _, key := range reg.Keys() {
		res, err := reg.Get(key).Execute(db, sql, ExecOptions{})
		if err != nil {
			t.Fatalf("%s failed on %q: %v", key, sql, err)
		}
		if first == nil {
			first, firstKey = res, key
			continue
		}
		if got, want := renderRows(res), renderRows(first); got != want {
			t.Fatalf("%s diverges from %s on %q:\n%s\nvs\n%s", key, firstKey, sql, got, want)
		}
	}
	return first
}

func renderRows(r *Result) string {
	var sb strings.Builder
	for _, row := range r.Rows() {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sb.WriteString(strings.Join(parts, "|"))
		sb.WriteString("\n")
	}
	return sb.String()
}

// expectRows asserts the rendered result matches want (one row per entry,
// columns joined with |).
func expectRows(t *testing.T, sql string, res *Result, want []string) {
	t.Helper()
	got := renderRows(res)
	exp := strings.Join(want, "\n")
	if len(want) > 0 {
		exp += "\n"
	}
	if got != exp {
		t.Errorf("%q:\ngot:\n%swant:\n%s", sql, got, exp)
	}
}

// TestNullComparisonProjection pins the ternary comparison contract in
// projection position: NULL operands surface as NULL, and NOT over an
// UNKNOWN comparison stays UNKNOWN on every paradigm.
func TestNullComparisonProjection(t *testing.T) {
	db := nullDB()

	sql := "SELECT id, NOT (a = 2) AS p FROM t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|true", "2|false", "3|NULL", "4|true", "5|NULL", "6|true",
	})

	sql = "SELECT id, a = 2 AS p, a <> 2 AS q, a < 3 AS r FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|false|true|true",
		"2|true|false|true",
		"3|NULL|NULL|NULL",
		"4|false|true|false",
		"5|NULL|NULL|NULL",
		"6|false|true|false",
	})
}

// TestNullComparisonFilter pins the filter collapse: UNKNOWN rejects the
// row, so NOT (a = 2) keeps only rows where a is non-NULL and differs.
func TestNullComparisonFilter(t *testing.T) {
	db := nullDB()
	sql := "SELECT id FROM t WHERE NOT (a = 2) ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1", "4", "6"})
}

// TestNullLike pins NULL LIKE / NOT LIKE as NULL in projection and as a
// rejected row in filter position.
func TestNullLike(t *testing.T) {
	db := nullDB()

	sql := "SELECT id, s NOT LIKE 'al%' AS p FROM t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|false", "2|NULL", "3|true", "4|NULL", "5|true", "6|false",
	})

	sql = "SELECT id FROM t WHERE s NOT LIKE 'al%' ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"3", "5"})
}

// TestNullIn pins IN-list semantics: a found match is TRUE, a miss against
// a list containing NULL is UNKNOWN, a NULL probe is UNKNOWN, and NOT IN
// negates ternarily.
func TestNullIn(t *testing.T) {
	db := nullDB()

	sql := "SELECT id, a IN (1, 9, NULL) AS p FROM t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|true", "2|NULL", "3|NULL", "4|NULL", "5|NULL", "6|NULL",
	})

	sql = "SELECT id, a NOT IN (1, 9, NULL) AS p FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|false", "2|NULL", "3|NULL", "4|NULL", "5|NULL", "6|NULL",
	})

	// Without a NULL in the list, misses are definite FALSE again.
	sql = "SELECT id, a IN (1, 9) AS p FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|true", "2|false", "3|NULL", "4|false", "5|NULL", "6|false",
	})

	sql = "SELECT id FROM t WHERE a IN (1, 9, NULL) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1"})
}

// TestNullInSubquery pins the sub-query variants: an empty result set is
// FALSE even for a NULL probe, and a NULL-bearing set turns misses into
// UNKNOWN.
func TestNullInSubquery(t *testing.T) {
	db := nullDB()

	// Sub-query result {1, 2, NULL, 4, NULL, 6}: misses become UNKNOWN.
	sql := "SELECT id, a NOT IN (SELECT a FROM t) AS p FROM t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|false", "2|false", "3|NULL", "4|false", "5|NULL", "6|false",
	})

	// Empty sub-query: FALSE for every probe, NULL probes included.
	sql = "SELECT id, a IN (SELECT a FROM t WHERE a > 100) AS p FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|false", "2|false", "3|false", "4|false", "5|false", "6|false",
	})
}

// TestNullBetween pins BETWEEN as the ternary AND of its two comparisons.
func TestNullBetween(t *testing.T) {
	db := nullDB()

	sql := "SELECT id, a BETWEEN 2 AND 4 AS p, a NOT BETWEEN 2 AND 4 AS q FROM t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|false|true",
		"2|true|false",
		"3|NULL|NULL",
		"4|true|false",
		"5|NULL|NULL",
		"6|false|true",
	})

	// A NULL bound can still produce a definite answer when the other
	// comparison already fails: 6 > 4 makes BETWEEN NULL AND 4 FALSE.
	sql = "SELECT id, a BETWEEN NULL AND 4 AS p FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|NULL", "2|NULL", "3|NULL", "4|NULL", "5|NULL", "6|false",
	})

	sql = "SELECT id FROM t WHERE a BETWEEN 2 AND 4 ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"2", "4"})
}

// TestNullAndOrCase pins the ternary connectives and CASE arm collapse in
// both projection and filter position.
func TestNullAndOrCase(t *testing.T) {
	db := nullDB()

	sql := "SELECT id, (a = 2) AND (s = 'beta') AS p, (a = 2) OR (s = 'beta') AS q FROM t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		// a=1,s=alpha: F AND F / F OR F
		"1|false|false",
		// a=2,s=NULL: T AND U = U / T OR U = T
		"2|NULL|true",
		// a=NULL,s=beta: U AND T = U / U OR T = T
		"3|NULL|true",
		// a=4,s=NULL: F AND U = F / F OR U = U
		"4|false|NULL",
		// a=NULL,s=gamma: U AND F = F / U OR F = U
		"5|false|NULL",
		// a=6,s=alto: F AND F / F OR F
		"6|false|false",
	})

	// CASE WHEN collapses UNKNOWN conditions to "arm not taken".
	sql = "SELECT id, CASE WHEN a = 2 THEN 'two' WHEN a > 3 THEN 'big' ELSE 'rest' END AS c FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|rest", "2|two", "3|rest", "4|big", "5|rest", "6|big",
	})

	// NULL THEN-arm value flows through as NULL.
	sql = "SELECT id, CASE WHEN a = 2 THEN NULL ELSE 'rest' END AS c FROM t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{
		"1|rest", "2|NULL", "3|rest", "4|rest", "5|rest", "6|rest",
	})

	sql = "SELECT id FROM t WHERE (a = 2) OR (s = 'beta') ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"2", "3"})

	sql = "SELECT id FROM t WHERE (a > 1) AND (s LIKE 'a%') ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"6"})
}

// TestNullJoinKeys pins the join side of the contract: an equi-join key
// that is NULL compares UNKNOWN against everything, so it never matches —
// NULL keys must not bucket together in the hash-join paths. Grouping and
// DISTINCT keep the opposite (standard) behaviour: NULLs collapse into one
// group.
func TestNullJoinKeys(t *testing.T) {
	db := NewDatabase("nulljoin")
	t1 := NewTable("t1", Column{Name: "x", Type: TypeInt})
	for _, v := range []Value{sqlsem.NewInt(1), sqlsem.Null(), sqlsem.NewInt(2)} {
		t1.MustAppendRow(v)
	}
	db.AddTable(t1)
	t2 := NewTable("t2", Column{Name: "y", Type: TypeInt})
	for _, v := range []Value{sqlsem.NewInt(1), sqlsem.Null(), sqlsem.NewInt(3)} {
		t2.MustAppendRow(v)
	}
	db.AddTable(t2)

	sql := "SELECT x, y FROM t1, t2 WHERE x = y"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|1"})

	// LEFT JOIN: the NULL-key left row survives null-extended, it just
	// never matches.
	sql = "SELECT x, y FROM t1 LEFT JOIN t2 ON x = y ORDER BY x"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"NULL|NULL", "1|1", "2|NULL"})
}

// TestNullGroupingCollapses pins the deliberate asymmetry to joins:
// GROUP BY and DISTINCT treat all NULLs as one group.
func TestNullGroupingCollapses(t *testing.T) {
	db := nullDB()

	sql := "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"NULL|2", "1|1", "2|1", "4|1", "6|1"})

	sql = "SELECT DISTINCT a FROM t ORDER BY a"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"NULL", "1", "2", "4", "6"})
}

// TestNullLiteralPredicates pins predicates over a bare NULL literal.
func TestNullLiteralPredicates(t *testing.T) {
	db := nullDB()

	sql := "SELECT id, NULL = 1 AS p, NULL BETWEEN 1 AND 2 AS q, NOT NULL AS r FROM t WHERE id = 1"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|NULL|NULL|NULL"})

	sql = "SELECT id, NULL NOT LIKE 'a%' AS p FROM t WHERE id = 1"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|NULL"})
}
