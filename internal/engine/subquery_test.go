package engine

import (
	"testing"

	"sqalpel/internal/sqlsem"
)

// subqueryDB is a small two-table database for pinning sub-query edge
// cases on every engine: an outer table with nullable columns and an
// inner table whose filtered views can be empty, NULL-bearing, or carry
// several rows per correlation key.
//
//	outer: id | k | a          inner: ik | v    | w
//	        1 | 1 | 10                  1 | 100  | 7
//	        2 | 2 | NULL                1 | 200  | NULL
//	        3 | 3 | 30                  2 | 300  | 9
//	        4 | 1 | 40                  9 | NULL | 5
func subqueryDB() *Database {
	db := NewDatabase("subq")
	outer := NewTable("outer_t",
		Column{Name: "id", Type: TypeInt},
		Column{Name: "k", Type: TypeInt},
		Column{Name: "a", Type: TypeInt},
	)
	outer.MustAppendRow(sqlsem.NewInt(1), sqlsem.NewInt(1), sqlsem.NewInt(10))
	outer.MustAppendRow(sqlsem.NewInt(2), sqlsem.NewInt(2), sqlsem.Null())
	outer.MustAppendRow(sqlsem.NewInt(3), sqlsem.NewInt(3), sqlsem.NewInt(30))
	outer.MustAppendRow(sqlsem.NewInt(4), sqlsem.NewInt(1), sqlsem.NewInt(40))
	db.AddTable(outer)

	inner := NewTable("inner_t",
		Column{Name: "ik", Type: TypeInt},
		Column{Name: "v", Type: TypeInt},
		Column{Name: "w", Type: TypeInt},
	)
	inner.MustAppendRow(sqlsem.NewInt(1), sqlsem.NewInt(100), sqlsem.NewInt(7))
	inner.MustAppendRow(sqlsem.NewInt(1), sqlsem.NewInt(200), sqlsem.Null())
	inner.MustAppendRow(sqlsem.NewInt(2), sqlsem.NewInt(300), sqlsem.NewInt(9))
	inner.MustAppendRow(sqlsem.NewInt(9), sqlsem.Null(), sqlsem.NewInt(5))
	db.AddTable(inner)
	return db
}

// TestSubqueryEmptyResult pins the empty-sub-query contract on every
// engine: a scalar sub-query over no rows is NULL (so comparisons against
// it are UNKNOWN, not errors), IN over an empty set is plain FALSE (and
// NOT IN plain TRUE, even for NULL probes — the empty set short-circuits
// the ternary rule), and EXISTS is FALSE.
func TestSubqueryEmptyResult(t *testing.T) {
	db := subqueryDB()

	sql := "SELECT id, (SELECT MIN(v) FROM inner_t WHERE ik = 42) AS m FROM outer_t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|NULL", "2|NULL", "3|NULL", "4|NULL"})

	sql = "SELECT id FROM outer_t WHERE a > (SELECT v FROM inner_t WHERE ik = 42) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{})

	sql = "SELECT id, a IN (SELECT v FROM inner_t WHERE ik = 42) AS p FROM outer_t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|false", "2|false", "3|false", "4|false"})

	sql = "SELECT id FROM outer_t WHERE a NOT IN (SELECT v FROM inner_t WHERE ik = 42) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1", "2", "3", "4"})

	sql = "SELECT id FROM outer_t WHERE EXISTS (SELECT 1 FROM inner_t WHERE ik = 42) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{})
}

// TestScalarSubqueryMultiRowParity pins the scalar-sub-query cardinality
// behaviour across paradigms: a scalar sub-query returning several rows
// is answered from its first row on every engine — the differential
// matrix only works if the engines agree on the lenient behaviour, not
// each pick their own.
func TestScalarSubqueryMultiRowParity(t *testing.T) {
	db := subqueryDB()

	// ik = 1 has two rows (v = 100, 200) in insertion order.
	sql := "SELECT id, a + (SELECT v FROM inner_t WHERE ik = 1) AS p FROM outer_t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|110", "2|NULL", "3|130", "4|140"})

	sql = "SELECT id FROM outer_t WHERE a < (SELECT v FROM inner_t) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1", "3", "4"})
}

// TestNullBearingInSubquery pins the ternary IN contract against
// NULL-bearing sub-query sets: a probe that misses a set containing NULL
// is UNKNOWN (rejected by WHERE, NULL in projection), and NOT IN against
// such a set can never be TRUE.
func TestNullBearingInSubquery(t *testing.T) {
	db := subqueryDB()

	// SELECT v WHERE ik <> 2 yields {100, 200, NULL}.
	sql := "SELECT id, a IN (SELECT v FROM inner_t WHERE ik <> 2) AS p FROM outer_t ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|NULL", "2|NULL", "3|NULL", "4|NULL"})

	sql = "SELECT id FROM outer_t WHERE a NOT IN (SELECT v FROM inner_t WHERE ik <> 2) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{})

	// Against the NULL-free view {100, 300} the same probes decide cleanly.
	sql = "SELECT id FROM outer_t WHERE a NOT IN (SELECT v FROM inner_t WHERE w > 6) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1", "3", "4"})
}

// TestCorrelatedExistsEmptyOuter pins correlated EXISTS/NOT EXISTS and
// correlated scalar aggregates when the outer side is empty after
// filtering: the decorrelated engines must not trip over building an
// apply state nobody probes, and all engines return zero rows without
// error.
func TestCorrelatedExistsEmptyOuter(t *testing.T) {
	db := subqueryDB()

	sql := "SELECT id FROM outer_t WHERE id > 90 AND EXISTS (SELECT 1 FROM inner_t WHERE ik = k) ORDER BY id"
	res := runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{})

	sql = "SELECT id FROM outer_t WHERE id > 90 AND a < (SELECT SUM(v) FROM inner_t WHERE ik = k) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{})

	// The non-degenerate run of the same correlated shapes, for contrast:
	// k = 1 and 2 have inner matches, k = 3 has none; outer row 2 probes
	// with a = NULL.
	sql = "SELECT id FROM outer_t WHERE EXISTS (SELECT 1 FROM inner_t WHERE ik = k) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1", "2", "4"})

	sql = "SELECT id FROM outer_t WHERE NOT EXISTS (SELECT 1 FROM inner_t WHERE ik = k) ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"3"})

	sql = "SELECT id, (SELECT COUNT(v) FROM inner_t WHERE ik = k) AS c FROM outer_t ORDER BY id"
	res = runAllEngines(t, db, sql)
	expectRows(t, sql, res, []string{"1|2", "2|1", "3|0", "4|2"})
}
