package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
)

// miniDB builds a small hand-written database shared by the executor tests.
func miniDB() *Database {
	db := NewDatabase("mini")

	nation := NewTable("nation",
		Column{Name: "n_nationkey", Type: TypeInt},
		Column{Name: "n_name", Type: TypeString},
		Column{Name: "n_regionkey", Type: TypeInt},
		Column{Name: "n_comment", Type: TypeString},
	)
	names := []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "FRANCE", "GERMANY", "INDIA"}
	for i, n := range names {
		nation.MustAppendRow(sqlsem.NewInt(int64(i)), sqlsem.NewString(n), sqlsem.NewInt(int64(i%3)), sqlsem.NewString("comment "+n))
	}
	db.AddTable(nation)

	region := NewTable("region",
		Column{Name: "r_regionkey", Type: TypeInt},
		Column{Name: "r_name", Type: TypeString},
	)
	for i, n := range []string{"AFRICA", "AMERICA", "ASIA"} {
		region.MustAppendRow(sqlsem.NewInt(int64(i)), sqlsem.NewString(n))
	}
	db.AddTable(region)

	orders := NewTable("orders",
		Column{Name: "o_orderkey", Type: TypeInt},
		Column{Name: "o_nationkey", Type: TypeInt},
		Column{Name: "o_total", Type: TypeFloat},
		Column{Name: "o_date", Type: TypeDate},
		Column{Name: "o_status", Type: TypeString},
	)
	for i := 1; i <= 20; i++ {
		orders.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewInt(int64(i%8)),
			sqlsem.NewFloat(float64(i)*10.5),
			sqlsem.NewDate(sqlsem.MustParseDate("1995-01-01")+int64(i*10)),
			sqlsem.NewString([]string{"F", "O", "P"}[i%3]),
		)
	}
	db.AddTable(orders)
	return db
}

func runBoth(t *testing.T, db *Database, sql string) (*Result, *Result) {
	t.Helper()
	row, err := NewRowEngine().Execute(db, sql, ExecOptions{})
	if err != nil {
		t.Fatalf("row engine failed on %q: %v", sql, err)
	}
	col, err := NewColEngine().Execute(db, sql, ExecOptions{})
	if err != nil {
		t.Fatalf("col engine failed on %q: %v", sql, err)
	}
	return row, col
}

func TestSimpleProjectionAndFilter(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT n_name FROM nation WHERE n_name = 'BRAZIL'")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 1 || res.Cols[0].At(0).S != "BRAZIL" {
			t.Errorf("result = %v", res.Rows())
		}
		if len(res.Columns) != 1 || res.Columns[0] != "n_name" {
			t.Errorf("columns = %v", res.Columns)
		}
	}
}

func TestStarAndQualifiedStar(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT * FROM region")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 3 || len(res.Columns) != 2 {
			t.Errorf("star select wrong shape: %v %v", res.Columns, res.NumRows())
		}
	}
	row, col = runBoth(t, db, "SELECT n.* FROM nation n WHERE n.n_nationkey < 2")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 2 || len(res.Columns) != 4 {
			t.Errorf("qualified star wrong shape: %v rows %d", res.Columns, res.NumRows())
		}
	}
}

func TestCountStarAndAggregates(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT count(*), sum(o_total), min(o_total), max(o_total), avg(o_total) FROM orders")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 1 {
			t.Fatalf("aggregate result rows = %d", res.NumRows())
		}
		if res.Cols[0].At(0).Int() != 20 {
			t.Errorf("count = %v", res.Cols[0].At(0))
		}
		wantSum := 0.0
		for i := 1; i <= 20; i++ {
			wantSum += float64(i) * 10.5
		}
		if got := res.Cols[1].At(0).Float(); got < wantSum-0.01 || got > wantSum+0.01 {
			t.Errorf("sum = %v, want %v", got, wantSum)
		}
		if res.Cols[2].At(0).Float() != 10.5 || res.Cols[3].At(0).Float() != 210 {
			t.Errorf("min/max = %v / %v", res.Cols[2].At(0), res.Cols[3].At(0))
		}
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT count(*), sum(o_total) FROM orders WHERE o_total < 0")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 1 {
			t.Fatalf("expected one row, got %d", res.NumRows())
		}
		if res.Cols[0].At(0).Int() != 0 {
			t.Errorf("count over empty input = %v", res.Cols[0].At(0))
		}
		if !res.Cols[1].At(0).IsNull() {
			t.Errorf("sum over empty input should be NULL, got %v", res.Cols[1].At(0))
		}
	}

	// A bare column next to the aggregate reads the group's first row; the
	// global group of an empty input has none, so it is NULL on every
	// engine (the interpreters used to index row 0 of nothing).
	reg := NewRegistry()
	for _, tc := range []struct{ sql, want string }{
		{"SELECT o_status, count(*) FROM orders WHERE o_total < 0", "NULL|0"},
		{"SELECT o_nationkey + 1, sum(o_total) FROM orders WHERE o_total < 0", "NULL|NULL"},
	} {
		for _, key := range reg.Keys() {
			res, err := reg.Get(key).Execute(db, tc.sql, ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %q: %v", key, tc.sql, err)
			}
			if res.NumRows() != 1 {
				t.Fatalf("%s: %q: %d rows, want 1", key, tc.sql, res.NumRows())
			}
			if got := res.Cols[0].At(0).String() + "|" + res.Cols[1].At(0).String(); got != tc.want {
				t.Errorf("%s: %q = %s, want %s", key, tc.sql, got, tc.want)
			}
		}
	}
}

func TestGroupByHavingOrderLimit(t *testing.T) {
	db := miniDB()
	sql := `SELECT o_status, count(*) AS cnt, sum(o_total) AS total
		FROM orders GROUP BY o_status HAVING count(*) > 5
		ORDER BY total DESC LIMIT 2`
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Fatalf("engines disagree:\n%s\nvs\n%s", row.Fingerprint(), col.Fingerprint())
	}
	if row.NumRows() > 2 {
		t.Errorf("limit not applied: %d rows", row.NumRows())
	}
	// Ordering: totals must be descending.
	if row.NumRows() == 2 && row.Cols[2].At(0).Float() < row.Cols[2].At(1).Float() {
		t.Error("ORDER BY DESC not respected")
	}
}

func TestDistinct(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT DISTINCT n_regionkey FROM nation ORDER BY n_regionkey")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 3 {
			t.Errorf("distinct rows = %d, want 3", res.NumRows())
		}
	}
}

func TestJoins(t *testing.T) {
	db := miniDB()
	commaJoin := "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name"
	explicitJoin := "SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey ORDER BY n_name"
	rc, cc := runBoth(t, db, commaJoin)
	re, ce := runBoth(t, db, explicitJoin)
	if rc.Fingerprint() != re.Fingerprint() || cc.Fingerprint() != ce.Fingerprint() {
		t.Error("comma join and explicit join should produce the same result")
	}
	if rc.Fingerprint() != cc.Fingerprint() {
		t.Error("row and column engines disagree on join result")
	}
	if rc.NumRows() != 8 {
		t.Errorf("join rows = %d, want 8", rc.NumRows())
	}
}

func TestLeftOuterJoin(t *testing.T) {
	db := miniDB()
	// region ASIA (key 2) has nations; add a region with no nations.
	db.Table("region").MustAppendRow(sqlsem.NewInt(9), sqlsem.NewString("NOWHERE"))
	sql := `SELECT r_name, count(n_nationkey) AS cnt
		FROM region LEFT JOIN nation ON n_regionkey = r_regionkey
		GROUP BY r_name ORDER BY r_name`
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Fatal("engines disagree on left join")
	}
	foundEmpty := false
	for _, r := range row.Rows() {
		if r[0].S == "NOWHERE" {
			foundEmpty = true
			if r[1].Int() != 0 {
				t.Errorf("NOWHERE count = %v, want 0", r[1])
			}
		}
	}
	if !foundEmpty {
		t.Error("left join lost the unmatched region")
	}
}

func TestLeftJoinWithResidualCondition(t *testing.T) {
	db := miniDB()
	sql := `SELECT n_name, r_name FROM nation LEFT JOIN region ON n_regionkey = r_regionkey AND r_name <> 'ASIA' ORDER BY n_name`
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Fatal("engines disagree")
	}
	// Nations in ASIA must still appear, with NULL region.
	sawNull := false
	for _, r := range row.Rows() {
		if r[1].IsNull() {
			sawNull = true
		}
	}
	if !sawNull {
		t.Error("expected null-extended rows for the excluded region")
	}
}

func TestCrossJoinGuard(t *testing.T) {
	db := miniDB()
	defer SetJoinGuard(50)()
	_, err := NewColEngine().Execute(db, "SELECT n_name FROM nation, orders", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "row limit") {
		t.Errorf("expected cross product guard error, got %v", err)
	}
}

func TestSubqueries(t *testing.T) {
	db := miniDB()
	// Uncorrelated scalar.
	row, col := runBoth(t, db, "SELECT o_orderkey FROM orders WHERE o_total = (SELECT max(o_total) FROM orders)")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 1 || res.Cols[0].At(0).Int() != 20 {
			t.Errorf("scalar subquery result = %v", res.Rows())
		}
	}
	// IN subquery.
	row, col = runBoth(t, db, `SELECT n_name FROM nation WHERE n_nationkey IN (SELECT o_nationkey FROM orders WHERE o_total > 150) ORDER BY n_name`)
	if row.Fingerprint() != col.Fingerprint() {
		t.Error("engines disagree on IN subquery")
	}
	// Correlated EXISTS.
	row, col = runBoth(t, db, `SELECT n_name FROM nation WHERE EXISTS (SELECT * FROM orders WHERE o_nationkey = n_nationkey AND o_total > 180) ORDER BY n_name`)
	if row.Fingerprint() != col.Fingerprint() {
		t.Error("engines disagree on EXISTS subquery")
	}
	// NOT EXISTS.
	rowNE, colNE := runBoth(t, db, `SELECT n_name FROM nation WHERE NOT EXISTS (SELECT * FROM orders WHERE o_nationkey = n_nationkey) ORDER BY n_name`)
	if rowNE.Fingerprint() != colNE.Fingerprint() {
		t.Error("engines disagree on NOT EXISTS subquery")
	}
	if rowNE.NumRows()+row.NumRows() > 8 {
		t.Error("EXISTS partitioning looks wrong")
	}
	// Correlated scalar subquery.
	rowC, colC := runBoth(t, db, `SELECT o_orderkey FROM orders o1 WHERE o_total > (SELECT avg(o_total) FROM orders o2 WHERE o2.o_nationkey = o1.o_nationkey) ORDER BY o_orderkey`)
	if rowC.Fingerprint() != colC.Fingerprint() {
		t.Error("engines disagree on correlated scalar subquery")
	}
}

func TestDerivedTable(t *testing.T) {
	db := miniDB()
	sql := `SELECT status, cnt FROM (
		SELECT o_status AS status, count(*) AS cnt FROM orders GROUP BY o_status) sub
		WHERE cnt > 5 ORDER BY status`
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Error("engines disagree on derived table")
	}
	if row.NumRows() == 0 {
		t.Error("derived table query returned nothing")
	}
}

func TestCaseBetweenInLike(t *testing.T) {
	db := miniDB()
	sql := `SELECT n_name,
		CASE WHEN n_regionkey = 0 THEN 'AFR' WHEN n_regionkey = 1 THEN 'AME' ELSE 'OTHER' END AS region_code
		FROM nation WHERE n_nationkey BETWEEN 1 AND 5 AND n_name LIKE '%A%' AND n_regionkey IN (0, 1, 2)
		ORDER BY n_name`
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Error("engines disagree")
	}
	for _, r := range row.Rows() {
		if r[1].S != "AFR" && r[1].S != "AME" && r[1].S != "OTHER" {
			t.Errorf("unexpected case output %v", r[1])
		}
	}
}

func TestDateArithmeticAndExtract(t *testing.T) {
	db := miniDB()
	sql := `SELECT o_orderkey, EXTRACT(YEAR FROM o_date) AS y FROM orders
		WHERE o_date >= DATE '1995-01-01' AND o_date < DATE '1995-01-01' + INTERVAL '3' MONTH
		ORDER BY o_orderkey`
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Error("engines disagree")
	}
	for _, r := range row.Rows() {
		if r[1].Int() != 1995 {
			t.Errorf("extract year = %v", r[1])
		}
	}
	if row.NumRows() == 0 || row.NumRows() == 20 {
		t.Errorf("date range filter looks wrong: %d rows", row.NumRows())
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	db := miniDB()
	byAlias, _ := runBoth(t, db, "SELECT n_name AS nm FROM nation ORDER BY nm DESC LIMIT 3")
	byOrdinal, _ := runBoth(t, db, "SELECT n_name AS nm FROM nation ORDER BY 1 DESC LIMIT 3")
	if byAlias.Fingerprint() != byOrdinal.Fingerprint() {
		t.Error("alias and ordinal ordering disagree")
	}
	if byAlias.Cols[0].At(0).S != "INDIA" {
		t.Errorf("descending order wrong: %v", byAlias.Cols[0].At(0))
	}
}

func TestLimitOffset(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5 OFFSET 10")
	for _, res := range []*Result{row, col} {
		if res.NumRows() != 5 || res.Cols[0].At(0).Int() != 11 {
			t.Errorf("limit/offset wrong: %v", res.Rows())
		}
	}
}

func TestUnionOperations(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT n_name FROM nation WHERE n_regionkey = 0 UNION SELECT n_name FROM nation WHERE n_regionkey = 1 ORDER BY n_name")
	if row.Fingerprint() != col.Fingerprint() {
		t.Error("engines disagree on UNION")
	}
	all, _ := runBoth(t, db, "SELECT n_name FROM nation UNION ALL SELECT n_name FROM nation")
	if all.NumRows() != 16 {
		t.Errorf("UNION ALL rows = %d, want 16", all.NumRows())
	}
	except, _ := runBoth(t, db, "SELECT n_name FROM nation EXCEPT SELECT n_name FROM nation WHERE n_regionkey = 0")
	intersect, _ := runBoth(t, db, "SELECT n_name FROM nation INTERSECT SELECT n_name FROM nation WHERE n_regionkey = 0")
	if except.NumRows()+intersect.NumRows() != 8 {
		t.Errorf("EXCEPT (%d) + INTERSECT (%d) should cover all nations", except.NumRows(), intersect.NumRows())
	}
}

func TestCountDistinct(t *testing.T) {
	db := miniDB()
	row, col := runBoth(t, db, "SELECT count(DISTINCT n_regionkey) FROM nation")
	for _, res := range []*Result{row, col} {
		if res.Cols[0].At(0).Int() != 3 {
			t.Errorf("count distinct = %v, want 3", res.Cols[0].At(0))
		}
	}
}

func TestErrors(t *testing.T) {
	db := miniDB()
	eng := NewColEngine()
	cases := []string{
		"SELECT * FROM missing_table",
		"SELECT bogus_column FROM nation",
		"SELECT sum(n_nationkey FROM nation",
		"SELECT n_name FROM nation WHERE unknown = 3",
		"SELECT nosuchfunc(n_name) FROM nation",
	}
	for _, sql := range cases {
		if _, err := eng.Execute(db, sql, ExecOptions{}); err == nil {
			t.Errorf("query %q should have failed", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := miniDB()
	// Self join makes unqualified n_name ambiguous.
	_, err := NewRowEngine().Execute(db, "SELECT n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_nationkey", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
	// Qualified access works.
	res, err := NewRowEngine().Execute(db, "SELECT a.n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_nationkey", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 8 {
		t.Errorf("self join rows = %d, want 8", res.NumRows())
	}
}

func TestTimeout(t *testing.T) {
	db := miniDB()
	// An extremely small timeout on a query with enough work must abort.
	big := NewTable("big", Column{Name: "x", Type: TypeInt})
	for i := 0; i < 200000; i++ {
		big.MustAppendRow(sqlsem.NewInt(int64(i)))
	}
	db.AddTable(big)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err := NewColEngine().Execute(db, "SELECT count(*) FROM big a, big b WHERE a.x = b.x AND a.x % 7 = 1", ExecOptions{Context: ctx})
	if !errors.Is(err, plan.ErrTimeBudget) {
		t.Errorf("expected the time budget error, got %v", err)
	}
}

func TestEngineMetadata(t *testing.T) {
	row, col := NewRowEngine(), NewColEngine()
	if row.Name() == col.Name() {
		t.Error("engines should have distinct names")
	}
	if row.Dialect() == "" || col.Version() == "" {
		t.Error("metadata must be populated")
	}
	reg := NewRegistry()
	if len(reg.Keys()) < 3 {
		t.Errorf("registry keys = %v, want at least 3 engines", reg.Keys())
	}
	if reg.Get(EngineKey("tuplestore", "1.0")) == nil {
		t.Error("registry lookup failed")
	}
	if reg.Get("nope-1.0") != nil {
		t.Error("unknown engine should be nil")
	}
	if len(reg.Engines()) != len(reg.Keys()) {
		t.Error("Engines and Keys must align")
	}
}

func TestStatsDifferBetweenEngines(t *testing.T) {
	db := miniDB()
	sql := "SELECT o_status, sum(o_total * (1 - 0.05) * (1 + 0.02)) FROM orders GROUP BY o_status"
	row, col := runBoth(t, db, sql)
	if row.Fingerprint() != col.Fingerprint() {
		t.Fatal("engines disagree on result")
	}
	if col.Stats.IntermediatesMaterialized == 0 {
		t.Error("column engine should materialise intermediates")
	}
	if row.Stats.IntermediatesMaterialized != 0 {
		t.Error("row engine should not materialise intermediates")
	}
	if row.Stats.TuplesMaterialized == 0 {
		t.Error("row engine should copy full tuples")
	}
	if col.Stats.GuardCasts == 0 {
		t.Error("column engine should pay guard casts on multiplications")
	}
	// The improved column engine version drops the guard casts.
	v2 := NewRegistry().Get("columba-2.0")
	res2, err := v2.Execute(db, sql, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.GuardCasts != 0 {
		t.Error("version 2.0 should not pay guard casts")
	}
	if res2.Fingerprint() != col.Fingerprint() {
		t.Error("versions disagree on results")
	}
}

func TestRowEngineEarlyExitStats(t *testing.T) {
	db := miniDB()
	sql := "SELECT o_orderkey FROM orders WHERE o_total > 0 LIMIT 1"
	row, col := runBoth(t, db, sql)
	if row.NumRows() != 1 || col.NumRows() != 1 {
		t.Fatal("limit result wrong")
	}
	// Both scan the table, but the row engine stops filtering after the
	// first match while the column engine materialises the full selection.
	if row.Stats.RowsReturned != 1 {
		t.Errorf("row engine rows returned = %d", row.Stats.RowsReturned)
	}
}

func TestResultHelpers(t *testing.T) {
	db := miniDB()
	res, err := NewRowEngine().Execute(db, "SELECT n_name, n_regionkey FROM nation ORDER BY n_name LIMIT 2", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "n_name") || !strings.Contains(s, "ALGERIA") {
		t.Errorf("result string = %q", s)
	}
	if res.Fingerprint() == "" {
		t.Error("fingerprint empty")
	}
	m := res.Stats.Map()
	if m["rows_returned"] != 2 {
		t.Errorf("stats map = %v", m)
	}
}
