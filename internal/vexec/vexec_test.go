package vexec

import (
	"errors"
	"fmt"
	"testing"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
)

// mapCatalog is the test catalog: a plain name -> table map.
type mapCatalog map[string]*Table

func (m mapCatalog) VTable(name string) (*Table, error) {
	if t, ok := m[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

// TableColumns implements plan.Catalog.
func (m mapCatalog) TableColumns(name string) ([]string, bool) {
	t, ok := m[name]
	if !ok {
		return nil, false
	}
	out := make([]string, len(t.Cols))
	for i, col := range t.Cols {
		out[i] = col.Name
	}
	return out, true
}

func intVec(vals ...int64) *Vector {
	v := NewVector(sqlsem.KindInt, len(vals))
	copy(v.Ints, vals)
	return v
}

func floatVec(vals ...float64) *Vector {
	v := NewVector(sqlsem.KindFloat, len(vals))
	copy(v.Floats, vals)
	return v
}

func strVec(vals ...string) *Vector {
	v := NewVector(sqlsem.KindString, len(vals))
	copy(v.Strs, vals)
	return v
}

func allNullVec(kind sqlsem.Kind, n int) *Vector {
	v := NewVector(kind, n)
	for i := 0; i < n; i++ {
		v.SetNull(i)
	}
	return v
}

func run(t *testing.T, cat mapCatalog, sql string, opts Options) *Result {
	t.Helper()
	p, err := plan.Build(cat, sql)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, err := ExecutePlan(cat, p, opts)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return res
}

func runErr(t *testing.T, cat mapCatalog, sql string, opts Options) error {
	t.Helper()
	p, err := plan.Build(cat, sql)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	_, err = ExecutePlan(cat, p, opts)
	return err
}

// seqCatalog builds a single-table catalog t(x int, y float, s string) with
// n rows: x = 0..n-1, y = float(x)/2, s = "s<x%5>".
func seqCatalog(n int) mapCatalog {
	xs := make([]int64, n)
	ys := make([]float64, n)
	ss := make([]string, n)
	for i := 0; i < n; i++ {
		xs[i] = int64(i)
		ys[i] = float64(i) / 2
		ss[i] = fmt.Sprintf("s%d", i%5)
	}
	return mapCatalog{"t": NewTable("t",
		TableColumn{Name: "x", Vec: intVec(xs...)},
		TableColumn{Name: "y", Vec: floatVec(ys...)},
		TableColumn{Name: "s", Vec: strVec(ss...)},
	)}
}

// TestFilterSkipsEmptyBatches drives a filter whose matches live in a single
// middle batch, so the surrounding batches are filtered to empty selections
// and must be skipped — including the batch that matches nothing at all (the
// empty selection vector must not read as "all rows live").
func TestFilterSkipsEmptyBatches(t *testing.T) {
	cat := seqCatalog(3000)
	opts := Options{BatchSize: 1024}

	res := run(t, cat, "SELECT count(*), sum(x) FROM t WHERE x >= 1500 AND x < 1510", opts)
	if got := res.Cols[0].Ints[0]; got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	if got := res.Cols[1].Ints[0]; got != 15045 {
		t.Errorf("sum = %d, want 15045", got)
	}

	// Zero matches anywhere: every batch ends with an empty selection.
	res = run(t, cat, "SELECT count(*) FROM t WHERE x < 0", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
	res = run(t, cat, "SELECT x FROM t WHERE x < 0", opts)
	if res.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", res.NumRows())
	}
}

// TestBatchBoundarySplits runs the same aggregation under batch sizes that
// split groups across batch boundaries in different places; the results must
// not depend on the batch size.
func TestBatchBoundarySplits(t *testing.T) {
	cat := seqCatalog(257)
	var want string
	for _, bs := range []int{1, 7, 64, 256, 257, 4096} {
		res := run(t, cat, "SELECT s, count(*) AS c, sum(x) AS sx FROM t GROUP BY s ORDER BY s", Options{BatchSize: bs})
		if res.NumRows() != 5 {
			t.Fatalf("batch size %d: groups = %d, want 5", bs, res.NumRows())
		}
		got := ""
		for i := 0; i < res.NumRows(); i++ {
			got += fmt.Sprintf("%s:%d:%d|", res.Cols[0].StrAt(i), res.Cols[1].Ints[i], res.Cols[2].Ints[i])
		}
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("batch size %d changed the result: %s vs %s", bs, got, want)
		}
	}
}

// TestAllNullColumns exercises aggregation, filtering and grouping over a
// column that is entirely NULL.
func TestAllNullColumns(t *testing.T) {
	cat := mapCatalog{"t": NewTable("t",
		TableColumn{Name: "v", Vec: allNullVec(sqlsem.KindInt, 100)},
		TableColumn{Name: "x", Vec: intVec(seq(100)...)},
	)}
	opts := Options{BatchSize: 32}

	res := run(t, cat, "SELECT count(v), count(*), sum(v), avg(v), min(v) FROM t", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("count(v) = %d, want 0", got)
	}
	if got := res.Cols[1].Ints[0]; got != 100 {
		t.Errorf("count(*) = %d, want 100", got)
	}
	for c := 2; c <= 4; c++ {
		if !res.Cols[c].IsNull(0) {
			t.Errorf("column %d should be NULL over an all-NULL input", c)
		}
	}

	// Comparisons against NULL are false: no rows survive.
	res = run(t, cat, "SELECT count(*) FROM t WHERE v = 1 OR v <> 1", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("NULL comparisons kept %d rows", got)
	}
	res = run(t, cat, "SELECT count(*) FROM t WHERE v IS NULL", opts)
	if got := res.Cols[0].Ints[0]; got != 100 {
		t.Errorf("IS NULL kept %d rows, want 100", got)
	}

	// Grouping by the NULL column folds everything into one group.
	res = run(t, cat, "SELECT count(*) FROM t GROUP BY v", opts)
	if res.NumRows() != 1 || res.Cols[0].Ints[0] != 100 {
		t.Errorf("GROUP BY null column: %d groups", res.NumRows())
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestJoinEdgeCases drives the hash join through empty sides, NULL keys and
// filtered inputs.
func TestJoinEdgeCases(t *testing.T) {
	left := NewTable("l",
		TableColumn{Name: "lk", Vec: intVec(1, 2, 2, 3)},
		TableColumn{Name: "lv", Vec: strVec("a", "b", "c", "d")},
	)
	rk := intVec(2, 2, 4, 0)
	rk.SetNull(3)
	right := NewTable("r",
		TableColumn{Name: "rk", Vec: rk},
		TableColumn{Name: "rv", Vec: strVec("x", "y", "z", "n")},
	)
	empty := NewTable("e", TableColumn{Name: "ek", Vec: intVec()})
	cat := mapCatalog{"l": left, "r": right, "e": empty}
	opts := Options{BatchSize: 2}

	// 2x2 matches for key 2.
	res := run(t, cat, "SELECT lv, rv FROM l, r WHERE lk = rk", opts)
	if res.NumRows() != 4 {
		t.Fatalf("join rows = %d, want 4", res.NumRows())
	}

	// Empty build/probe sides.
	res = run(t, cat, "SELECT lv FROM l, e WHERE lk = ek", opts)
	if res.NumRows() != 0 {
		t.Errorf("join with empty side: %d rows", res.NumRows())
	}

	// A filter that empties one side before the join.
	res = run(t, cat, "SELECT lv, rv FROM l, r WHERE lk = rk AND lk > 100", opts)
	if res.NumRows() != 0 {
		t.Errorf("join over emptied side: %d rows", res.NumRows())
	}

	// Cross join row count and the join-size guard.
	res = run(t, cat, "SELECT count(*) FROM l, r", opts)
	if got := res.Cols[0].Ints[0]; got != 16 {
		t.Errorf("cross join count = %d, want 16", got)
	}
	err := runErr(t, cat, "SELECT count(*) FROM l, r", Options{BatchSize: 2, Limits: plan.Limits{MaxJoinRows: 8}})
	if err == nil {
		t.Error("expected the join-size guard to fire")
	}
}

// TestIntFloatDuality locks in the SQL value semantics of integer division:
// exact quotients stay integers, inexact ones become floats — per row, not
// per vector.
func TestIntFloatDuality(t *testing.T) {
	cat := mapCatalog{"t": NewTable("t", TableColumn{Name: "x", Vec: intVec(6, 7)})}
	res := run(t, cat, "SELECT x / 2 AS h FROM t", Options{})
	if v := res.Cols[0].At(0); v.Kind != sqlsem.KindInt || v.I != 3 {
		t.Errorf("6/2 = %v %v, want int 3", v.Kind, v)
	}
	if v := res.Cols[0].At(1); v.Kind != sqlsem.KindFloat || v.F != 3.5 {
		t.Errorf("7/2 = %v %v, want float 3.5", v.Kind, v)
	}

	// The duality must survive aggregation: one inexact row makes the sum a
	// float, all-exact rows keep it an integer.
	res = run(t, cat, "SELECT sum(x / 2) FROM t", Options{})
	if v := res.Cols[0].At(0); v.Kind != sqlsem.KindFloat || v.F != 6.5 {
		t.Errorf("sum = %v %v, want float 6.5", v.Kind, v)
	}
	res = run(t, cat, "SELECT sum(x / 1) FROM t", Options{})
	if v := res.Cols[0].At(0); v.Kind != sqlsem.KindInt || v.I != 13 {
		t.Errorf("sum = %v %v, want int 13", v.Kind, v)
	}
}

// TestDistinctOrderLimit combines the epilogue stages over multiple batches.
func TestDistinctOrderLimit(t *testing.T) {
	cat := seqCatalog(100)
	opts := Options{BatchSize: 16}
	res := run(t, cat, "SELECT DISTINCT s FROM t ORDER BY s DESC LIMIT 3 OFFSET 1", opts)
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.NumRows())
	}
	want := []string{"s3", "s2", "s1"}
	for i, w := range want {
		if res.Cols[0].StrAt(i) != w {
			t.Errorf("row %d = %q, want %q", i, res.Cols[0].StrAt(i), w)
		}
	}
}

// TestUnsupportedStatements verifies the static subset check reports
// ErrUnsupported for the shapes the interpreter must handle instead.
func TestUnsupportedStatements(t *testing.T) {
	cat := seqCatalog(10)
	for _, sql := range []string{
		"SELECT x FROM t UNION SELECT x FROM t",
		"SELECT (SELECT max(b.x) FROM t b WHERE b.x = a.x) FROM t a",
		"SELECT a.x FROM t a WHERE EXISTS (SELECT 1 FROM t b WHERE b.x > a.x)",
	} {
		err := runErr(t, cat, sql, Options{})
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: err = %v, want ErrUnsupported", sql, err)
		}
	}
	// Plain errors stay plain: unknown tables and columns are plan.Build's
	// errors, not fallback material.
	for _, sql := range []string{"SELECT x FROM nope", "SELECT nope FROM t"} {
		if _, err := plan.Build(cat, sql); err == nil || errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err = %v", sql, err)
		}
	}
}

// TestSubqueriesAndOuterJoins covers the shapes that moved from the
// fallback list into the native subset: derived tables, LEFT joins,
// uncorrelated sub-queries (materialized once) and correlated ones
// (decorrelated into hash probes).
func TestSubqueriesAndOuterJoins(t *testing.T) {
	cat := seqCatalog(10) // x = 0..9
	cases := []struct {
		sql  string
		want []int64
	}{
		{"SELECT d.x FROM (SELECT x FROM t WHERE x < 3) d", []int64{0, 1, 2}},
		{"SELECT a.x FROM t a LEFT JOIN t b ON a.x = b.x AND b.x < 2 WHERE b.x IS NULL ORDER BY a.x LIMIT 3",
			[]int64{2, 3, 4}},
		{"SELECT x FROM t WHERE x IN (SELECT x FROM t WHERE x < 3)", []int64{0, 1, 2}},
		{"SELECT x FROM t WHERE x NOT IN (SELECT x FROM t WHERE x > 2) ORDER BY x", []int64{0, 1, 2}},
		{"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM t b WHERE b.x > 100)", nil},
		{"SELECT x FROM t WHERE x < (SELECT min(x) + 2 FROM t)", []int64{0, 1}},
		// Correlated EXISTS: rows with a matching partner below them.
		{"SELECT a.x FROM t a WHERE EXISTS (SELECT 1 FROM t b WHERE b.x = a.x AND b.s = 's0')",
			[]int64{0, 5}},
		// Correlated NOT EXISTS over an equi key.
		{"SELECT a.x FROM t a WHERE NOT EXISTS (SELECT 1 FROM t b WHERE b.x = a.x AND b.x < 8)",
			[]int64{8, 9}},
		// Correlated scalar aggregate: count of same-label rows.
		{"SELECT a.x FROM t a WHERE (SELECT count(*) FROM t b WHERE b.s = a.s) = 2 ORDER BY a.x LIMIT 4",
			[]int64{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		res := run(t, cat, tc.sql, Options{BatchSize: 4})
		if res.NumRows() != len(tc.want) {
			t.Errorf("%q: %d rows, want %d", tc.sql, res.NumRows(), len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if got := res.Cols[0].At(i).I; got != w {
				t.Errorf("%q row %d = %d, want %d", tc.sql, i, got, w)
			}
		}
	}
}

// TestStatsCounters sanity-checks the pipeline counters.
func TestStatsCounters(t *testing.T) {
	cat := seqCatalog(3000)
	res := run(t, cat, "SELECT s, count(*) FROM t WHERE x >= 10 GROUP BY s", Options{BatchSize: 1024})
	if res.Stats.RowsScanned != 3000 {
		t.Errorf("rows scanned = %d", res.Stats.RowsScanned)
	}
	if res.Stats.Batches != 3 {
		t.Errorf("batches = %d, want 3", res.Stats.Batches)
	}
	if res.Stats.FilterPasses == 0 || res.Stats.Groups != 5 {
		t.Errorf("filter passes = %d, groups = %d", res.Stats.FilterPasses, res.Stats.Groups)
	}
	if res.Stats.RowsReturned != 5 {
		t.Errorf("rows returned = %d", res.Stats.RowsReturned)
	}
}
