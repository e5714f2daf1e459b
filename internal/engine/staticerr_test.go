package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqalpel/internal/engine"
	"sqalpel/internal/fuzzdiff"
	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
)

// staticErrors holds one or more statements per class of statement error
// over r(a, b), with the error plan.Build refuses each with — the text the
// executors raised themselves until the plan decided.
var staticErrors = []struct{ class, sql, err string }{
	{"unknown-column", "SELECT a FROM r WHERE nosuch = 1", "unknown column nosuch"},
	{"unknown-order-by-alias", "SELECT a AS x FROM r ORDER BY y", "unknown column y"},
	{"unknown-column-in-sub-query", "SELECT a FROM r WHERE EXISTS (SELECT 1 FROM r s WHERE s.nosuch = r.a)", "unknown column s.nosuch"},
	{"ambiguous-column", "SELECT a FROM r r1, r r2 WHERE r1.b = r2.b", `ambiguous column reference "a"`},
	{"aggregate-star", "SELECT sum(*) FROM r", "sum(*) is not valid"},
	{"aggregate-arity", "SELECT a FROM r GROUP BY a HAVING sum(a, b) > 1", "aggregate sum expects exactly 1 argument"},
	{"aggregate-in-where", "SELECT count(*) FROM r WHERE sum(a) > 1", "aggregate sum used outside GROUP BY context"},
	{"aggregate-in-group-by", "SELECT count(*) FROM r GROUP BY sum(a)", "aggregate sum used outside GROUP BY context"},
	{"aggregate-in-aggregate", "SELECT sum(max(a)) FROM r", "aggregate max used outside GROUP BY context"},
	{"aggregate-in-ungrouped-order-by", "SELECT a FROM r ORDER BY sum(b)", "aggregate sum used outside GROUP BY context"},
	{"unknown-function", "SELECT foo(a) FROM r", `unknown function "foo"`},
	{"function-arity", "SELECT abs(a, b) FROM r", "abs expects 1 argument"},
	{"template-parameter", "SELECT a FROM r WHERE a > ${x}", "unresolved template parameter ${x}"},
	{"star-with-grouping", "SELECT * FROM r GROUP BY a", "SELECT * is not supported with GROUP BY or aggregates"},
	{"set-operation-width", "SELECT a FROM r UNION SELECT a, b FROM r", "set operation requires matching column counts (1 vs 2)"},
	{"unknown-table", "SELECT a FROM nosuch", `unknown table "nosuch"`},
}

// staticTexts are the messages of the static classes, and the internal
// errors an executor meets when Build let a statement error through: a read
// of an unbound slot or an aggregate the plan did not precompute.
var staticTexts = []string{
	"unknown column", "ambiguous column reference", "is not valid", "expects exactly 1 argument",
	"used outside GROUP BY context", "unknown function", "expects 1 argument", "expects at least 1 argument",
	"unresolved template parameter", "SELECT * is not supported", "query has no projection",
	"set operation requires matching column counts", "unknown table",
	"internal: column reference has no slot", "was not precomputed",
}

// staticDB is r(a, b) with rows rows of (1, 2).
func staticDB(rows int) *engine.Database {
	db := engine.NewDatabase(fmt.Sprintf("static-%d", rows))
	db.AddTable(firstRows(engine.NewTable("r", engine.Column{Name: "a", Type: engine.TypeInt}, engine.Column{Name: "b", Type: engine.TypeInt}), rows,
		func(int) []engine.Value { return []engine.Value{sqlsem.NewInt(1), sqlsem.NewInt(2)} }))
	return db
}

// firstRows appends rows rows of row to t.
func firstRows(t *engine.Table, rows int, row func(i int) []engine.Value) *engine.Table {
	for i := 0; i < rows; i++ {
		t.MustAppendRow(row(i)...)
	}
	return t
}

// planErr is the plan's error inside an engine's, which names the engine
// first; "" when there is none.
func planErr(err error) string {
	if err = errors.Unwrap(err); err == nil {
		return ""
	}
	return err.Error()
}

// TestStaticErrorsAreThePlans: every engine refuses a statement of each
// static class with plan.Build's error, over an empty table and over one
// row alike, and so do Routes and Explain — no engine answers it while no
// row reaches the error, and none decides by itself.
func TestStaticErrorsAreThePlans(t *testing.T) {
	reg := engine.NewRegistry()
	for _, rows := range []int{0, 1} {
		db := staticDB(rows)
		for _, c := range staticErrors {
			t.Run(fmt.Sprintf("%s/rows=%d", c.class, rows), func(t *testing.T) {
				if _, err := plan.Build(db, c.sql); err == nil || err.Error() != c.err {
					t.Errorf("plan.Build: %v, want %q", err, c.err)
				}
				for _, key := range reg.Keys() {
					res, err := reg.Get(key).Execute(db, c.sql, engine.ExecOptions{})
					switch {
					case err == nil:
						t.Errorf("%s: %d rows, want %q", key, res.NumRows(), c.err)
					case planErr(err) != c.err:
						t.Errorf("%s: %v, want %q", key, err, c.err)
					}
				}
				if _, err := reg.Routes(db, c.sql); err == nil || err.Error() != c.err {
					t.Errorf("Routes: %v, want %q", err, c.err)
				}
				if _, err := reg.Explain(db, c.sql); err == nil || err.Error() != c.err {
					t.Errorf("Explain: %v, want %q", err, c.err)
				}
			})
		}
	}
}

// FuzzPlanBuild holds the SQL front end to three properties over the fuzz
// grammar's tables t and dim plus r, empty and with one row each:
// sqlparser.Parse and plan.Build never panic; a statement Build accepts
// runs on all six engines without a static-class error (it may still fail
// for its data, a type error say); and a statement Build refuses fails on
// every engine with Build's error. Seeds: the differential fuzzer's seed-42
// corpus and staticErrors.
//
//	go test -run '^$' -fuzz FuzzPlanBuild -fuzztime 10s -fuzzminimizetime 1s ./internal/engine
func FuzzPlanBuild(f *testing.F) {
	corpus, full, err := fuzzdiff.Corpus(fuzzdiff.Options{Seed: 42, Queries: 520})
	if err != nil {
		f.Fatal(err)
	}
	for _, sql := range corpus {
		f.Add(sql)
	}
	for _, c := range staticErrors {
		f.Add(c.sql)
	}
	var dbs []*engine.Database
	for _, rows := range []int{0, 1} {
		db := staticDB(rows)
		for _, name := range []string{"t", "dim"} {
			src := full.Table(name)
			db.AddTable(firstRows(engine.NewTable(name, src.Columns...), rows, func(i int) []engine.Value {
				row := make([]engine.Value, len(src.Columns))
				for c := range row {
					row[c] = src.ColumnValues(c)[i]
				}
				return row
			}))
		}
		dbs = append(dbs, db)
	}
	// No plan cache: it keys on the normalized text, so a parse error's
	// position would be that of the first input with the same key.
	reg := engine.NewRegistry()
	for _, e := range reg.Engines() {
		e.(engine.PlanCached).SetPlanCache(nil)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		for _, db := range dbs {
			_, buildErr := plan.Build(db, sql)
			for _, key := range reg.Keys() {
				_, err := reg.Get(key).Execute(db, sql, engine.ExecOptions{})
				switch {
				case buildErr != nil && planErr(err) != buildErr.Error():
					t.Fatalf("%s over %s: %v; plan.Build refused it with %q", key, db.Name, err, buildErr)
				case buildErr == nil && err != nil && isStatic(err):
					t.Fatalf("%s over %s: %v; plan.Build accepted it", key, db.Name, err)
				}
			}
		}
	})
}

func isStatic(err error) bool {
	for _, s := range staticTexts {
		if strings.Contains(err.Error(), s) {
			return true
		}
	}
	return false
}
