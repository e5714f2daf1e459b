package engine_test

import (
	"errors"
	"testing"
	"time"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/plan"
	"sqalpel/internal/workload"
)

// TestRowsMatchColumnarFingerprints pins the one boxing function to the
// columnar readers: on every registered engine, for every workload query
// plus an empty result and an all-NULL column, the rows Result.Rows() hands
// out fingerprint — re-framed as boxed columns — to exactly what
// Fingerprint and OrderedFingerprint read off the executor's own columns.
func TestRowsMatchColumnarFingerprints(t *testing.T) {
	ssbDB := datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003})
	airDB := datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000})
	edge := []workload.Query{
		{ID: "empty", SQL: "SELECT l_orderkey, l_comment FROM lineitem WHERE l_quantity < 0"},
		{ID: "all-null", SQL: "SELECT n_name, NULL AS nothing FROM nation ORDER BY n_name"},
	}
	reg := engine.NewRegistry()
	opts := engine.ExecOptions{Timeout: 2 * time.Minute}
	for _, tc := range []struct {
		db      *engine.Database
		queries []workload.Query
	}{
		{tpchDB, workload.TPCH()},
		{tpchDB, edge},
		{ssbDB, workload.SSB()},
		{airDB, workload.Airtraffic()},
	} {
		for _, q := range tc.queries {
			for _, key := range reg.Keys() {
				res, err := reg.Get(key).Execute(tc.db, q.SQL, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", q.ID, key, err)
				}
				rows := res.Rows()
				if len(rows) != res.NumRows() {
					t.Fatalf("%s on %s: Rows() has %d rows, NumRows() %d", q.ID, key, len(rows), res.NumRows())
				}
				boxed := &engine.Result{Columns: res.Columns, Cols: make([]engine.ResultColumn, len(res.Columns))}
				for c := range boxed.Cols {
					col := make(engine.Values, len(rows))
					for i, row := range rows {
						col[i] = row[c]
					}
					boxed.Cols[c] = col
				}
				if boxed.Fingerprint() != res.Fingerprint() || boxed.OrderedFingerprint() != res.OrderedFingerprint() {
					t.Errorf("%s on %s: rows and columns fingerprint differently", q.ID, key)
				}
				switch q.ID {
				case "empty":
					if res.NumRows() != 0 || len(res.Cols) != 2 {
						t.Errorf("empty on %s: %d rows, %d columns", key, res.NumRows(), len(res.Cols))
					}
				case "all-null":
					if res.NumRows() != 25 || !rows[24][1].IsNull() {
						t.Errorf("all-null on %s: %d rows, last cell %v", key, res.NumRows(), rows[24][1])
					}
				}
			}
		}
	}
}

// TestBudgetParity: a statement over its deadline or over its join-size
// guard fails with the same error value on all six engines, whichever
// executor hit the budget.
func TestBudgetParity(t *testing.T) {
	selfJoin := "SELECT count(*) FROM lineitem a, lineitem b WHERE a.l_orderkey = b.l_orderkey"
	reg := engine.NewRegistry()
	for _, tc := range []struct {
		name string
		sql  string
		opts engine.ExecOptions
		want error
	}{
		{"deadline", selfJoin, engine.ExecOptions{Timeout: time.Nanosecond}, plan.ErrTimeBudget},
		{"hash join rows", selfJoin, engine.ExecOptions{MaxJoinRows: 100}, plan.ErrJoinRows},
		{"cross join rows", "SELECT count(*) FROM nation, region", engine.ExecOptions{MaxJoinRows: 100}, plan.ErrJoinRows},
	} {
		var first string
		for _, key := range reg.Keys() {
			_, err := reg.Get(key).Execute(tpchDB, tc.sql, tc.opts)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s on %s: error %v, want %v", tc.name, key, err, tc.want)
				continue
			}
			// Beyond the shared value, the text after the engine name agrees.
			msg := err.Error()[len(reg.Get(key).Name()):]
			if first == "" {
				first = msg
			} else if msg != first {
				t.Errorf("%s on %s: message %q, first engine said %q", tc.name, key, msg, first)
			}
		}
	}
	if _, err := reg.Get("vektor-2.0").Execute(tpchDB, selfJoin, engine.ExecOptions{MaxJoinRows: 100, Parallelism: 8}); !errors.Is(err, plan.ErrJoinRows) {
		t.Errorf("parallel hash join: error %v, want %v", err, plan.ErrJoinRows)
	}
}

// TestRegistryRoutes pins what cmd/sqalpel and the benchmark read off
// Registry.Routes: per engine the paradigm that will run the statement,
// and for the typed engines outside the vectorizable subset the fallback
// bit with the plan's reason.
func TestRegistryRoutes(t *testing.T) {
	reg := engine.NewRegistry()
	native := []string{
		"tuple-at-a-time interpreter", "column-at-a-time interpreter", "column-at-a-time interpreter",
		"batch-vectorized", "batch-vectorized", "data-centric compiled",
	}
	routes, err := reg.Routes(tpchDB, "SELECT count(*) FROM lineitem WHERE l_quantity < 24")
	if err != nil {
		t.Fatal(err)
	}
	for i, rt := range routes {
		if rt.Engine != reg.Keys()[i] || rt.Paradigm != native[i] || rt.Fallback || rt.Reason != "" {
			t.Errorf("vectorizable statement, route %d = %+v, want %s native on %s", i, rt, reg.Keys()[i], native[i])
		}
	}

	setOp := "SELECT n_name FROM nation UNION SELECT r_name FROM region"
	p, err := plan.Build(tpchDB, setOp)
	if err != nil || p.Vectorizable || p.NotVectorizableReason == "" {
		t.Fatalf("set operation should carry a negative verdict with a reason: %+v, %v", p, err)
	}
	routes, err = reg.Routes(tpchDB, setOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 6 {
		t.Fatalf("%d routes, want 6", len(routes))
	}
	for i, rt := range routes {
		want := engine.EngineRoute{Engine: reg.Keys()[i], Paradigm: native[i]}
		if i >= 3 {
			want = engine.EngineRoute{Engine: reg.Keys()[i], Paradigm: "column-at-a-time interpreter (fallback)", Fallback: true, Reason: p.NotVectorizableReason}
		}
		if rt != want {
			t.Errorf("set operation, route %d = %+v, want %+v", i, rt, want)
		}
	}
}
