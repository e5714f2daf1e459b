package engine_test

import (
	"context"
	"errors"
	"strings"
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
	opts := engine.ExecOptions{}
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

// TestBudgetParity: a statement under an expired or a cancelled context, or
// over its join-size guard, fails with the same error values on all six
// engines, whichever executor hit the budget — and on vektor-2.0 under
// morsel parallelism too.
func TestBudgetParity(t *testing.T) {
	selfJoin := "SELECT count(*) FROM lineitem a, lineitem b WHERE a.l_orderkey = b.l_orderkey"
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	reg := engine.NewRegistry()
	for _, tc := range []struct {
		name  string
		sql   string
		ctx   context.Context
		guard int // lowered join guard; 0 keeps plan.JoinGuard
		want  []error
	}{
		{"expired context", selfJoin, expired, 0, []error{plan.ErrTimeBudget}},
		{"cancelled context", selfJoin, cancelled, 0, []error{plan.ErrCancelled, context.Canceled}},
		{"hash join rows", selfJoin, nil, 100, []error{plan.ErrJoinRows}},
		{"cross join rows", "SELECT count(*) FROM nation, region", nil, 100, []error{plan.ErrJoinRows}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.guard > 0 {
				defer engine.SetJoinGuard(tc.guard)()
			}
			var first string
			check := func(run, name string, err error) {
				for _, want := range tc.want {
					if !errors.Is(err, want) {
						t.Errorf("%s: error %v, want %v", run, err, want)
						return
					}
				}
				// Beyond the shared values, the text after the engine name agrees.
				msg := err.Error()[len(name):]
				if first == "" {
					first = msg
				} else if msg != first {
					t.Errorf("%s: message %q, first engine said %q", run, msg, first)
				}
			}
			for _, key := range reg.Keys() {
				_, err := reg.Get(key).Execute(tpchDB, tc.sql, engine.ExecOptions{Context: tc.ctx})
				check(key, reg.Get(key).Name(), err)
			}
			_, err := reg.Get("vektor-2.0").Execute(tpchDB, tc.sql, engine.ExecOptions{Context: tc.ctx, Parallelism: 8})
			check("vektor-2.0 at Parallelism 8", "vektor", err)
		})
	}
}

// TestCancellationLatency: on every engine, a query that runs well over
// 50 ms stops mid-flight — with plan.ErrCancelled when its context is
// cancelled and plan.ErrTimeBudget when its deadline passes — in under half
// its uncancelled time. The interpreters run a correlated sub-query (no
// large intermediate), the typed engines, which decorrelate it, a filtered
// cross product of 1.2 million rows.
func TestCancellationLatency(t *testing.T) {
	correlated := "SELECT count(*) FROM part p WHERE p.p_size < (SELECT count(*) FROM lineitem l WHERE l.l_partkey = p.p_partkey)"
	cross := "SELECT count(*) FROM lineitem a, part p WHERE a.l_quantity < p.p_size AND a.l_comment LIKE '%' || p.p_type || '%'"
	reg := engine.NewRegistry()
	routes, err := reg.Routes(tpchDB, cross)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range routes {
		key, eng, sql := rt.Engine, reg.Get(rt.Engine), cross
		if strings.HasSuffix(rt.Paradigm, "interpreter") {
			sql = correlated
		}
		_, _ = eng.Execute(tpchDB, sql, engine.ExecOptions{}) // plan and typed import
		start := time.Now()
		if _, err := eng.Execute(tpchDB, sql, engine.ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		full := time.Since(start)
		if full < 50*time.Millisecond {
			t.Errorf("%s: the query ran %v uncancelled, too short to measure a cancellation", key, full)
		}
		for _, tc := range []struct {
			name string
			ctx  func() (context.Context, context.CancelFunc)
			want error
		}{
			{"cancel", func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(full/10, cancel)
				return ctx, cancel
			}, plan.ErrCancelled},
			{"deadline", func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), full/10)
			}, plan.ErrTimeBudget},
		} {
			ctx, cancel := tc.ctx()
			start := time.Now()
			_, err := eng.Execute(tpchDB, sql, engine.ExecOptions{Context: ctx})
			took := time.Since(start)
			cancel()
			t.Logf("%s %s: returned after %v, %v uncancelled", key, tc.name, took, full)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s %s: error %v, want %v", key, tc.name, err, tc.want)
			}
			if took >= full/2 {
				t.Errorf("%s %s: returned after %v, the uncancelled run took %v", key, tc.name, took, full)
			}
		}
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
