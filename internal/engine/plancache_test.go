package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/workload"
)

// TestPlanCacheDifferentialAllWorkloads is the conformance test of the
// shared logical-plan layer: every workload query must produce bit-identical
// results on all six registry engines, (a) planned fresh with caching
// disabled, (b) on a cold shared cache, and (c) on a warm shared cache —
// so neither plan sharing nor cache state can change an answer.
func TestPlanCacheDifferentialAllWorkloads(t *testing.T) {
	ssbDB := datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003})
	airDB := datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000})
	opts := engine.ExecOptions{}
	workloads := []struct {
		name    string
		db      *engine.Database
		queries []workload.Query
	}{
		{"tpch", tpchDB, workload.TPCH()},
		{"ssb", ssbDB, workload.SSB()},
		{"airtraffic", airDB, workload.Airtraffic()},
		// Shapes outside the three workloads that once split the engines.
		{"shapes", tpchDB, []workload.Query{
			{ID: "empty-agg-bare-column", SQL: "SELECT o_orderstatus, count(*) FROM orders WHERE o_totalprice < 0"},
			{ID: "empty-agg-bare-expr", SQL: "SELECT o_custkey + 1, sum(o_totalprice) FROM orders WHERE o_totalprice < 0"},
			// Scan pruning and late materialization change no answer.
			{ID: "star-over-join", SQL: "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey AND r_name <> 'ASIA' ORDER BY n_nationkey"},
			{ID: "qualified-star-beside-inputs", SQL: "SELECT n.*, r_name FROM nation n, region r, supplier s WHERE n_regionkey = r_regionkey AND s_nationkey = n_nationkey ORDER BY s_suppkey"},
			{ID: "count-star-no-referenced-column", SQL: "SELECT count(*) FROM nation, region"},
			{ID: "count-star-one-side-unreferenced", SQL: "SELECT count(*) FROM supplier, nation WHERE s_acctbal > 0"},
			{ID: "outer-column-only-in-subquery", SQL: "SELECT r_name FROM region WHERE EXISTS (SELECT 1 FROM nation WHERE n_regionkey = r_regionkey AND n_name < 'K') ORDER BY r_name"},
			{ID: "outer-column-only-in-pair-conjunct", SQL: "SELECT s_name FROM supplier WHERE EXISTS (SELECT * FROM customer WHERE c_nationkey = s_nationkey AND c_acctbal > s_acctbal) ORDER BY s_name"},
			{ID: "aliases-in-join-tree-and-derived", SQL: "SELECT c.c_name, d.total, n.n_name FROM customer c JOIN (SELECT o_custkey AS ck, sum(o_totalprice) AS total FROM orders GROUP BY o_custkey) d ON d.ck = c.c_custkey LEFT JOIN nation n ON n.n_nationkey = c.c_nationkey AND n.n_name <> 'FRANCE' WHERE d.total > 100000 ORDER BY c.c_name"},
			{ID: "self-join-different-columns", SQL: "SELECT a.n_name, b.n_comment FROM nation a, nation b WHERE a.n_nationkey = b.n_regionkey ORDER BY a.n_name, b.n_comment"},
			{ID: "date-interval-chain", SQL: "SELECT count(*), min(o_orderdate), max(o_orderdate) FROM orders WHERE o_orderdate >= DATE '1994-01-31' + INTERVAL '1' MONTH AND o_orderdate < (DATE '1994-01-01' + INTERVAL '1' YEAR) - INTERVAL '1' DAY"},
		}},
	}
	// Shapes every engine must reject, with the same complaint: pruning a
	// scan must not make an ambiguous reference resolvable, and a malformed
	// literal must not fold away.
	rejected := []struct{ id, sql, want string }{
		{"ambiguous-unqualified", "SELECT n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_regionkey", "ambiguous column reference"},
		{"ambiguous-in-filter", "SELECT a.n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_regionkey AND n_comment <> ''", "ambiguous column reference"},
		{"ambiguous-from-a-subquery", "SELECT a.n_name FROM nation a, nation b WHERE a.n_nationkey = b.n_regionkey AND EXISTS (SELECT 1 FROM region WHERE r_regionkey = n_regionkey)", "ambiguous column reference"},
		{"base-alias-behind-derived-table", "SELECT orders.o_custkey FROM (SELECT o_custkey FROM orders) d", "unknown column orders.o_custkey"},
		{"malformed-date-interval", "SELECT count(*) FROM orders WHERE o_orderdate < DATE '1994-13-01' + INTERVAL '1' YEAR", "invalid date"},
		{"malformed-interval-count", "SELECT count(*) FROM orders WHERE o_orderdate < DATE '1994-01-01' + INTERVAL 'x' YEAR", "malformed numeric literal"},
	}

	cached := engine.NewRegistry() // shares one plan cache across engines
	fresh := engine.NewRegistry()
	for _, e := range fresh.Engines() {
		e.(engine.PlanCached).SetPlanCache(nil) // re-plan on every execution
	}

	for _, q := range rejected {
		for _, key := range cached.Keys() {
			for _, reg := range []*engine.Registry{fresh, cached} {
				if _, err := reg.Get(key).Execute(tpchDB, q.sql, opts); err == nil || !strings.Contains(err.Error(), q.want) {
					t.Errorf("rejected/%s on %s: err = %v, want %q", q.id, key, err, q.want)
				}
			}
		}
	}
	for _, wl := range workloads {
		for _, q := range wl.queries {
			q := q
			t.Run(wl.name+"/"+q.ID, func(t *testing.T) {
				baseline := ""
				for _, key := range cached.Keys() {
					uncached, err := fresh.Get(key).Execute(wl.db, q.SQL, opts)
					if err != nil {
						t.Fatalf("%s uncached: %v", key, err)
					}
					cold, err := cached.Get(key).Execute(wl.db, q.SQL, opts)
					if err != nil {
						t.Fatalf("%s cold cache: %v", key, err)
					}
					warm, err := cached.Get(key).Execute(wl.db, q.SQL, opts)
					if err != nil {
						t.Fatalf("%s warm cache: %v", key, err)
					}
					fp := uncached.Fingerprint()
					if cold.Fingerprint() != fp || warm.Fingerprint() != fp {
						t.Fatalf("%s: cached and uncached executions disagree on %s", key, q.ID)
					}
					if baseline == "" {
						baseline = fp
						continue
					}
					if fp != baseline {
						t.Errorf("%s disagrees with the first engine on %s", key, q.ID)
					}
				}
			})
		}
	}
}

// TestPlanCacheEliminatesFrontendWork locks in the tentpole's point: after
// the first execution of a query, repetitions (on any engine sharing the
// cache) do zero parsing and analysis — every further lookup is a hit.
func TestPlanCacheEliminatesFrontendWork(t *testing.T) {
	reg := engine.NewRegistry()
	q1, _ := workload.TPCHQuery("Q1")
	opts := engine.ExecOptions{}
	const reps = 4
	for _, key := range reg.Keys() {
		for i := 0; i < reps; i++ {
			if _, err := reg.Get(key).Execute(tpchDB, q1.SQL, opts); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
	}
	hits, misses := reg.PlanCache().Stats()
	if misses != 1 {
		t.Errorf("plan built %d times for one query, want 1", misses)
	}
	// 6 engines x 4 repetitions share one plan; all but the first lookup hit.
	if want := uint64(len(reg.Keys())*reps - 1); hits != want {
		t.Errorf("plan cache hits = %d, want %d", hits, want)
	}

	// Whitespace-morphed SQL collapses onto the same normalized key.
	if _, err := reg.Get(reg.Keys()[0]).Execute(tpchDB, "  "+q1.SQL+"\n\t;", opts); err != nil {
		t.Fatal(err)
	}
	if _, misses = reg.PlanCache().Stats(); misses != 1 {
		t.Errorf("normalized rewrite re-planned (misses = %d)", misses)
	}
}

// TestPlanCacheInvalidationOnMutation mutates a table after the plan and
// typed-column caches are warm: every engine (including vektor's typed
// import) must see the new data, not a stale cache entry.
func TestPlanCacheInvalidationOnMutation(t *testing.T) {
	db := engine.NewDatabase("mut")
	tbl := engine.NewTable("t",
		engine.Column{Name: "id", Type: engine.TypeInt},
		engine.Column{Name: "v", Type: engine.TypeInt},
	)
	for i := 1; i <= 4; i++ {
		tbl.MustAppendRow(sqlsem.NewInt(int64(i)), sqlsem.NewInt(int64(10*i)))
	}
	db.AddTable(tbl)

	reg := engine.NewRegistry()
	const sql = "SELECT sum(v) AS s FROM t"
	opts := engine.ExecOptions{}

	sum := func(key string) int64 {
		t.Helper()
		res, err := reg.Get(key).Execute(db, sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return res.Cols[0].At(0).Int()
	}

	for _, key := range reg.Keys() {
		if got := sum(key); got != 100 {
			t.Fatalf("%s: warm-up sum = %d, want 100", key, got)
		}
	}

	// In-place update: same row count, so only the data version betrays it.
	if err := tbl.SetValue(0, 1, sqlsem.NewInt(1010)); err != nil {
		t.Fatal(err)
	}
	for _, key := range reg.Keys() {
		if got := sum(key); got != 1100 {
			t.Errorf("%s: sum after SetValue = %d, want 1100 (stale cache?)", key, got)
		}
	}

	// Append: grows the table.
	tbl.MustAppendRow(sqlsem.NewInt(5), sqlsem.NewInt(900))
	for _, key := range reg.Keys() {
		if got := sum(key); got != 2000 {
			t.Errorf("%s: sum after append = %d, want 2000 (stale cache?)", key, got)
		}
	}

	// Reload: replacing the table must bump the database version too.
	fresh := engine.NewTable("t",
		engine.Column{Name: "id", Type: engine.TypeInt},
		engine.Column{Name: "v", Type: engine.TypeInt},
	)
	fresh.MustAppendRow(sqlsem.NewInt(1), sqlsem.NewInt(7))
	before := db.Version()
	db.AddTable(fresh)
	if db.Version() <= before {
		t.Fatalf("database version did not advance on table reload")
	}
	for _, key := range reg.Keys() {
		if got := sum(key); got != 7 {
			t.Errorf("%s: sum after reload = %d, want 7 (stale cache?)", key, got)
		}
	}
}

// TestPlanCacheConcurrentExecutions hammers one shared plan cache from many
// goroutines across all six engines and a mix of queries; run under
// -race in CI, it is the in-process half of the concurrency satellite (the
// scheduler-level half lives in internal/core).
func TestPlanCacheConcurrentExecutions(t *testing.T) {
	reg := engine.NewRegistry()
	queries := []string{}
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14", "Q19"} {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q.SQL)
	}
	opts := engine.ExecOptions{}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := reg.Keys()
			for i := 0; i < 6; i++ {
				key := keys[(w+i)%len(keys)]
				sql := queries[(w*3+i)%len(queries)]
				if _, err := reg.Get(key).Execute(tpchDB, sql, opts); err != nil {
					errs <- fmt.Errorf("%s: %w", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits, misses := reg.PlanCache().Stats()
	if hits == 0 {
		t.Error("concurrent executions never hit the shared plan cache")
	}
	if misses == 0 {
		t.Error("plan cache reported zero misses for a cold start")
	}
}

// TestVektorTypedCacheInvalidation pins the typed-column import cache to the
// table data version: an in-place mutation that keeps the row count constant
// must still invalidate the typed vectors (the pre-version cache keyed on
// row count would have served stale data here).
func TestVektorTypedCacheInvalidation(t *testing.T) {
	db := engine.NewDatabase("typed")
	tbl := engine.NewTable("m", engine.Column{Name: "x", Type: engine.TypeInt})
	tbl.MustAppendRow(sqlsem.NewInt(1))
	tbl.MustAppendRow(sqlsem.NewInt(2))
	db.AddTable(tbl)

	vek := engine.NewVektorEngine()
	opts := engine.ExecOptions{}
	res, err := vek.Execute(db, "SELECT sum(x) AS s FROM m", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cols[0].At(0).Int(); got != 3 {
		t.Fatalf("warm-up sum = %d, want 3", got)
	}
	if err := tbl.SetValue(1, 0, sqlsem.NewInt(40)); err != nil {
		t.Fatal(err)
	}
	res, err = vek.Execute(db, "SELECT sum(x) AS s FROM m", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cols[0].At(0).Int(); got != 41 {
		t.Errorf("sum after in-place mutation = %d, want 41 (stale typed columns)", got)
	}
}

// TestPlanCacheSharedNormalization double-checks the scheduler contract: the
// plan cache keys on the same normalization the sched result cache uses.
func TestPlanCacheSharedNormalization(t *testing.T) {
	a := plan.Normalize("SELECT  x\nFROM t;")
	b := plan.Normalize("SELECT x FROM t")
	if a != b {
		t.Errorf("Normalize mismatch: %q vs %q", a, b)
	}
	if plan.Normalize("SELECT ' a  b '") != "SELECT ' a  b '" {
		t.Error("Normalize touched a string literal")
	}
}
