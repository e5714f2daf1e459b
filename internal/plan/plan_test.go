package plan

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
)

// fakeCatalog is a minimal schema provider for the planner.
type fakeCatalog map[string][]string

func (c fakeCatalog) TableColumns(name string) ([]string, bool) {
	cols, ok := c[strings.ToLower(name)]
	return cols, ok
}

var testCat = fakeCatalog{
	"orders":   {"o_orderkey", "o_custkey", "o_total"},
	"customer": {"c_custkey", "c_name", "c_nation"},
	"lineitem": {"l_orderkey", "l_qty", "l_price"},
}

func mustBuild(t *testing.T, sql string) *Plan {
	t.Helper()
	p, err := Build(testCat, sql)
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	return p
}

func TestConjunctClassification(t *testing.T) {
	p := mustBuild(t, `SELECT c_name, o_total FROM customer, orders
		WHERE c_custkey = o_custkey AND c_nation = 'DE' AND 1 = 1 AND c_name < o_total`)
	sp := p.Root
	var joins, pushdowns, residuals int
	for _, c := range sp.Conjuncts {
		switch c.Class {
		case ClassJoin:
			joins++
		case ClassPushdown:
			pushdowns++
		case ClassResidual:
			residuals++
		}
	}
	if joins != 1 || pushdowns != 2 || residuals != 1 {
		t.Errorf("classes = %d join / %d pushdown / %d residual, want 1/2/1", joins, pushdowns, residuals)
	}
	if len(sp.JoinSteps) != 1 || sp.JoinSteps[0].Cross || len(sp.JoinSteps[0].LeftKeys) != 1 {
		t.Errorf("join steps = %+v, want one hash-join step with one key", sp.JoinSteps)
	}
	// The interpreters see every non-join conjunct as residual; the
	// vectorized executor pushes the single-table ones below the join.
	if len(sp.Residual) != 3 {
		t.Errorf("interpreter residual = %d conjuncts, want 3", len(sp.Residual))
	}
	if len(sp.VexecPushdown[0]) != 2 || len(sp.VexecResidual) != 1 {
		t.Errorf("vexec split = %d pushed / %d residual, want 2/1", len(sp.VexecPushdown[0]), len(sp.VexecResidual))
	}
}

func TestCrossJoinStepWhenNoEdge(t *testing.T) {
	p := mustBuild(t, "SELECT c_name FROM customer, lineitem WHERE c_nation = 'DE'")
	steps := p.Root.JoinSteps
	if len(steps) != 1 || !steps[0].Cross {
		t.Errorf("steps = %+v, want one cross step", steps)
	}
}

func TestVectorizableVerdict(t *testing.T) {
	cases := []struct {
		sql    string
		ok     bool
		reason string
	}{
		{"SELECT sum(o_total) FROM orders", true, ""},
		{"SELECT x FROM (SELECT o_total AS x FROM orders) d", true, ""},
		{"SELECT c_name FROM customer LEFT JOIN orders ON c_custkey = o_custkey", true, ""},
		{"SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)", true, ""},
		{"SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)", true, ""},
		{"SELECT c_name FROM customer WHERE c_custkey > (SELECT sum(o_total) FROM orders WHERE o_custkey = c_custkey)", true, ""},
		{"SELECT o_total FROM orders UNION SELECT o_total FROM orders", false, "set operations"},
		{"SELECT (SELECT sum(o_total) FROM orders WHERE o_custkey = c_custkey) FROM customer", false,
			"correlated sub-queries outside WHERE"},
		{"SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey > c_custkey)", false,
			"correlated sub-queries without an equi-join correlation predicate"},
	}
	for _, tc := range cases {
		p := mustBuild(t, tc.sql)
		if p.Vectorizable != tc.ok {
			t.Errorf("%q: vectorizable = %v, want %v", tc.sql, p.Vectorizable, tc.ok)
		}
		if !tc.ok && p.NotVectorizableReason != tc.reason {
			t.Errorf("%q: reason = %q, want %q", tc.sql, p.NotVectorizableReason, tc.reason)
		}
	}
}

func TestSubqueryRegistrationAndCorrelation(t *testing.T) {
	p := mustBuild(t, `SELECT c_name FROM customer
		WHERE c_custkey IN (SELECT o_custkey FROM orders)
		AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = c_custkey)`)
	var inStmt, existsStmt *sqlparser.SelectStatement
	sqlparser.WalkExprs(p.Root.Stmt.Where, func(x sqlparser.Expr) bool {
		switch v := x.(type) {
		case *sqlparser.InExpr:
			inStmt = v.Subquery
		case *sqlparser.ExistsExpr:
			existsStmt = v.Subquery
		}
		return true
	})
	if inStmt == nil || existsStmt == nil {
		t.Fatal("sub-query statements not found in AST")
	}
	if p.Sub(inStmt) == nil || p.Sub(existsStmt) == nil {
		t.Fatal("sub-queries were not planned")
	}
	if p.Correlated(inStmt) {
		t.Error("uncorrelated IN sub-query classified as correlated")
	}
	if !p.Correlated(existsStmt) {
		t.Error("correlated EXISTS sub-query classified as uncorrelated")
	}
}

func TestRightJoinNormalizesToLeft(t *testing.T) {
	p := mustBuild(t, "SELECT c_name FROM customer RIGHT JOIN orders ON c_custkey = o_custkey")
	in := p.Root.From[0]
	if in.Join == nil || in.Join.Kind != "LEFT" {
		t.Fatalf("join = %+v, want normalized LEFT", in.Join)
	}
	// After the swap, orders is the preserved (left) side.
	if in.Join.Left.Table != "orders" {
		t.Errorf("left side = %q, want orders", in.Join.Left.Table)
	}
	if len(in.Join.LeftKeys) != 1 {
		t.Errorf("equi keys = %d, want 1", len(in.Join.LeftKeys))
	}
}

func TestNeededColumnsAndEarlyLimit(t *testing.T) {
	p := mustBuild(t, "SELECT c_name FROM customer WHERE c_nation = 'DE' LIMIT 5 OFFSET 2")
	sp := p.Root
	need := sp.Needed["customer"]
	if !need["c_name"] || !need["c_nation"] || need["c_custkey"] {
		t.Errorf("needed columns = %v, want c_name and c_nation only", need)
	}
	if sp.EarlyLimit != 7 {
		t.Errorf("early limit = %d, want 7 (limit+offset)", sp.EarlyLimit)
	}
	grouped := mustBuild(t, "SELECT count(c_name) FROM customer LIMIT 5")
	if grouped.Root.EarlyLimit != 0 {
		t.Error("aggregate query must not early-exit")
	}
}

func mustAddInterval(t *testing.T, date string, n int64, unit string) int64 {
	t.Helper()
	d, err := sqlsem.AddInterval(sqlsem.MustParseDate(date), n, unit)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConstantFolding(t *testing.T) {
	fold := func(sql string) string {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return FoldExpr(stmt.Where).SQL()
	}
	got := fold("SELECT 1 FROM orders WHERE o_total < 10 + 5")
	if !strings.Contains(got, "15") || strings.Contains(got, "10") {
		t.Errorf("folded predicate = %q, want the literal 15", got)
	}
	// Floats and non-arithmetic operators stay untouched.
	if got := fold("SELECT 1 FROM orders WHERE o_total < 1.5 + 2"); strings.Contains(got, "3.5") {
		t.Errorf("float arithmetic must not fold, got %q", got)
	}
	// Date ± interval folds into the date AddInterval computes; chains and
	// parentheses fold through, and a literal that does not parse (or a unit
	// AddInterval rejects) keeps its tree, so the runtime error survives.
	for _, tc := range []struct{ expr, want string }{
		{"DATE '1994-01-01' + INTERVAL '1' YEAR", "DATE '1995-01-01'"},
		{"DATE '1994-01-01' + INTERVAL '3' MONTH", "DATE '1994-04-01'"},
		{"DATE '1998-12-01' - INTERVAL '90' DAY", "DATE '1998-09-02'"},
		{"DATE '1995-01-31' + INTERVAL '1' MONTH", "DATE '" + sqlsem.FormatDate(mustAddInterval(t, "1995-01-31", 1, "MONTH")) + "'"},
		{"DATE '1996-02-29' + INTERVAL '1' YEAR", "DATE '" + sqlsem.FormatDate(mustAddInterval(t, "1996-02-29", 1, "YEAR")) + "'"},
		{"DATE '1994-01-01' + INTERVAL '-2' DAY", "DATE '1993-12-30'"},
		{"DATE '1994-01-01' - INTERVAL '-2' DAY", "DATE '1994-01-03'"},
		{"DATE '1994-01-01' + INTERVAL '1' YEAR - INTERVAL '1' DAY", "DATE '1994-12-31'"},
		{"(DATE '1994-01-01' + INTERVAL '1' YEAR) + INTERVAL '1' MONTH", "DATE '1995-02-01'"},
		{"DATE '1994-13-01' + INTERVAL '1' YEAR", "DATE '1994-13-01' + INTERVAL '1' YEAR"},
		{"DATE '1994-01-01' + INTERVAL 'x' YEAR", "DATE '1994-01-01' + INTERVAL 'x' YEAR"},
		{"(DATE '1994-13-01') + INTERVAL '1' YEAR", "DATE '1994-13-01' + INTERVAL '1' YEAR"},
		{"(DATE '1994-01-01') + INTERVAL '1' YEAR", "DATE '1995-01-01'"},
	} {
		if got, want := fold("SELECT 1 FROM orders WHERE o_date < "+tc.expr), "o_date < "+tc.want; got != want {
			t.Errorf("fold(%s) = %s, want %s", tc.expr, got, want)
		}
	}
	// A column operand keeps the runtime branch.
	if got := fold("SELECT 1 FROM orders WHERE o_date + INTERVAL '1' DAY < DATE '1995-01-01'"); !strings.Contains(got, "INTERVAL") {
		t.Errorf("column ± interval must not fold, got %q", got)
	}
	// Folding must not lose the sub-expression's statement identity.
	p := mustBuild(t, "SELECT 1 FROM orders WHERE o_total < 2 * 3 AND o_custkey IN (SELECT c_custkey FROM customer)")
	subs := sqlparser.Subqueries(p.Root.Residual[len(p.Root.Residual)-1])
	if len(subs) != 1 || p.Sub(subs[0]) == nil {
		t.Error("sub-query behind a folded conjunct lost its plan")
	}
}

func TestOutSchemaStarExpansion(t *testing.T) {
	p := mustBuild(t, "SELECT *, o_total * 2 AS dbl FROM orders")
	want := []ColumnMeta{
		{Table: "orders", Name: "o_orderkey"},
		{Table: "orders", Name: "o_custkey"},
		{Table: "orders", Name: "o_total"},
		{Table: "", Name: "dbl"},
	}
	got := p.Root.OutSchema
	if len(got) != len(want) {
		t.Fatalf("out schema = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out schema[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Build(testCat, "SELEC nonsense")
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Errorf("err = %v, want a parse error", err)
	}
}

func TestCacheHitMissAndVersionInvalidation(t *testing.T) {
	c := NewCache(0)
	builds := 0
	build := func() (*Plan, error) {
		builds++
		return Build(testCat, "SELECT o_total FROM orders")
	}
	id := &struct{}{}
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrBuild(Key(id, 1, "SELECT o_total FROM orders"), build); err != nil {
			t.Fatal(err)
		}
	}
	// Whitespace variants share the normalized key.
	if _, err := c.GetOrBuild(Key(id, 1, "  SELECT   o_total FROM orders ;"), build); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
	// A version bump invalidates.
	if _, err := c.GetOrBuild(Key(id, 2, "SELECT o_total FROM orders"), build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Errorf("builds after version bump = %d, want 2", builds)
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 3/2", hits, misses)
	}
}

func TestCacheCapEviction(t *testing.T) {
	c := NewCache(4)
	for i := 0; i < 32; i++ {
		_, _ = c.GetOrBuild(Key(nil, uint64(i), "SELECT o_total FROM orders"), func() (*Plan, error) {
			return Build(testCat, "SELECT o_total FROM orders")
		})
	}
	if c.Len() > 4 {
		t.Errorf("cache grew to %d entries past its cap of 4", c.Len())
	}
}

// cacheProbe looks keys up in a cache and reports which lookups built.
type cacheProbe struct {
	t *testing.T
	c *Cache
}

func (p cacheProbe) get(sql string) (built bool) {
	p.t.Helper()
	_, err := p.c.GetOrBuild(Key(nil, 1, sql), func() (*Plan, error) {
		built = true
		return Build(testCat, "SELECT o_total FROM orders")
	})
	if err != nil {
		p.t.Fatal(err)
	}
	return built
}

// TestCacheEvictsLeastRecentlyUsed: a full cache drops its entries in the
// order of their last use, and a hit counts as a use.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	p := cacheProbe{t, NewCache(3)}
	for _, sql := range []string{"a", "b", "c"} {
		if !p.get(sql) {
			t.Fatalf("cold lookup of %q did not build", sql)
		}
	}
	if p.get("a") { // refresh a: b is now the least recently used
		t.Fatal("a was evicted from a cache that was not over its cap")
	}
	p.get("d") // evicts b
	p.get("e") // evicts c
	if p.c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", p.c.Len())
	}
	for _, sql := range []string{"a", "d", "e"} {
		if p.get(sql) {
			t.Errorf("%q was evicted although two older entries were colder", sql)
		}
	}
	// b and c are gone; each re-miss evicts the then-coldest (a, then d).
	if !p.get("b") || !p.get("c") {
		t.Error("b and c should have been evicted in that order")
	}
	if p.get("e") {
		t.Error("e, the most recently used entry, was evicted")
	}
	if !p.get("a") {
		t.Error("a should have been evicted once it was the coldest")
	}
}

// TestCacheNeverEvictsInFlight: an entry whose build is still running is
// skipped by eviction (dropping it would allow a second build of its key),
// even when it sits at the cold end of a full cache.
func TestCacheNeverEvictsInFlight(t *testing.T) {
	c := NewCache(2)
	p := cacheProbe{t, c}
	started, release := make(chan struct{}), make(chan struct{})
	var slowBuilds atomic.Int32
	slow := func() (*Plan, error) {
		if slowBuilds.Add(1) == 1 {
			close(started)
		}
		<-release
		return Build(testCat, "SELECT o_total FROM orders")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.GetOrBuild(Key(nil, 1, "slow"), slow); err != nil {
			t.Error(err)
		}
	}()
	<-started
	// Four inserts into a cache of two while "slow" is in flight: it is the
	// coldest entry the whole time.
	for _, sql := range []string{"a", "b", "c", "d"} {
		p.get(sql)
	}
	if n := c.Len(); n > 2 {
		t.Errorf("cache holds %d entries, cap 2", n)
	}
	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		if _, err := c.GetOrBuild(Key(nil, 1, "slow"), slow); err != nil {
			t.Error(err)
		}
	}()
	// The second lookup must find the placeholder, not start a build; it
	// cannot finish before release either way, so give it time to be wrong.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-done
	<-waiter
	if n := slowBuilds.Load(); n != 1 {
		t.Errorf("the in-flight key was built %d times, want 1", n)
	}
	// Finished, it is an ordinary entry again: once d is used after it, it
	// is the coldest and the next to go.
	if p.get("d") {
		t.Error("d was evicted although the cache was not over its cap")
	}
	p.get("e")
	if built := p.get("slow"); !built {
		t.Error("the finished entry at the cold end survived an eviction")
	}
}

// TestCachePurgesStaleVersionsOnce: the first lookup at a newer catalog
// version drops the catalog's older entries (and nobody else's); a lookup
// at an older version afterwards is served but not purged by its peers.
func TestCachePurgesStaleVersionsOnce(t *testing.T) {
	c := NewCache(0)
	a, b := new(int), new(int)
	get := func(cat any, version uint64, sql string) {
		t.Helper()
		if _, err := c.GetOrBuild(Key(cat, version, sql), func() (*Plan, error) {
			return Build(testCat, "SELECT o_total FROM orders")
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(a, 1, "x")
	get(a, 1, "y")
	get(b, 1, "x")
	get(a, 2, "x") // purges a@1 (two entries), leaves b alone
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after the version bump, want 2 (a@2, b@1)", c.Len())
	}
	get(a, 2, "y")
	get(a, 1, "x") // a reader still at version 1: served, kept until the next bump
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	get(a, 3, "x")
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after the second bump, want 2 (a@3, b@1)", c.Len())
	}
	if len(c.catalogs) != 2 || c.catalogs[a].entries != 1 || c.catalogs[b].entries != 1 {
		t.Errorf("catalog records after the purges: %d records, a %+v, b %+v", len(c.catalogs), c.catalogs[a], c.catalogs[b])
	}
}

// TestCacheBuildPanicLeavesNoEntry: a build that panics releases the
// lookups waiting on it with an error and leaves no entry behind, so the
// next lookup of the key builds again instead of hanging or being served
// the panicked placeholder.
func TestCacheBuildPanicLeavesNoEntry(t *testing.T) {
	c := NewCache(0)
	key := Key(nil, 1, "SELECT o_total FROM orders")
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = c.GetOrBuild(key, func() (*Plan, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := make(chan error)
	go func() {
		_, err := c.GetOrBuild(key, func() (*Plan, error) { return nil, errors.New("a waiter must not build") })
		waited <- err
	}()
	// A lookup counts its hit before it waits on the placeholder.
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("the build's panic reached its caller as %v", r)
	}
	if err := <-waited; !errors.Is(err, errBuildPanicked) {
		t.Errorf("waiter of the panicked build: error %v, want %v", err, errBuildPanicked)
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after a panicked build, want 0", c.Len())
	}
	built := false
	p, err := c.GetOrBuild(key, func() (*Plan, error) {
		built = true
		return Build(testCat, "SELECT o_total FROM orders")
	})
	if !built || err != nil || p == nil {
		t.Errorf("the lookup after the panic: built %v, plan %v, error %v", built, p, err)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sql := "SELECT o_total FROM orders"
				if (w+i)%2 == 0 {
					sql = "SELECT c_name FROM customer"
				}
				if _, err := c.GetOrBuild(Key(nil, 1, sql), func() (*Plan, error) {
					return Build(testCat, sql)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 2 {
		t.Errorf("cache holds %d plans, want 2", c.Len())
	}
}

// TestCacheSingleFlight: concurrent lookups of one cold key run the build
// once and all receive that build's plan.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(0)
	var builds atomic.Int32
	const workers = 16
	start := make(chan struct{})
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			p, err := c.GetOrBuild(Key(nil, 1, "SELECT o_total FROM orders"), func() (*Plan, error) {
				builds.Add(1)
				return Build(testCat, "SELECT o_total FROM orders")
			})
			if err != nil {
				t.Error(err)
			}
			plans[w] = p
		}(w)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times for one cold key, want 1", n)
	}
	for w, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("worker %d got plan %p, worker 0 got %p", w, p, plans[0])
		}
	}
	if hits, misses := c.Stats(); misses != 1 || hits != workers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", hits, misses, workers-1)
	}
}

// TestResolvedOutputContract pins star expansion, output naming and ORDER BY
// resolution at the layer that owns them; the executors only index.
func TestResolvedOutputContract(t *testing.T) {
	type key struct {
		col  int
		expr string // SQL of the evaluated expression when col < 0
		desc bool
	}
	cases := []struct {
		name  string
		sql   string
		stars []int
		items []string
		names []string // output column names
		order []key
	}{
		{"alias key", "SELECT o_total * 2 AS dbl, o_custkey FROM orders ORDER BY dbl DESC",
			nil, []string{"o_total * 2", "o_custkey"}, []string{"dbl", "o_custkey"}, []key{{col: 0, desc: true}}},
		{"ordinal key", "SELECT o_custkey, o_total FROM orders ORDER BY 2, 1 DESC",
			nil, []string{"o_custkey", "o_total"}, []string{"o_custkey", "o_total"}, []key{{col: 1}, {col: 0, desc: true}}},
		{"out-of-range ordinal is an expression", "SELECT o_total FROM orders ORDER BY 2, 0",
			nil, []string{"o_total"}, []string{"o_total"}, []key{{col: -1, expr: "2"}, {col: -1, expr: "0"}}},
		// The PR 1 indexing bug: a computed item sits after the whole star
		// block, not at its projection position.
		{"star + alias", "SELECT *, o_total * 2 AS a FROM orders ORDER BY a",
			[]int{0, 1, 2}, []string{"o_total * 2"}, []string{"o_orderkey", "o_custkey", "o_total", "a"}, []key{{col: 3}}},
		{"alias ahead of star", "SELECT o_total * 2 AS a, * FROM orders ORDER BY a, o_custkey",
			[]int{0, 1, 2}, []string{"o_total * 2"}, []string{"o_orderkey", "o_custkey", "o_total", "a"}, []key{{col: 3}, {col: -1, expr: "o_custkey"}}},
		{"qualified star", "SELECT o.*, c_name FROM customer, orders o WHERE c_custkey = o_custkey ORDER BY c_name",
			[]int{3, 4, 5}, []string{"c_name"}, []string{"o_orderkey", "o_custkey", "o_total", "c_name"}, []key{{col: 3}}},
		{"alias shadows an input column", "SELECT o_custkey AS o_total FROM orders ORDER BY o_total, orders.o_total",
			nil, []string{"o_custkey"}, []string{"o_total"}, []key{{col: 0}, {col: -1, expr: "orders.o_total"}}},
		{"unnamed item takes its lower-cased SQL", "SELECT O_TOTAL + 1 FROM orders ORDER BY o_total + 1",
			nil, []string{"O_TOTAL + 1"}, []string{"o_total + 1"}, []key{{col: -1, expr: "o_total + 1"}}},
		{"grouped", "SELECT o_custkey, sum(o_total) AS s FROM orders GROUP BY o_custkey ORDER BY s DESC, o_custkey, count(*)",
			nil, []string{"o_custkey", "sum(o_total)"}, []string{"o_custkey", "s"}, []key{{col: 1, desc: true}, {col: 0}, {col: -1, expr: "count(*)"}}},
	}
	for _, tc := range cases {
		sp := mustBuild(t, tc.sql).Root
		if !slices.Equal(sp.StarCols, tc.stars) {
			t.Errorf("%s: star cols = %v, want %v", tc.name, sp.StarCols, tc.stars)
		}
		var items, names []string
		for _, e := range sp.Items {
			items = append(items, e.SQL())
		}
		for _, m := range sp.OutSchema {
			names = append(names, m.Name)
		}
		if !slices.Equal(items, tc.items) {
			t.Errorf("%s: items = %q, want %q", tc.name, items, tc.items)
		}
		if !slices.Equal(names, tc.names) {
			t.Errorf("%s: output names = %q, want %q", tc.name, names, tc.names)
		}
		var order []key
		for _, k := range sp.OrderBy {
			got := key{col: k.Col, desc: k.Desc}
			if (k.Col < 0) != (k.Expr != nil) {
				t.Errorf("%s: key %+v must carry exactly one of an ordinal and an expression", tc.name, k)
			}
			if k.Expr != nil {
				got.expr = k.Expr.SQL()
			}
			order = append(order, got)
		}
		if !slices.Equal(order, tc.order) {
			t.Errorf("%s: order keys = %+v, want %+v", tc.name, order, tc.order)
		}
	}
}

// TestMalformedNumericLiterals: a numeric literal the lexer admits but
// sqlsem.ParseNumber rejects is a build error wherever it sits, so no
// executor ever sees it; an integer past int64 plans as a float.
func TestMalformedNumericLiterals(t *testing.T) {
	for _, sql := range []string{
		"SELECT o_total FROM orders WHERE o_total < 1e999",
		"SELECT o_total + 1e+ FROM orders",
		"SELECT o_total FROM orders ORDER BY 1e999",
		"SELECT o_custkey FROM orders GROUP BY o_custkey HAVING sum(o_total) > 1e999",
		"SELECT o_total FROM orders JOIN customer ON o_custkey = c_custkey + 1e999",
		"SELECT o_total FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_custkey > 1e999)",
		"SELECT x FROM (SELECT o_total * 1e999 AS x FROM orders) d",
		"SELECT o_total FROM orders WHERE DATE '1995-01-01' + INTERVAL 'many' DAY > DATE '1995-01-02'",
	} {
		if _, err := Build(testCat, sql); err == nil || !strings.Contains(err.Error(), "malformed numeric literal") {
			t.Errorf("Build(%q) err = %v, want a malformed numeric literal error", sql, err)
		}
	}
	mustBuild(t, "SELECT o_total FROM orders WHERE o_total < 99999999999999999999 AND o_total > 1e3")
}
