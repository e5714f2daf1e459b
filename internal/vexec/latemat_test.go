package vexec

import (
	"fmt"
	"strings"
	"testing"

	"sqalpel/internal/plan"
)

// chainCatalog builds t1..t6 of rows rows each for a Q5-shaped join chain:
// ti.k joins t(i-1).j one to one (a rotation, so every join keeps every row),
// f is the column the filters read, p the payload the projection reads and
// q0..q3 columns nothing reads.
func chainCatalog(rows int) mapCatalog { return wideChainCatalog(rows, 4) }

// wideChainCatalog is chainCatalog with width unread columns q0.. per table.
func wideChainCatalog(rows, width int) mapCatalog {
	cat := mapCatalog{}
	for ti := 1; ti <= 6; ti++ {
		k, j := make([]int64, rows), make([]int64, rows)
		p := make([]float64, rows)
		for i := range k {
			k[i] = int64(i)
			j[i] = int64((i + ti) % rows)
			p[i] = float64(i*ti) / 4
		}
		cols := []TableColumn{
			{Name: "k", Vec: intVec(k...)}, {Name: "j", Vec: intVec(j...)},
			{Name: "f", Vec: intVec(k...)}, {Name: "p", Vec: floatVec(p...)},
		}
		for q := 0; q < width; q++ {
			cols = append(cols, TableColumn{Name: fmt.Sprintf("q%d", q), Vec: floatVec(p...)})
		}
		name := fmt.Sprintf("t%d", ti)
		cat[name] = NewTable(name, cols...)
	}
	return cat
}

// chainSQL joins t1..tn along the chain, every input filtered (so every
// input is a view, not its table; the filters on t2..tn drop only rows the
// chain never reaches), projecting the first and last payloads.
func chainSQL(n int) string {
	from, where := []string{"t1"}, []string{"t1.f < 2000"}
	for i := 2; i <= n; i++ {
		from = append(from, fmt.Sprintf("t%d", i))
		where = append(where, fmt.Sprintf("t%d.j = t%d.k", i-1, i), fmt.Sprintf("t%d.f < 2500", i))
	}
	return fmt.Sprintf("SELECT t1.p, t%d.p FROM %s WHERE %s", n, strings.Join(from, ", "), strings.Join(where, " AND "))
}

// observeGathers runs fn with the gather observer installed and returns,
// per column ("t3.j"), the gathers and cells it saw.
func observeGathers(t *testing.T, cat mapCatalog, fn func()) (gathers, cells map[string]int) {
	t.Helper()
	names := map[*Vector]string{}
	for tn, table := range cat {
		for _, c := range table.Cols {
			names[c.Vec] = tn + "." + c.Name
		}
	}
	gathers, cells = map[string]int{}, map[string]int{}
	gatherObserver = func(src *Vector, n int) {
		name, ok := names[src]
		if !ok {
			t.Errorf("gather from a vector that is not base storage (%d cells)", n)
		}
		gathers[name]++
		cells[name] += n
	}
	defer func() { gatherObserver = nil }()
	fn()
	return gathers, cells
}

// TestColumnsGatheredOnceFromBaseStorage is the rule of late
// materialization, counted: on a Q5-shaped chain every referenced column is
// gathered at most once — the payloads and the join keys read off a join
// result exactly once, straight from base storage — no unreferenced column
// is gathered at all, and the cells copied for the first table's payload do
// not depend on how many join steps follow it.
func TestColumnsGatheredOnceFromBaseStorage(t *testing.T) {
	const rows = 3000
	cat := chainCatalog(rows)
	for _, opts := range []Options{{}, {Parallelism: 8}, {Fused: true}, {BatchSize: 4096}} {
		for _, n := range []int{2, 4, 6} {
			var res *Result
			gathers, cells := observeGathers(t, cat, func() { res = run(t, cat, chainSQL(n), opts) })
			label := fmt.Sprintf("%d tables %+v", n, opts)
			if res.NumRows() != 2000 {
				t.Fatalf("%s: %d rows, want 2000", label, res.NumRows())
			}
			for name, g := range gathers {
				col := name[strings.Index(name, ".")+1:]
				if g != 1 {
					t.Errorf("%s: %s gathered %d times", label, name, g)
				}
				if strings.HasPrefix(col, "q") || col == "f" {
					t.Errorf("%s: %s gathered (%d cells) though nothing above its filter reads it", label, name, cells[name])
				}
			}
			// The payloads are read once, over the result; the key that
			// probes step i is read once off the result of step i-1.
			want := map[string]int{"t1.p": 2000, fmt.Sprintf("t%d.p", n): 2000}
			for i := 2; i < n; i++ {
				want[fmt.Sprintf("t%d.j", i)] = 2000
			}
			for name, c := range want {
				if cells[name] != c {
					t.Errorf("%s: %s copied %d cells, want %d", label, name, cells[name], c)
				}
			}
		}
	}
}

// TestUnfilteredInputsAreNotCopied: an input without a filter materializes as
// its table's own vectors, and a join over such inputs whose output nobody
// reads gathers nothing.
func TestUnfilteredInputsAreNotCopied(t *testing.T) {
	cat := chainCatalog(3000)
	for _, opts := range []Options{{}, {Parallelism: 8}, {Fused: true}} {
		ex := newTestExecutor(cat, nil, opts)
		b, err := ex.materializeOp(newScanOp(ex, cat["t1"], "t1", map[string]bool{"k": true, "p": true}))
		if err != nil {
			t.Fatal(err)
		}
		if len(b.cols) != 2 || b.cols[0] != cat["t1"].Cols[0].Vec || b.cols[1] != cat["t1"].Cols[3].Vec || b.src != nil {
			t.Errorf("%+v: an unfiltered scan did not materialize as the table's vectors", opts)
		}
		var res *Result
		gathers, _ := observeGathers(t, cat, func() {
			res = run(t, cat, "SELECT count(*) FROM t1, t2, t3 WHERE t1.j = t2.k AND t2.j = t3.k", opts)
		})
		if res.Cols[0].Ints[0] != 3000 {
			t.Fatalf("count = %d", res.Cols[0].Ints[0])
		}
		// t2.j probes the second step off the first step's result: the one gather.
		if len(gathers) != 1 || gathers["t2.j"] != 1 {
			t.Errorf("%+v: gathers %v, want t2.j once", opts, gathers)
		}
	}
}

// TestPrunedScansCarryOnlyNeededColumns pins the scan contract: the carried
// columns are the statement's needed ones, "*" keeps all, an input nothing
// reads carries none and still counts its rows, and zone predicates keep
// working off the table's own ordinals.
func TestPrunedScansCarryOnlyNeededColumns(t *testing.T) {
	cat := chainCatalog(3000)
	carried := func(sql, alias string) string {
		p, err := plan.Build(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		ex := newTestExecutor(cat, p, Options{})
		var names []string
		for _, m := range newScanOp(ex, cat["t1"], alias, p.Root.Needed[alias]).schema() {
			names = append(names, m.name)
		}
		return strings.Join(names, ",")
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT p FROM t1 WHERE f < 10", "f,p"},
		{"SELECT * FROM t1", "k,j,f,p,q0,q1,q2,q3"},
		{"SELECT count(*) FROM t1", ""},
		{"SELECT t2.p FROM t1, t2 WHERE t1.k = t2.j", "k"},
		{"SELECT t2.p FROM t1, t2 WHERE EXISTS (SELECT 1 FROM t3 WHERE t3.k = t1.q2)", "q2"},
	} {
		if got := carried(tc.sql, "t1"); got != tc.want {
			t.Errorf("%s: t1 carries %q, want %q", tc.sql, got, tc.want)
		}
	}
	// Both inputs keep p, so the reference stays ambiguous in the pruned
	// layout too, and Build refuses it.
	if _, err := plan.Build(cat, "SELECT p FROM t1, t2 WHERE t1.f < 3 AND t2.f < 3"); err == nil || !strings.Contains(err.Error(), "ambiguous column reference") {
		t.Errorf("pruning resolved an ambiguous reference: %v", err)
	}
	res := run(t, cat, "SELECT count(*) FROM t1, t2 WHERE t2.f < 3", Options{})
	if res.Cols[0].Ints[0] != 9000 || res.Stats.RowsScanned != 3000+1024 { // t2's zone maps skip two blocks
		t.Errorf("count %d, rows scanned %d", res.Cols[0].Ints[0], res.Stats.RowsScanned)
	}
	// f is the third column of the table but the first carried: the zone
	// predicate still skips by the table's statistics.
	res = run(t, cat, "SELECT sum(p) FROM t1 WHERE f >= 2048", Options{})
	if res.Stats.BlocksSkipped != 2 || res.Stats.RowsScanned != 3000-2048 {
		t.Errorf("blocks skipped %d, rows scanned %d", res.Stats.BlocksSkipped, res.Stats.RowsScanned)
	}
}

// TestJoinCostDoesNotFollowTableWidth: a six-table chain over tables of 8
// columns and of 68 allocates the same — unread columns are neither carried
// by the scans nor touched by the joins.
func TestJoinCostDoesNotFollowTableWidth(t *testing.T) {
	measure := func(width int) float64 {
		cat := wideChainCatalog(3000, width)
		p, err := plan.Build(cat, chainSQL(6))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := ExecutePlan(cat, p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if narrow, wide := measure(4), measure(64); wide > narrow*1.01 {
		t.Errorf("allocations grew with table width: %.0f per run at 8 columns, %.0f at 68", narrow, wide)
	}
}
