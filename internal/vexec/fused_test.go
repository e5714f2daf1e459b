package vexec

import (
	"errors"
	"math"
	"testing"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/trace"
)

// whereExpr parses one expression through the SQL front end.
func whereExpr(t *testing.T, expr string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT 1 FROM t WHERE " + expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return stmt.Where
}

// sameScalar compares two boxed values exactly: kind, and the payload of
// that kind (floats by bit pattern).
func sameScalar(a, b sqlsem.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqlsem.KindNull:
		return true
	case sqlsem.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case sqlsem.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// nullHeavyTable builds a table whose columns cover every vector shape the
// closures read: plain typed columns with a NULL every third row, a
// dictionary-coded string column, an int/float duality column (a float
// vector whose IsInt mask flags the integer rows) and an all-NULL column.
func nullHeavyTable(t *testing.T, n int) *Table {
	t.Helper()
	words := []string{"alpha", "Bravo", "carol%", "", "42"}
	var i, f, d, s, dt, b, z builder
	for r := 0; r < n; r++ {
		z.append(sqlsem.Null())
		if r%3 == 1 {
			for _, bld := range []*builder{&i, &f, &d, &s, &dt, &b} {
				bld.append(sqlsem.Null())
			}
			continue
		}
		i.append(sqlsem.NewInt(int64(r%11 - 5)))
		f.append(sqlsem.NewFloat(float64(r%7)/4 - 0.75))
		if r%2 == 0 {
			d.append(sqlsem.NewInt(int64(r%9 - 4)))
		} else {
			d.append(sqlsem.NewFloat(float64(r%9) / 3))
		}
		s.append(sqlsem.NewString(words[r%len(words)]))
		dt.append(sqlsem.NewDate(int64(9000 + 37*r)))
		b.append(sqlsem.Value{Kind: sqlsem.KindBool, I: int64(r % 2)})
	}
	var cols []TableColumn
	for _, c := range []struct {
		name string
		bld  *builder
	}{{"i", &i}, {"f", &f}, {"d", &d}, {"s", &s}, {"dt", &dt}, {"b", &b}, {"z", &z}} {
		vec, err := c.bld.finalize()
		if err != nil {
			t.Fatalf("column %s: %v", c.name, err)
		}
		cols = append(cols, TableColumn{Name: c.name, Vec: vec})
	}
	tab := NewTable("t", cols...)
	if tab.DictFor("s") == nil {
		t.Fatal("string column was not dictionary-encoded")
	}
	if d := tab.Cols[2].Vec; d.Kind != sqlsem.KindFloat || d.IsInt == nil {
		t.Fatalf("duality column is %v without an IsInt mask", d.Kind)
	}
	return tab
}

// TestCompiledMatchesVectorized is the property the fused scan rests on:
// for every expression form the closure compiler accepts, the closure's
// value at every row equals the vectorized evaluator's — same kind, same
// bits, NULLs included — and where one evaluator fails, so does the other.
func TestCompiledMatchesVectorized(t *testing.T) {
	const n = 200
	tab := nullHeavyTable(t, n)
	full := &Batch{n: n}
	for _, c := range tab.Cols {
		full.addCol("t", c.Name, c.Vec)
	}
	ex := &executor{cat: mapCatalog{"t": tab}, opts: Options{BatchSize: DefaultBatchSize}}

	exprs := []string{
		// literals, references, parentheses
		"7", "2.5", "'x'", "TRUE", "NULL", "DATE '1995-03-15'", "i", "t.f", "d", "s", "dt", "b", "z", "(i)",
		// unary
		"NOT b", "NOT z", "-i", "-f", "-d", "-dt", "+d",
		// ternary logic
		"b AND i > 0", "b OR i > 0", "z AND b", "z OR b", "NOT (b AND z)",
		// arithmetic, on every numeric shape and with NULLs
		"i + 1", "i - d", "d * 2", "i / 2", "d / 3", "i % 3", "f % 2", "i / 0", "f / 0", "d + z",
		"dt + 30", "dt - 1", "dt - DATE '1995-01-01'", "s || '-' || i", "i || f",
		"dt + INTERVAL '3' MONTH", "dt - INTERVAL '1' YEAR", "dt + INTERVAL '10' DAY", "z + INTERVAL '1' DAY",
		// comparison
		"i = 0", "i <> d", "f < d", "d >= 1", "s = 'alpha'", "s < 'b'", "s <> s", "dt <= DATE '1995-06-01'", "b = TRUE", "i > z", "i = f",
		// LIKE
		"s LIKE 'a%'", "s NOT LIKE '%a%'", "s LIKE '_ravo'", "s LIKE z", "i LIKE '-%'",
		// CASE, searched and simple, with mixed numeric arms
		"CASE WHEN i > 0 THEN i ELSE f END", "CASE WHEN b THEN 'yes' WHEN i < 0 THEN 'neg' END",
		"CASE i WHEN 0 THEN 'zero' WHEN 1 THEN 'one' ELSE s END", "CASE WHEN z THEN 1 ELSE 2 END", "CASE d WHEN 1 THEN 10 END",
		// BETWEEN
		"i BETWEEN -1 AND 2", "d NOT BETWEEN 0 AND f", "s BETWEEN 'a' AND 'c'", "i BETWEEN z AND 3", "dt BETWEEN DATE '1995-01-01' AND DATE '1996-01-01'",
		// IN lists
		"i IN (1, 2, 3)", "i NOT IN (1, NULL)", "s IN ('alpha', 'nope')", "s NOT IN ('alpha', s)", "d IN (i, 1, f)", "z IN (1)",
		// IS NULL
		"i IS NULL", "s IS NOT NULL", "z IS NULL", "(i + z) IS NULL",
		// EXTRACT, SUBSTRING, CAST
		"EXTRACT(YEAR FROM dt)", "EXTRACT(MONTH FROM dt)", "EXTRACT(DAY FROM dt)", "EXTRACT(YEAR FROM z)",
		"SUBSTRING(s FROM 2 FOR 3)", "SUBSTRING(s FROM 0)", "SUBSTRING(s FROM i FOR d)", "SUBSTRING(dt FROM 1 FOR 4)",
		"CAST(f AS integer)", "CAST(i AS double)", "CAST(d AS varchar)", "CAST('1995-03-15' AS date)", "CAST(dt AS date)", "CAST(z AS integer)",
		// scalar functions
		"abs(i)", "abs(d)", "abs(f)", "length(s)", "char_length(z)", "upper(s)", "lower(s)", "lower(z)",
		"coalesce(z, i, 0)", "coalesce(z, z)", "coalesce(s, 'none')", "round(f)", "round(d, 1)", "round(f * 10, i)",
		// failures: names fail at compile time, data properties at the
		// first row exhibiting them — in both evaluators (a misplaced
		// aggregate or a function's name or arity is plan.Build's error)
		"nosuch > 1", "t2.i = 1", "s + 1", "EXTRACT(YEAR FROM i)", "CAST(i AS blob)", "CAST(s AS date)",
		"i + INTERVAL '1' DAY",
	}
	for _, text := range exprs {
		e := whereExpr(t, text)
		vec, verr := (&evalCtx{ex: ex, batch: full}).eval(e)
		fn, cerr := compileExpr(e, full)
		var got []sqlsem.Value
		for r := 0; r < n && cerr == nil; r++ {
			var s sqlsem.Value
			if s, cerr = fn(r); cerr == nil {
				got = append(got, s)
			}
		}
		if (verr != nil) != (cerr != nil) {
			t.Errorf("%s: vectorized error %v, compiled error %v", text, verr, cerr)
			continue
		}
		if verr != nil {
			if errors.Is(verr, ErrUnsupported) != errors.Is(cerr, ErrUnsupported) {
				t.Errorf("%s: errors defer differently: vectorized %v, compiled %v", text, verr, cerr)
			}
			continue
		}
		if vec.Len() != n {
			t.Fatalf("%s: vectorized result has %d rows, want %d", text, vec.Len(), n)
		}
		for r := 0; r < n; r++ {
			if want := vec.At(r); !sameScalar(got[r], want) {
				t.Errorf("%s: row %d compiled %+v, vectorized %+v", text, r, got[r], want)
				break
			}
		}
	}
}

// pipelineRun drains one scan→filter pipeline and records what the two
// paradigms must agree on.
type pipelineRun struct {
	batches [][]int64 // per emitted batch: the x values (= table rows) of its live rows
	stats   plan.Stats
	rows    map[string]int64 // span id -> rows
	skipped int64            // the scan span's skipped blocks
}

// drainPipeline builds the FROM pipeline of a planned single-table
// statement with the given options and pulls it dry. wantFused asserts the
// shape of the operator tree.
func drainPipeline(t *testing.T, cat Catalog, sp *plan.Select, opts Options, wantFused bool) pipelineRun {
	t.Helper()
	tr := trace.NewTracer()
	ex := &executor{cat: cat, opts: opts, tracer: tr, ids: trace.NewIDs(&plan.Plan{Root: sp})}
	pipe, err := ex.buildFrom(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, fused := pipe.(*fusedScanOp); fused != wantFused {
		t.Fatalf("Fused=%v built a %T pipeline", opts.Fused, pipe)
	}
	var run pipelineRun
	for {
		b, err := pipe.next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		var xs []int64
		for i := 0; i < b.Len(); i++ {
			xs = append(xs, b.cols[0].Ints[b.physRow(i)])
		}
		run.batches = append(run.batches, xs)
	}
	run.stats = ex.stats
	run.rows = map[string]int64{}
	for _, sp := range tr.Trace("test").Spans {
		run.rows[sp.OpID] = sp.Rows
		run.skipped += sp.BlocksSkipped
	}
	return run
}

// TestFusedScanMatchesScanFilter holds the fused source to the operator
// pair it replaces, on a table whose last block is partial: the same
// batches with the same selected rows, the same scan and skip counters and
// the same span rows, at both shipped batch sizes, with zone-map skipping
// at the front and at the back and with a residual stage.
func TestFusedScanMatchesScanFilter(t *testing.T) {
	cat := seqCatalog(7000) // blocks 0..6, the last holding 856 rows
	stmt, err := sqlparser.Parse("SELECT x FROM t WHERE x >= 1500 AND x < 4200 AND s <> 's3' AND y * 2 <> x + 1 AND x % 7 < 5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.BuildStmt(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	pushed := p.Root.VexecPushdown[0]
	if len(pushed) != 5 || len(p.Root.VexecResidual) != 0 {
		t.Fatalf("plan pushes %d conjuncts with %d residual, want 5 and 0", len(pushed), len(p.Root.VexecResidual))
	}
	// The same statement with its last two conjuncts as the residual list,
	// the split a decorrelated sub-query's inner pipeline carries.
	split := *p.Root
	split.VexecPushdown = [][]sqlparser.Expr{pushed[:3]}
	split.VexecResidual = pushed[3:]

	for _, sp := range []*plan.Select{p.Root, &split} {
		for _, bs := range []int{1024, 4096} {
			want := drainPipeline(t, cat, sp, Options{BatchSize: bs}, false)
			got := drainPipeline(t, cat, sp, Options{BatchSize: bs, Fused: true}, true)
			if want.stats.BlocksSkipped != 3 || want.skipped != 3 {
				t.Fatalf("batch %d: reference skipped %d blocks (span %d), want 3", bs, want.stats.BlocksSkipped, want.skipped)
			}
			if len(got.batches) != len(want.batches) {
				t.Fatalf("batch %d: fused emitted %d batches, scan+filter %d", bs, len(got.batches), len(want.batches))
			}
			for bi := range want.batches {
				if len(got.batches[bi]) != len(want.batches[bi]) {
					t.Fatalf("batch %d: batch %d selects %d rows fused, %d pulled", bs, bi, len(got.batches[bi]), len(want.batches[bi]))
				}
				for i, x := range want.batches[bi] {
					if got.batches[bi][i] != x {
						t.Fatalf("batch %d: batch %d row %d is table row %d fused, %d pulled", bs, bi, i, got.batches[bi][i], x)
					}
				}
			}
			if got.stats.RowsScanned != want.stats.RowsScanned || got.stats.BlocksSkipped != want.stats.BlocksSkipped || got.stats.Batches != want.stats.Batches {
				t.Errorf("batch %d: counters diverge:\nfused  %+v\npulled %+v", bs, got.stats, want.stats)
			}
			if got.stats.FilterPasses != 0 {
				t.Errorf("batch %d: fused pipeline ran %d vector filter passes", bs, got.stats.FilterPasses)
			}
			if got.skipped != want.skipped || len(got.rows) != len(want.rows) {
				t.Errorf("batch %d: spans diverge: fused %v (skipped %d), pulled %v (skipped %d)", bs, got.rows, got.skipped, want.rows, want.skipped)
			}
			for id, rows := range want.rows {
				if got.rows[id] != rows {
					t.Errorf("batch %d: span %s has %d rows fused, %d pulled", bs, id, got.rows[id], rows)
				}
			}
		}
	}
}

// TestFusedSubqueryConjunctsStayAbove pins the split: conjuncts holding a
// sub-query probe are not compiled, they run as a filterOp above the fused
// source — against the one sub-query implementation — and the answer and
// the pushdown span's rows and batches are the pulled pipeline's, also for
// the window the compiled conjuncts empty before the filterOp sees it.
func TestFusedSubqueryConjunctsStayAbove(t *testing.T) {
	cat := seqCatalog(3000)
	sql := "SELECT count(*), sum(x) FROM t WHERE x >= 100 AND x IN (SELECT x FROM t WHERE x % 3 = 0) AND x + 0 < 1500"
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.BuildStmt(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	ex := &executor{cat: cat, opts: Options{BatchSize: 1024, Fused: true}, p: p, subs: map[*sqlparser.SelectStatement]*subState{}}
	if err := ex.prepareSubqueries(stmt); err != nil {
		t.Fatal(err)
	}
	pipe, err := ex.buildFrom(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	above, ok := pipe.(*filterOp)
	if !ok || len(above.conjuncts) != 1 {
		t.Fatalf("pipeline top is %T, want a filterOp holding the one sub-query conjunct", pipe)
	}
	if f, ok := above.child.(*fusedScanOp); !ok || len(f.stages) != 1 || len(f.stages[0].conds) != 2 {
		t.Fatalf("below the filterOp sits %T, want a fused scan with the two plain conjuncts", above.child)
	}

	filterSpan := func(opts Options) (*Result, [2]int64) {
		tr := trace.NewTracer()
		opts.Tracer = tr
		res := run(t, cat, sql, opts)
		for _, sp := range tr.Trace("test").Spans {
			if sp.OpID == "filter.0" {
				return res, [2]int64{sp.Rows, sp.Batches}
			}
		}
		t.Fatal("no pushdown filter span")
		return nil, [2]int64{}
	}
	want, wantSpan := filterSpan(Options{BatchSize: 1024})
	got, gotSpan := filterSpan(Options{BatchSize: 1024, Fused: true})
	if got.Cols[0].Ints[0] != want.Cols[0].Ints[0] || got.Cols[1].Ints[0] != want.Cols[1].Ints[0] {
		t.Errorf("fused answer (%d, %d), pulled (%d, %d)", got.Cols[0].Ints[0], got.Cols[1].Ints[0], want.Cols[0].Ints[0], want.Cols[1].Ints[0])
	}
	// 466 multiples of 3 in [100, 1500); three windows enter the list, the
	// third is emptied by x + 0 < 1500 (which no zone map prunes) below the
	// filterOp.
	if wantAll := [2]int64{466, 3}; got.Cols[0].Ints[0] != 466 || gotSpan != wantSpan || gotSpan != wantAll {
		t.Errorf("count %d with pushdown span (rows, batches) %v fused, %v pulled; want %v", got.Cols[0].Ints[0], gotSpan, wantSpan, wantAll)
	}
}

// TestFusedConjunctErrorsAreCarried is the cond.err contract: a conjunct
// the compiler rejects for a reason plan.Build leaves to the executors (here:
// a malformed date literal, which the interpreters meet per row) must not
// fail a query whose pipeline never reaches it, and over rows it defers the
// statement to the interpreter — exactly what filterOp does with the same
// conjunct.
func TestFusedConjunctErrorsAreCarried(t *testing.T) {
	for _, fused := range []bool{false, true} {
		opts := Options{BatchSize: 1024, Fused: fused}
		res := run(t, seqCatalog(0), "SELECT count(*) FROM t WHERE s = DATE 'nope'", opts)
		if got := res.Cols[0].Ints[0]; got != 0 {
			t.Errorf("fused=%v: count over the empty table = %d, want 0", fused, got)
		}
		// An earlier conjunct that rejects every row also keeps the broken
		// one unreached.
		res = run(t, seqCatalog(2000), "SELECT count(*) FROM t WHERE x < 0 AND s = DATE 'nope'", opts)
		if got := res.Cols[0].Ints[0]; got != 0 {
			t.Errorf("fused=%v: count behind a rejecting conjunct = %d, want 0", fused, got)
		}
		err := runErr(t, seqCatalog(2000), "SELECT count(*) FROM t WHERE s = DATE 'nope'", opts)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("fused=%v: malformed date over rows = %v, want a deferral (ErrUnsupported)", fused, err)
		}
	}
}
