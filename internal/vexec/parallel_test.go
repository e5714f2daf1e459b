package vexec

import (
	"math"
	"sync/atomic"
	"testing"

	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
)

// parCatalog builds a two-table catalog big enough to cross the morsel and
// parallel-join thresholds: f(x int, y float, s string, nk int-with-NULLs)
// with rows rows, and dim(k int, name string) with dims rows.
func parCatalog(rows, dims int) mapCatalog {
	x := NewVector(sqlsem.KindInt, rows)
	y := NewVector(sqlsem.KindFloat, rows)
	s := NewVector(sqlsem.KindString, rows)
	nk := NewVector(sqlsem.KindInt, rows)
	for i := 0; i < rows; i++ {
		x.Ints[i] = int64(i % (dims * 2))
		y.Floats[i] = float64(i%97) / 7 // non-integral floats: order-sensitive sums
		s.Strs[i] = "g" + string(rune('a'+i%23))
		if i%11 == 0 {
			nk.SetNull(i)
		} else {
			nk.Ints[i] = int64(i % 5)
		}
	}
	k := NewVector(sqlsem.KindInt, dims)
	name := NewVector(sqlsem.KindString, dims)
	for i := 0; i < dims; i++ {
		k.Ints[i] = int64(i)
		name.Strs[i] = "d" + string(rune('a'+i%19))
	}
	return mapCatalog{
		"f": NewTable("f",
			TableColumn{Name: "x", Vec: x},
			TableColumn{Name: "y", Vec: y},
			TableColumn{Name: "s", Vec: s},
			TableColumn{Name: "nk", Vec: nk},
		),
		"dim": NewTable("dim",
			TableColumn{Name: "k", Vec: k},
			TableColumn{Name: "name", Vec: name},
		),
	}
}

// scalarEqual is bitwise scalar equality (floats compare by bit pattern, so
// a reordered float sum cannot hide behind printf rounding).
func scalarEqual(a, b sqlsem.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqlsem.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case sqlsem.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// resultsIdentical reports whether two results agree bit for bit: columns,
// row order, row values and the execution counters.
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) || a.NumRows() != b.NumRows() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label, len(a.Columns), a.NumRows(), len(b.Columns), b.NumRows())
	}
	for c := range a.Cols {
		av, bv := a.Cols[c], b.Cols[c]
		for i := 0; i < a.NumRows(); i++ {
			if !scalarEqual(av.At(i), bv.At(i)) {
				t.Fatalf("%s: col %d row %d: %v vs %v", label, c, i, av.At(i), bv.At(i))
			}
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("%s: stats diverge: %+v vs %+v", label, a.Stats, b.Stats)
	}
}

// TestParallelMatchesSerial runs the operator spectrum — multi-conjunct
// filters, typed and compound grouping, DISTINCT aggregates, HAVING,
// hash joins past the partitioned-build threshold, DISTINCT and ORDER BY
// epilogues — at Parallelism 1, 2 and 8. Every result must be bit-identical
// to the serial run, including the float sums (the morsel fold replays the
// serial accumulation order) and the execution counters.
func TestParallelMatchesSerial(t *testing.T) {
	cat := parCatalog(7000, 600)
	queries := []string{
		"SELECT count(*), sum(y), avg(y), min(s), max(x) FROM f",
		"SELECT x, count(*) AS c, sum(y) AS sy FROM f WHERE x > 3 AND y > 0.5 GROUP BY x",
		"SELECT s, sum(y), count(DISTINCT x) FROM f GROUP BY s",
		"SELECT x, s, avg(y) FROM f GROUP BY x, s HAVING count(*) > 2",
		"SELECT nk, count(*), sum(y) FROM f GROUP BY nk",
		"SELECT f.x, dim.name, f.y FROM f, dim WHERE f.x = dim.k AND f.y > 1",
		"SELECT count(*), sum(f.y) FROM f, dim WHERE f.x = dim.k",
		// Nullable join keys: NULL nk rows must be skipped identically by
		// the serial and the partitioned morsel-parallel join (probe-side
		// NULLs here: dim is the smaller build side).
		"SELECT count(*), sum(f.y) FROM f, dim WHERE f.nk = dim.k",
		"SELECT dim.name, count(*) FROM f, dim WHERE f.nk = dim.k GROUP BY dim.name ORDER BY 2 DESC, 1 LIMIT 5",
		// Build-side NULL keys: the self-join builds on b (nk nullable).
		"SELECT count(*), sum(a.y) FROM f a, f b WHERE a.x = b.nk",
		// NULL keys on BOTH sides — the case where dropping either
		// nullKeyRow guard would make NULL = NULL match and inflate the
		// count (a is filtered small, so it becomes the build side).
		"SELECT count(*), sum(b.y) FROM f a, f b WHERE a.y > 13 AND a.nk = b.nk",
		"SELECT dim.name, sum(f.y) FROM f, dim WHERE f.x = dim.k GROUP BY dim.name ORDER BY 2 DESC LIMIT 7",
		"SELECT DISTINCT s FROM f ORDER BY s",
		"SELECT DISTINCT x, s FROM f WHERE x < 40 ORDER BY x DESC, s LIMIT 25",
		"SELECT x, y FROM f WHERE s = 'gb' ORDER BY y DESC, x",
		"SELECT sum(x) FROM f WHERE x < 0", // empty input, global group
	}
	for _, sql := range queries {
		serial := run(t, cat, sql, Options{})
		for _, p := range []int{1, 2, 8} {
			par := run(t, cat, sql, Options{Parallelism: p})
			resultsIdentical(t, sql, serial, par)
		}
		// A batch size that misaligns morsel boundaries must not matter.
		odd := run(t, cat, sql, Options{Parallelism: 8, BatchSize: 333})
		small := run(t, cat, sql, Options{BatchSize: 333})
		resultsIdentical(t, sql+" [bs=333]", small, odd)
	}
}

// TestParallelJoinGuard confirms the join-size guard fires identically on
// the partitioned path.
func TestParallelJoinGuard(t *testing.T) {
	cat := parCatalog(7000, 600)
	sql := "SELECT count(*) FROM f, dim WHERE f.x = dim.k"
	serialErr := runErr(t, cat, sql, Options{Limits: plan.Limits{MaxJoinRows: 10}})
	parErr := runErr(t, cat, sql, Options{Limits: plan.Limits{MaxJoinRows: 10}, Parallelism: 8})
	if serialErr == nil || parErr == nil {
		t.Fatalf("join guard: serial=%v parallel=%v", serialErr, parErr)
	}
	// The cross-join guard divides before multiplying (nl*nr could wrap
	// before the comparison), so oversized products are rejected up front
	// without materializing index vectors.
	if err := runErr(t, cat, "SELECT count(*) FROM f, f f2", Options{Limits: plan.Limits{MaxJoinRows: 1000}}); err == nil {
		t.Error("cross-join guard did not fire")
	}
}

// TestSplitPipeline checks the morsel decomposition of operator chains.
func TestSplitPipeline(t *testing.T) {
	cat := parCatalog(100, 10)
	table, _ := cat.VTable("f")
	ex := &executor{cat: cat, opts: Options{BatchSize: 16}}
	scan := newScanOp(ex, table, "", map[string]bool{"*": true})
	src, passes, ok := splitPipeline(scan)
	if !ok || src.rows != 100 || !src.scan || len(passes) != 0 {
		t.Fatalf("scan split: ok=%v rows=%d scan=%v passes=%d", ok, src.rows, src.scan, len(passes))
	}
	if _, _, ok := splitPipeline(&dualOp{}); ok {
		t.Error("dual must not split")
	}
	consumed := newScanOp(ex, table, "", map[string]bool{"*": true})
	if _, err := consumed.next(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := splitPipeline(consumed); ok {
		t.Error("partially consumed scans must not split")
	}
}

// TestParallelFor exercises the morsel pool driver itself.
func TestParallelFor(t *testing.T) {
	for _, p := range []int{1, 3, 16} {
		var sum atomic.Int64
		hits := make([]int32, 1000)
		parallelFor(p, len(hits), func(i int) {
			atomic.AddInt32(&hits[i], 1)
			sum.Add(int64(i))
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("p=%d: index %d ran %d times", p, i, h)
			}
		}
		if want := int64(len(hits)) * int64(len(hits)-1) / 2; sum.Load() != want {
			t.Fatalf("p=%d: sum %d want %d", p, sum.Load(), want)
		}
	}
	// Zero work must not hang or spawn.
	parallelFor(4, 0, func(int) { t.Fatal("called") })
}

// TestParallelForReraisesWorkerPanic: a morsel worker's panic does not kill
// the process from its own goroutine; parallelFor waits for every worker
// and re-raises the panic on the calling goroutine, where a recover can
// reach it.
func TestParallelForReraisesWorkerPanic(t *testing.T) {
	caller := func() (recovered any) {
		defer func() { recovered = recover() }()
		parallelFor(4, 1000, func(i int) {
			if i == 17 {
				panic("morsel 17")
			}
		})
		return nil
	}
	if r := caller(); r != "morsel 17" {
		t.Errorf("the caller recovered %v, want the worker's panic", r)
	}
}
