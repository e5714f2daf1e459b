package vexec

import (
	"fmt"
	"testing"

	"sqalpel/internal/sqlsem"
)

// TestZoneMapBlockSkipping pins the block-skipping contract on an integer
// column: a selective pushed-down range over sequential data must skip every
// block outside the range, count the skips in Stats, and leave the answer
// untouched — serially and under morsel parallelism, with identical stats.
func TestZoneMapBlockSkipping(t *testing.T) {
	cat := seqCatalog(4096) // x = 0..4095: four 1024-row blocks
	sql := "SELECT count(*), sum(x) FROM t WHERE x >= 2048 AND x < 2058"

	serial := run(t, cat, sql, Options{BatchSize: 1024})
	if got := serial.Cols[0].Ints[0]; got != 10 {
		t.Errorf("count = %d, want 10", got)
	}
	if got := serial.Cols[1].Ints[0]; got != 20525 {
		t.Errorf("sum = %d, want 20525", got)
	}
	// Blocks 0, 1 (max 2047 < 2048) and 3 (min 3072 >= 2058) are provably
	// empty under the conjuncts; only block 2 survives.
	if serial.Stats.BlocksSkipped != 3 {
		t.Errorf("BlocksSkipped = %d, want 3", serial.Stats.BlocksSkipped)
	}
	if serial.Stats.RowsScanned != 1024 {
		t.Errorf("RowsScanned = %d, want 1024 (one surviving block)", serial.Stats.RowsScanned)
	}

	parallel := run(t, cat, sql, Options{BatchSize: 1024, Parallelism: 8})
	if parallel.Stats != serial.Stats {
		t.Errorf("parallel stats diverge:\nserial   %+v\nparallel %+v", serial.Stats, parallel.Stats)
	}
	if got := parallel.Cols[1].Ints[0]; got != 20525 {
		t.Errorf("parallel sum = %d, want 20525", got)
	}

	// Zone blocks only align with batches when the batch size is a block
	// multiple; otherwise skipping must disable itself, not misalign.
	unaligned := run(t, cat, sql, Options{BatchSize: 1000})
	if unaligned.Stats.BlocksSkipped != 0 {
		t.Errorf("unaligned batch size skipped %d blocks, want 0", unaligned.Stats.BlocksSkipped)
	}
	if got := unaligned.Cols[1].Ints[0]; got != 20525 {
		t.Errorf("unaligned sum = %d, want 20525", got)
	}
}

// TestZoneMapStringSkipping drives the string zone maps through the
// dictionary-coded predicate forms: equality on present and absent values,
// prefix LIKE and IN lists, each over a column whose blocks hold disjoint
// value ranges.
func TestZoneMapStringSkipping(t *testing.T) {
	words := []string{"alpha", "bravo", "carol", "delta"}
	n := 4096
	ss := make([]string, n)
	for i := range ss {
		ss[i] = words[i/1024]
	}
	tab := NewTable("t",
		TableColumn{Name: "s", Vec: strVec(ss...)},
		TableColumn{Name: "x", Vec: intVec(seq(n)...)},
	)
	if d := tab.DictFor("s"); d == nil || d.Len() != 4 {
		t.Fatalf("DictFor(s) = %v, want 4-entry dictionary", d)
	}
	cat := mapCatalog{"t": tab}
	opts := Options{BatchSize: 1024}

	cases := []struct {
		sql           string
		count         int64
		blocksSkipped int64
	}{
		{"SELECT count(*) FROM t WHERE s = 'carol'", 1024, 3},
		{"SELECT count(*) FROM t WHERE s = 'zeta'", 0, 4},
		{"SELECT count(*) FROM t WHERE s LIKE 'br%'", 1024, 3},
		{"SELECT count(*) FROM t WHERE s IN ('alpha', 'delta')", 2048, 2},
		{"SELECT count(*) FROM t WHERE s >= 'carol'", 2048, 2},
	}
	for _, tc := range cases {
		res := run(t, cat, tc.sql, opts)
		if got := res.Cols[0].Ints[0]; got != tc.count {
			t.Errorf("%s: count = %d, want %d", tc.sql, got, tc.count)
		}
		if res.Stats.BlocksSkipped != tc.blocksSkipped {
			t.Errorf("%s: BlocksSkipped = %d, want %d", tc.sql, res.Stats.BlocksSkipped, tc.blocksSkipped)
		}
	}
}

// TestDictHighCardinalityFallback pins the encoding gate: a string column
// above the cardinality cap must stay raw and still answer every predicate
// form correctly.
func TestDictHighCardinalityFallback(t *testing.T) {
	old := DictMaxCardinality
	DictMaxCardinality = 8
	defer func() { DictMaxCardinality = old }()

	n := 64
	ss := make([]string, n)
	for i := range ss {
		ss[i] = fmt.Sprintf("v%02d", i) // 64 distinct values > cap 8
	}
	tab := NewTable("t", TableColumn{Name: "s", Vec: strVec(ss...)})
	if tab.DictFor("s") != nil {
		t.Fatal("column above the cardinality cap was dictionary-encoded")
	}
	cat := mapCatalog{"t": tab}
	res := run(t, cat, "SELECT count(*) FROM t WHERE s = 'v07'", Options{BatchSize: 1024})
	if got := res.Cols[0].Ints[0]; got != 1 {
		t.Errorf("raw fallback count = %d, want 1", got)
	}
	res = run(t, cat, "SELECT count(*) FROM t WHERE s LIKE 'v1%'", Options{BatchSize: 1024})
	if got := res.Cols[0].Ints[0]; got != 10 {
		t.Errorf("raw fallback LIKE count = %d, want 10", got)
	}

	// At or below the cap the same shape encodes.
	low := make([]string, n)
	for i := range low {
		low[i] = fmt.Sprintf("w%d", i%8)
	}
	enc := NewTable("e", TableColumn{Name: "s", Vec: strVec(low...)})
	if d := enc.DictFor("s"); d == nil || d.Len() != 8 {
		t.Fatalf("DictFor at the cap = %v, want 8-entry dictionary", d)
	}
}

// TestDictionaryEncoding pins the encoder itself: sorted unique values,
// code lookup for present and absent strings, NULL preservation, and
// StrAt reading through the codes.
func TestDictionaryEncoding(t *testing.T) {
	v := strVec("beta", "alpha", "beta", "gamma", "alpha")
	v.SetNull(3) // the "gamma" row: NULLs must not leak into the dictionary
	e := dictEncode(v)
	if e.Dict == nil {
		t.Fatal("string vector not encoded")
	}
	if got, want := fmt.Sprint(e.Dict.Vals), "[alpha beta]"; got != want {
		t.Fatalf("dictionary = %s, want %s", got, want)
	}
	if c, ok := e.Dict.Code("beta"); !ok || c != 1 {
		t.Errorf("Code(beta) = (%d, %v), want (1, true)", c, ok)
	}
	if c, ok := e.Dict.Code("b"); ok || c != 1 {
		t.Errorf("Code(b) = (%d, %v), want insertion point (1, false)", c, ok)
	}
	if _, ok := e.Dict.Code("zzz"); ok {
		t.Error("Code(zzz) reported an absent value as present")
	}
	for i, want := range []string{"beta", "alpha", "beta", "", "alpha"} {
		if e.IsNull(i) != (i == 3) {
			t.Errorf("row %d: null = %v", i, e.IsNull(i))
		}
		if i != 3 && e.StrAt(i) != want {
			t.Errorf("StrAt(%d) = %q, want %q", i, e.StrAt(i), want)
		}
	}
}

// TestDictDegenerateColumns covers the encoder's edge shapes: empty,
// all-NULL and single-distinct-value string columns, each driven through a
// zone-mapped query.
func TestDictDegenerateColumns(t *testing.T) {
	opts := Options{BatchSize: 1024}

	empty := mapCatalog{"t": NewTable("t", TableColumn{Name: "s", Vec: strVec()})}
	res := run(t, empty, "SELECT count(s) FROM t WHERE s = 'x'", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("empty column count = %d, want 0", got)
	}

	nulls := mapCatalog{"t": NewTable("t", TableColumn{Name: "s", Vec: allNullVec(sqlsem.KindString, 3000)})}
	res = run(t, nulls, "SELECT count(s) FROM t", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("all-NULL count(s) = %d, want 0", got)
	}
	// Every block has zero non-NULL rows: any compiled predicate is
	// NULL-rejecting, so all three blocks skip.
	res = run(t, nulls, "SELECT count(*) FROM t WHERE s = 'x'", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("all-NULL filtered count = %d, want 0", got)
	}
	if res.Stats.BlocksSkipped != 3 {
		t.Errorf("all-NULL BlocksSkipped = %d, want 3", res.Stats.BlocksSkipped)
	}

	ones := make([]string, 3000)
	for i := range ones {
		ones[i] = "only"
	}
	single := mapCatalog{"t": NewTable("t", TableColumn{Name: "s", Vec: strVec(ones...)})}
	res = run(t, single, "SELECT count(*) FROM t WHERE s = 'only'", opts)
	if got := res.Cols[0].Ints[0]; got != 3000 {
		t.Errorf("single-value count = %d, want 3000", got)
	}
	res = run(t, single, "SELECT count(*) FROM t WHERE s <> 'only'", opts)
	if got := res.Cols[0].Ints[0]; got != 0 {
		t.Errorf("single-value <> count = %d, want 0", got)
	}
	if res.Stats.BlocksSkipped != 3 {
		t.Errorf("single-value <> BlocksSkipped = %d, want 3", res.Stats.BlocksSkipped)
	}
}

// TestZoneMapSeesFoldedDateBound: plan.FoldExpr turns DATE ± INTERVAL into a
// date literal, so a range over a date-clustered column prunes blocks the
// unfolded bound (not a literal) could not.
func TestZoneMapSeesFoldedDateBound(t *testing.T) {
	d := NewVector(sqlsem.KindDate, 4096)
	for i := range d.Ints {
		d.Ints[i] = int64(i)
	}
	cat := mapCatalog{"t": NewTable("t", TableColumn{Name: "d", Vec: d})}
	res := run(t, cat, "SELECT count(*) FROM t WHERE d >= DATE '1970-01-01' + INTERVAL '3000' DAY - INTERVAL '1' DAY", Options{})
	if res.Cols[0].Ints[0] != 4096-2999 || res.Stats.BlocksSkipped != 2 {
		t.Errorf("count %d, blocks skipped %d; want %d and 2", res.Cols[0].Ints[0], res.Stats.BlocksSkipped, 4096-2999)
	}
}
