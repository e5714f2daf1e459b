package datagen

import (
	"testing"
	"testing/quick"

	"sqalpel/internal/sqlsem"
)

func TestTPCHSchemaAndSizes(t *testing.T) {
	db := TPCH(TPCHOptions{ScaleFactor: 0.001})
	wantTables := []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"}
	for _, name := range wantTables {
		if db.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
	if got := db.Table("region").NumRows(); got != 5 {
		t.Errorf("region rows = %d, want 5", got)
	}
	if got := db.Table("nation").NumRows(); got != 25 {
		t.Errorf("nation rows = %d, want 25", got)
	}
	orders := db.Table("orders").NumRows()
	lineitem := db.Table("lineitem").NumRows()
	if orders < 1000 {
		t.Errorf("orders rows = %d, want >= 1000 at SF 0.001", orders)
	}
	if lineitem < orders {
		t.Errorf("lineitem (%d) should outnumber orders (%d)", lineitem, orders)
	}
	if got := db.Table("partsupp").NumRows(); got != db.Table("part").NumRows()*4 {
		t.Errorf("partsupp rows = %d, want 4x part rows", got)
	}
}

func TestTPCHScaling(t *testing.T) {
	small := TPCH(TPCHOptions{ScaleFactor: 0.001})
	large := TPCH(TPCHOptions{ScaleFactor: 0.002})
	if large.Table("lineitem").NumRows() <= small.Table("lineitem").NumRows() {
		t.Error("larger scale factor should produce more lineitem rows")
	}
	ratio := float64(large.Table("orders").NumRows()) / float64(small.Table("orders").NumRows())
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("orders should scale roughly linearly, ratio = %.2f", ratio)
	}
}

func TestTPCHDeterminism(t *testing.T) {
	a := TPCH(TPCHOptions{ScaleFactor: 0.001, Seed: 42})
	b := TPCH(TPCHOptions{ScaleFactor: 0.001, Seed: 42})
	ta, tb := a.Table("lineitem"), b.Table("lineitem")
	if ta.NumRows() != tb.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", ta.NumRows(), tb.NumRows())
	}
	for i := 0; i < 100 && i < ta.NumRows(); i++ {
		for c := range ta.Columns {
			if ta.Value(i, c).String() != tb.Value(i, c).String() {
				t.Fatalf("row %d col %d differs: %s vs %s", i, c, ta.Value(i, c), tb.Value(i, c))
			}
		}
	}
}

func TestTPCHValueDomains(t *testing.T) {
	db := TPCH(TPCHOptions{ScaleFactor: 0.001})
	li := db.Table("lineitem")
	discountIdx := li.ColumnIndex("l_discount")
	taxIdx := li.ColumnIndex("l_tax")
	qtyIdx := li.ColumnIndex("l_quantity")
	shipIdx := li.ColumnIndex("l_shipdate")
	lo := sqlsem.MustParseDate("1992-01-01")
	hi := sqlsem.MustParseDate("1999-01-01")
	for i := 0; i < li.NumRows(); i++ {
		d := li.Value(i, discountIdx).Float()
		if d < 0 || d > 0.10001 {
			t.Fatalf("discount %f out of range", d)
		}
		tax := li.Value(i, taxIdx).Float()
		if tax < 0 || tax > 0.08001 {
			t.Fatalf("tax %f out of range", tax)
		}
		q := li.Value(i, qtyIdx).Float()
		if q < 1 || q > 50 {
			t.Fatalf("quantity %f out of range", q)
		}
		sd := li.Value(i, shipIdx)
		if sd.Kind != sqlsem.KindDate || sd.I < lo || sd.I > hi {
			t.Fatalf("shipdate %s out of range", sd)
		}
	}

	// Referential integrity: every lineitem orderkey exists in orders.
	orderKeys := map[int64]bool{}
	ot := db.Table("orders")
	okIdx := ot.ColumnIndex("o_orderkey")
	for i := 0; i < ot.NumRows(); i++ {
		orderKeys[ot.Value(i, okIdx).I] = true
	}
	loIdx := li.ColumnIndex("l_orderkey")
	for i := 0; i < li.NumRows(); i++ {
		if !orderKeys[li.Value(i, loIdx).I] {
			t.Fatalf("lineitem row %d references missing order %d", i, li.Value(i, loIdx).I)
		}
	}

	// Selectivity targets of the standard predicates must be non-empty.
	counts := map[string]int{}
	ct := db.Table("customer")
	segIdx := ct.ColumnIndex("c_mktsegment")
	for i := 0; i < ct.NumRows(); i++ {
		counts[ct.Value(i, segIdx).S]++
	}
	if counts["BUILDING"] == 0 {
		t.Error("no BUILDING customers generated; Q3 would be empty")
	}
	pt := db.Table("part")
	brandIdx := pt.ColumnIndex("p_brand")
	brands := map[string]bool{}
	for i := 0; i < pt.NumRows(); i++ {
		brands[pt.Value(i, brandIdx).S] = true
	}
	if !brands["Brand#23"] && !brands["Brand#12"] {
		t.Error("expected standard brands to be generated")
	}
}

func TestSSBSchema(t *testing.T) {
	db := SSB(SSBOptions{ScaleFactor: 0.0005})
	for _, name := range []string{"lineorder", "dates", "customer", "supplier", "part"} {
		if db.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
	if got := db.Table("dates").NumRows(); got < 2500 {
		t.Errorf("dates rows = %d, want the 7 year calendar", got)
	}
	lo := db.Table("lineorder")
	if lo.NumRows() < 100 {
		t.Errorf("lineorder rows = %d, too few", lo.NumRows())
	}
	// Revenue must be consistent with price and discount.
	priceIdx := lo.ColumnIndex("lo_extendedprice")
	discIdx := lo.ColumnIndex("lo_discount")
	revIdx := lo.ColumnIndex("lo_revenue")
	for i := 0; i < 50; i++ {
		price := lo.Value(i, priceIdx).Float()
		disc := lo.Value(i, discIdx).Float()
		rev := lo.Value(i, revIdx).Float()
		want := price * (1 - disc/100)
		if diff := rev - want; diff > 0.001 || diff < -0.001 {
			t.Fatalf("row %d revenue %f, want %f", i, rev, want)
		}
	}
}

func TestAirtrafficSchema(t *testing.T) {
	db := Airtraffic(AirtrafficOptions{Flights: 2000})
	fl := db.Table("flights")
	if fl == nil || fl.NumRows() != 2000 {
		t.Fatalf("flights table missing or wrong size")
	}
	cancelledIdx := fl.ColumnIndex("cancelled")
	depIdx := fl.ColumnIndex("dep_delay")
	origIdx := fl.ColumnIndex("origin")
	destIdx := fl.ColumnIndex("dest")
	cancelledSeen := false
	for i := 0; i < fl.NumRows(); i++ {
		if fl.Value(i, origIdx).S == fl.Value(i, destIdx).S {
			t.Fatalf("row %d has identical origin and destination", i)
		}
		if fl.Value(i, cancelledIdx).I == 1 {
			cancelledSeen = true
			if !fl.Value(i, depIdx).IsNull() {
				t.Fatalf("cancelled flight %d should have NULL dep_delay", i)
			}
		}
	}
	if !cancelledSeen {
		t.Error("expected some cancelled flights")
	}
}

func TestFuzzSchema(t *testing.T) {
	db := Fuzz(FuzzOptions{Rows: 500})
	ft := db.Table("t")
	if ft == nil || ft.NumRows() != 500 {
		t.Fatalf("fuzz fact table missing or wrong size")
	}
	dim := db.Table("dim")
	if dim == nil || dim.NumRows() != 8 {
		t.Fatalf("fuzz dim table missing or wrong size")
	}
	// Key columns must be NULL-free; every nullable column must carry a
	// meaningful mix of NULLs and values — that mix is the whole point of
	// the data set.
	for _, keyCol := range []string{"id", "k"} {
		ci := ft.ColumnIndex(keyCol)
		for i := 0; i < ft.NumRows(); i++ {
			if ft.Value(i, ci).IsNull() {
				t.Fatalf("key column %s has a NULL at row %d", keyCol, i)
			}
		}
	}
	for _, nullCol := range []string{"a", "b", "f", "s", "d", "g"} {
		ci := ft.ColumnIndex(nullCol)
		nulls := 0
		for i := 0; i < ft.NumRows(); i++ {
			if ft.Value(i, ci).IsNull() {
				nulls++
			}
		}
		frac := float64(nulls) / float64(ft.NumRows())
		if frac < 0.1 || frac > 0.6 {
			t.Errorf("column %s NULL fraction %.2f outside [0.1, 0.6]", nullCol, frac)
		}
	}
}

func TestFuzzDeterminism(t *testing.T) {
	a := Fuzz(FuzzOptions{Rows: 200, Seed: 7})
	b := Fuzz(FuzzOptions{Rows: 200, Seed: 7})
	ta, tb := a.Table("t"), b.Table("t")
	for i := 0; i < ta.NumRows(); i++ {
		for c := range ta.Columns {
			va, vb := ta.Value(i, c), tb.Value(i, c)
			if va != vb {
				t.Fatalf("row %d col %d differs between identical seeds: %v vs %v", i, c, va, vb)
			}
		}
	}
	other := Fuzz(FuzzOptions{Rows: 200, Seed: 8})
	diff := false
	to := other.Table("t")
	for i := 0; i < ta.NumRows() && !diff; i++ {
		for c := range ta.Columns {
			if ta.Value(i, c) != to.Value(i, c) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestNamedDatabase(t *testing.T) {
	for _, set := range []struct {
		name   string
		tables []string
	}{
		{"tpch", []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"}},
		{"ssb", []string{"dates", "customer", "supplier", "part", "lineorder"}},
		{"airtraffic", []string{"flights"}},
		{"fuzz", []string{"t", "dim"}},
	} {
		name := set.name
		db, err := NamedDatabase(name, 0.001)
		if err != nil {
			t.Errorf("NamedDatabase(%s) failed: %v", name, err)
			continue
		}
		rows := 0
		for _, table := range set.tables {
			if tbl := db.Table(table); tbl != nil {
				rows += tbl.NumRows()
			}
		}
		if rows == 0 {
			t.Errorf("NamedDatabase(%s) produced no rows", name)
		}
	}
	if _, err := NamedDatabase("oracle", 1); err == nil {
		t.Error("unknown data set should fail")
	}
}

func TestRNGProperties(t *testing.T) {
	// The generator must be deterministic for a given seed and must cover
	// its range.
	f := func(seed uint64, n uint8) bool {
		limit := int(n%50) + 1
		a, b := newRNG(seed), newRNG(seed)
		for i := 0; i < 20; i++ {
			x, y := a.Intn(limit), b.Intn(limit)
			if x != y {
				return false
			}
			if x < 0 || x >= limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Range bounds are inclusive.
	g := func(seed uint64) bool {
		r := newRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Range(3, 7)
			if v < 3 || v > 7 {
				return false
			}
			fl := r.Float()
			if fl < 0 || fl >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
