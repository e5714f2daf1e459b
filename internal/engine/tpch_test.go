package engine_test

import (
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/workload"
)

// tpchDB is built once for the whole test package; SF 0.001 keeps the
// correlated TPC-H queries comfortably fast while still exercising joins of
// thousands of rows.
var tpchDB = datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.001, Seed: 7})

// TestTPCHBothEnginesAgree runs all 22 TPC-H queries on the row and the
// column engine and requires identical (order-insensitive) results. This is
// the core conformance test of the execution substrate: sqalpel's
// discriminative benchmarking is only meaningful when the systems under
// comparison compute the same answers.
func TestTPCHBothEnginesAgree(t *testing.T) {
	row := engine.NewRowEngine()
	col := engine.NewColEngine()
	opts := engine.ExecOptions{}
	for _, q := range workload.TPCH() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			resRow, err := row.Execute(tpchDB, q.SQL, opts)
			if err != nil {
				t.Fatalf("row engine: %v", err)
			}
			resCol, err := col.Execute(tpchDB, q.SQL, opts)
			if err != nil {
				t.Fatalf("col engine: %v", err)
			}
			if resRow.Fingerprint() != resCol.Fingerprint() {
				t.Errorf("engines disagree on %s:\nrow engine (%d rows)\ncol engine (%d rows)",
					q.ID, resRow.NumRows(), resCol.NumRows())
			}
		})
	}
}

// TestTPCHResultShapes spot-checks well understood properties of individual
// TPC-H answers so that agreement between engines cannot hide a shared bug.
func TestTPCHResultShapes(t *testing.T) {
	col := engine.NewColEngine()
	opts := engine.ExecOptions{}

	q1, _ := workload.TPCHQuery("Q1")
	res, err := col.Execute(tpchDB, q1.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Q1 groups by (returnflag, linestatus): at most 6 combinations exist
	// and at least 3 are always populated.
	if res.NumRows() < 3 || res.NumRows() > 6 {
		t.Errorf("Q1 groups = %d, want between 3 and 6", res.NumRows())
	}
	if len(res.Columns) != 10 {
		t.Errorf("Q1 columns = %d, want 10", len(res.Columns))
	}
	// sum_charge >= sum_disc_price >= 0 for every group.
	for _, r := range res.Rows() {
		discPrice := r[4].Float()
		charge := r[5].Float()
		if charge < discPrice || discPrice <= 0 {
			t.Errorf("Q1 invariant violated: disc_price=%f charge=%f", discPrice, charge)
		}
		// avg_qty must be within the quantity domain.
		if r[6].Float() < 1 || r[6].Float() > 50 {
			t.Errorf("Q1 avg_qty out of range: %v", r[6])
		}
	}

	q3, _ := workload.TPCHQuery("Q3")
	res, err = col.Execute(tpchDB, q3.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() > 10 {
		t.Errorf("Q3 has LIMIT 10, got %d rows", res.NumRows())
	}
	// Revenue must be sorted descending.
	for i := 1; i < res.NumRows(); i++ {
		if res.Cols[1].At(i).Float() > res.Cols[1].At(i-1).Float()+0.0001 {
			t.Error("Q3 revenue not sorted descending")
		}
	}

	q6, _ := workload.TPCHQuery("Q6")
	res, err = col.Execute(tpchDB, q6.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("Q6 rows = %d, want 1", res.NumRows())
	}
	if res.Cols[0].At(0).IsNull() || res.Cols[0].At(0).Float() <= 0 {
		t.Errorf("Q6 revenue should be positive, got %v", res.Cols[0].At(0))
	}

	q4, _ := workload.TPCHQuery("Q4")
	res, err = col.Execute(tpchDB, q4.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() > 5 {
		t.Errorf("Q4 groups by order priority (5 values), got %d rows", res.NumRows())
	}

	q13, _ := workload.TPCHQuery("Q13")
	res, err = col.Execute(tpchDB, q13.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Q13 is a left join: customers without orders must contribute a
	// c_count = 0 bucket.
	foundZero := false
	var total int64
	for _, r := range res.Rows() {
		if r[0].Int() == 0 {
			foundZero = true
		}
		total += r[1].Int()
	}
	if !foundZero {
		t.Error("Q13 should have a zero-orders bucket")
	}
	if total != int64(tpchDB.Table("customer").NumRows()) {
		t.Errorf("Q13 customer distribution sums to %d, want %d", total, tpchDB.Table("customer").NumRows())
	}

	q22, _ := workload.TPCHQuery("Q22")
	res, err = col.Execute(tpchDB, q22.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() > 7 {
		t.Errorf("Q22 groups by 7 country codes at most, got %d", res.NumRows())
	}
}

// TestTPCHColumnPruningHelps confirms the column engine touches fewer tuple
// values than the row engine on a narrow projection over the wide lineitem
// table — the structural reason the two engines discriminate.
func TestTPCHColumnPruningHelps(t *testing.T) {
	q6, _ := workload.TPCHQuery("Q6")
	row, err := engine.NewRowEngine().Execute(tpchDB, q6.SQL, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := engine.NewColEngine().Execute(tpchDB, q6.SQL, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if row.Stats.TuplesMaterialized == 0 {
		t.Fatal("row engine should materialise tuples")
	}
	if col.Stats.TuplesMaterialized != 0 {
		t.Errorf("column engine materialised %d tuple values on a pruned scan", col.Stats.TuplesMaterialized)
	}
}

// TestSSBAndAirtrafficRun executes the other two bootstrap workloads on both
// engines.
func TestSSBAndAirtrafficRun(t *testing.T) {
	ssbDB := datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003})
	airDB := datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000})
	row := engine.NewRowEngine()
	col := engine.NewColEngine()
	opts := engine.ExecOptions{}
	for _, q := range workload.SSB() {
		r1, err := row.Execute(ssbDB, q.SQL, opts)
		if err != nil {
			t.Fatalf("%s row: %v", q.ID, err)
		}
		r2, err := col.Execute(ssbDB, q.SQL, opts)
		if err != nil {
			t.Fatalf("%s col: %v", q.ID, err)
		}
		if r1.Fingerprint() != r2.Fingerprint() {
			t.Errorf("%s: engines disagree", q.ID)
		}
	}
	for _, q := range workload.Airtraffic() {
		r1, err := row.Execute(airDB, q.SQL, opts)
		if err != nil {
			t.Fatalf("%s row: %v", q.ID, err)
		}
		r2, err := col.Execute(airDB, q.SQL, opts)
		if err != nil {
			t.Fatalf("%s col: %v", q.ID, err)
		}
		if r1.Fingerprint() != r2.Fingerprint() {
			t.Errorf("%s: engines disagree", q.ID)
		}
	}
}
