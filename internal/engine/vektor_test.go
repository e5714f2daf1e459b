package engine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/plan"
	"sqalpel/internal/sqlsem"
	"sqalpel/internal/workload"
)

// TestTPCHFullyVectorized is the acceptance gate of the sub-query work:
// every TPC-H query must carry a vectorizable plan verdict AND run through
// the native batch pipeline at runtime (a zero batch counter would mean the
// adapter silently fell back to the interpreter). Failures list every
// offending query with the plan's reason or the runtime symptom.
func TestTPCHFullyVectorized(t *testing.T) {
	vek := engine.NewVektorEngine()
	opts := engine.ExecOptions{}
	var offenders []string
	for _, q := range workload.TPCH() {
		p, err := plan.Build(tpchDB, q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if !p.Vectorizable {
			offenders = append(offenders, fmt.Sprintf("%s: plan verdict: %s", q.ID, p.NotVectorizableReason))
			continue
		}
		res, err := vek.Execute(tpchDB, q.SQL, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if res.Stats.Batches == 0 {
			offenders = append(offenders, q.ID+": runtime fell back to the interpreter (zero batches)")
		}
	}
	if len(offenders) > 0 {
		t.Errorf("queries outside the native vectorized path:\n  %s", strings.Join(offenders, "\n  "))
	}
}

// TestTPCHThreeParadigmsAgree is the conformance test of the third
// execution paradigm: every TPC-H query must produce identical
// (order-insensitive) results on the tuple-at-a-time, column-at-a-time and
// batch-vectorized engines, in both vektor releases (1024- and 4096-row
// batches, so batch-boundary splits differ between the two).
func TestTPCHThreeParadigmsAgree(t *testing.T) {
	engines := []engine.Engine{
		engine.NewRowEngine(),
		engine.NewColEngine(),
		engine.NewVektorEngine(),
		engine.NewRegistry().Get("vektor-2.0"),
	}
	opts := engine.ExecOptions{}
	for _, q := range workload.TPCH() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			var baseline string
			for i, eng := range engines {
				res, err := eng.Execute(tpchDB, q.SQL, opts)
				if err != nil {
					t.Fatalf("%s-%s: %v", eng.Name(), eng.Version(), err)
				}
				if i == 0 {
					baseline = res.Fingerprint()
					continue
				}
				if res.Fingerprint() != baseline {
					t.Errorf("%s-%s disagrees with %s on %s (%d rows)",
						eng.Name(), eng.Version(), engines[0].Name(), q.ID, res.NumRows())
				}
			}
		})
	}
}

// TestSSBAndAirtrafficVektorAgrees runs the other two bootstrap workloads
// through the vectorized engine against the column interpreter.
func TestSSBAndAirtrafficVektorAgrees(t *testing.T) {
	ssbDB := datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003})
	airDB := datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000})
	col := engine.NewColEngine()
	vek := engine.NewVektorEngine()
	opts := engine.ExecOptions{}
	for _, tc := range []struct {
		db      *engine.Database
		queries []workload.Query
	}{
		{ssbDB, workload.SSB()},
		{airDB, workload.Airtraffic()},
	} {
		for _, q := range tc.queries {
			r1, err := col.Execute(tc.db, q.SQL, opts)
			if err != nil {
				t.Fatalf("%s col: %v", q.ID, err)
			}
			r2, err := vek.Execute(tc.db, q.SQL, opts)
			if err != nil {
				t.Fatalf("%s vektor: %v", q.ID, err)
			}
			if r1.Fingerprint() != r2.Fingerprint() {
				t.Errorf("%s: vektor disagrees with columba", q.ID)
			}
		}
	}
}

// TestVektorNativeAndFallback checks the execution-path split: scan-heavy
// aggregation queries run natively through the batch pipeline (visible as a
// non-zero batch counter), while sub-query statements fall back to the
// interpreter and report zero batches — but stay correct either way.
func TestVektorNativeAndFallback(t *testing.T) {
	vek := engine.NewVektorEngine()
	opts := engine.ExecOptions{}

	for _, id := range []string{"Q1", "Q3", "Q6"} {
		q, _ := workload.TPCHQuery(id)
		res, err := vek.Execute(tpchDB, q.SQL, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Stats.Batches == 0 {
			t.Errorf("%s should run through the native batch pipeline", id)
		}
		if res.Stats.RowsScanned == 0 {
			t.Errorf("%s should report scanned rows", id)
		}
	}

	// Q2 carries a correlated scalar sub-query: decorrelated into a hash
	// probe, it runs through the native batch pipeline and reports the
	// sub-query build as an execution.
	q2, _ := workload.TPCHQuery("Q2")
	res, err := vek.Execute(tpchDB, q2.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Batches == 0 {
		t.Error("Q2 should run through the native batch pipeline")
	}
	if res.Stats.SubqueryExecutions == 0 {
		t.Error("Q2 should count its decorrelated sub-query build")
	}
	col, err := engine.NewColEngine().Execute(tpchDB, q2.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != col.Fingerprint() {
		t.Error("native sub-query result disagrees with columba")
	}
}

// TestVektorAgreesOnTrickyShapes pins down two divergences found in
// review: eager vectorized evaluation of CASE arms and OR operands must not
// surface type errors the interpreters' short-circuiting never reaches
// (those statements defer to the interpreter), and ORDER BY on a projection
// alias combined with a star projection must sort by the aliased column on
// every engine.
func TestVektorAgreesOnTrickyShapes(t *testing.T) {
	db := engine.NewDatabase("tricky")
	tbl := engine.NewTable("t",
		engine.Column{Name: "k", Type: engine.TypeString},
		engine.Column{Name: "x", Type: engine.TypeInt},
		engine.Column{Name: "y", Type: engine.TypeInt},
		engine.Column{Name: "s", Type: engine.TypeString},
	)
	for i, y := range []int64{10, 30, 20} {
		tbl.MustAppendRow(sqlsem.NewString("num"), sqlsem.NewInt(1), sqlsem.NewInt(y),
			sqlsem.NewString(string(rune('a'+i))))
	}
	db.AddTable(tbl)

	engines := []engine.Engine{
		engine.NewRowEngine(),
		engine.NewColEngine(),
		engine.NewVektorEngine(),
	}
	for _, sql := range []string{
		// The ELSE arm is a type error on every row, but no row reaches it.
		"SELECT CASE WHEN k = 'num' THEN x + 1 ELSE s + 1 END AS v FROM t WHERE k = 'num'",
		// The right OR arm is a type error, but the left arm always holds.
		"SELECT x FROM t WHERE x = 1 OR x + s > 0",
		// Star block plus aliased computed column: the alias must drive the sort.
		"SELECT *, y + 0 AS a FROM t ORDER BY a DESC LIMIT 2",
	} {
		var baseline *engine.Result
		for _, eng := range engines {
			res, err := eng.Execute(db, sql, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("%s-%s on %q: %v", eng.Name(), eng.Version(), sql, err)
			}
			if baseline == nil {
				baseline = res
				continue
			}
			if res.Fingerprint() != baseline.Fingerprint() {
				t.Errorf("%s-%s disagrees on %q:\n%s\nvs\n%s",
					eng.Name(), eng.Version(), sql, res.Fingerprint(), baseline.Fingerprint())
			}
		}
	}

	// The alias sort must pick the aliased column, not a star column.
	res, err := engine.NewColEngine().Execute(db, "SELECT *, y + 0 AS a FROM t ORDER BY a DESC LIMIT 2", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cols[4].At(0).Int() != 30 || res.Cols[4].At(1).Int() != 20 {
		t.Errorf("alias sort picked the wrong column: %v", res.Rows())
	}
}

// TestVektorParallelDeterminism is the conformance test of morsel-driven
// intra-query parallelism: every workload query (TPC-H, SSB, airtraffic)
// must produce bit-identical results — same rows, same order, same value
// kinds, floats equal to the last bit — at Parallelism 1 and 8. The
// parallel executor guarantees this by merging every morsel stage in
// morsel order and folding aggregate groups in serial row order. The
// compiled engine runs the same breakers: its fused source stays serial
// under Parallelism 8, the joins and aggregations above it fan out.
func TestVektorParallelDeterminism(t *testing.T) {
	ssbDB := datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003})
	airDB := datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000})
	for _, eng := range []engine.Engine{engine.NewVektorEngine(), engine.NewFusilEngine()} {
		for _, tc := range []struct {
			db      *engine.Database
			queries []workload.Query
		}{
			{tpchDB, workload.TPCH()},
			{ssbDB, workload.SSB()},
			{airDB, workload.Airtraffic()},
		} {
			for _, q := range tc.queries {
				serial, err := eng.Execute(tc.db, q.SQL, engine.ExecOptions{Parallelism: 1})
				if err != nil {
					t.Fatalf("%s serial: %v", q.ID, err)
				}
				parallel, err := eng.Execute(tc.db, q.SQL, engine.ExecOptions{Parallelism: 8})
				if err != nil {
					t.Fatalf("%s parallel: %v", q.ID, err)
				}
				want, got := serial.Rows(), parallel.Rows()
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows parallel vs %d serial", q.ID, len(got), len(want))
				}
				for i := range want {
					for c := range want[i] {
						a, b := want[i][c], got[i][c]
						if a.Kind != b.Kind || a.I != b.I || math.Float64bits(a.F) != math.Float64bits(b.F) || a.S != b.S {
							t.Fatalf("%s row %d col %d: serial %#v parallel %#v", q.ID, i, c, a, b)
						}
					}
				}
			}
		}
	}
}

// TestRegistryParadigms locks in the engine matrix the discriminative
// search runs over: at least six engines spanning four paradigm families.
func TestRegistryParadigms(t *testing.T) {
	reg := engine.NewRegistry()
	if len(reg.Keys()) < 6 {
		t.Fatalf("registry keys = %v, want at least 6", reg.Keys())
	}
	families := map[string]bool{}
	for _, e := range reg.Engines() {
		families[e.Name()] = true
	}
	for _, want := range []string{"tuplestore", "columba", "vektor", "fusil"} {
		if !families[want] {
			t.Errorf("registry misses the %s family: %v", want, reg.Keys())
		}
	}
	if reg.Get(engine.EngineKey("vektor", "1.0")) == nil || reg.Get(engine.EngineKey("vektor", "2.0")) == nil {
		t.Error("both vektor releases must be registered")
	}
	if eng := reg.Get("vektor-1.0"); eng != nil && eng.Dialect() != "vektor" {
		t.Errorf("vektor dialect = %q", eng.Dialect())
	}
	if eng := reg.Get(engine.EngineKey("fusil", "1.0")); eng == nil {
		t.Error("the compiled engine must be registered")
	} else if eng.Dialect() != "fusil" {
		t.Errorf("fusil dialect = %q", eng.Dialect())
	}
}

// TestVektorStatsDiffer confirms the vectorized engine's counters separate
// it from the interpreters on the same query — the raw material of the
// platform's per-engine analytics.
func TestVektorStatsDiffer(t *testing.T) {
	q6, _ := workload.TPCHQuery("Q6")
	vek, err := engine.NewVektorEngine().Execute(tpchDB, q6.SQL, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := engine.NewColEngine().Execute(tpchDB, q6.SQL, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vek.Stats.Batches == 0 || col.Stats.Batches != 0 {
		t.Errorf("batches: vektor=%d columba=%d", vek.Stats.Batches, col.Stats.Batches)
	}
	if vek.Stats.TuplesMaterialized != 0 {
		t.Errorf("vektor materialised %d boxed tuple values", vek.Stats.TuplesMaterialized)
	}
	m := vek.Stats.Map()
	if _, ok := m["batches"]; !ok {
		t.Error("stats map misses the batches counter")
	}
	if !strings.Contains(strings.Join(vek.Columns, ","), "revenue") {
		t.Errorf("Q6 columns = %v", vek.Columns)
	}
}
