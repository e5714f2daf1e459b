package trace_test

import (
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/trace"
	"sqalpel/internal/workload"
)

// TestSpanIDsSubsetOfPlan runs every TPC-H query on all six engines with
// tracing enabled and checks the cross-paradigm contract: every span id an
// engine emits must be an operator id of the query's EXPLAIN plan-JSON. The
// subset direction is deliberate — an engine may skip operators its
// execution strategy folds away (the interpreters fold pushdown filters into
// the residual filter; untraced join-tree internals emit nothing) but may
// never invent ids the plan does not declare, or cross-engine comparison
// would silently misalign.
func TestSpanIDsSubsetOfPlan(t *testing.T) {
	db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.001, Seed: 11})
	reg := engine.NewRegistry()
	opts := engine.ExecOptions{}
	for _, q := range workload.TPCH() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			doc, err := reg.Explain(db, q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			planIDs := doc.OperatorIDs()
			for _, key := range reg.Keys() {
				eng := reg.Get(key)
				tr := trace.NewTracer()
				o := opts
				o.Tracer = tr
				if _, err := eng.Execute(db, q.SQL, o); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				qt := tr.Trace(key)
				if len(qt.Spans) == 0 {
					t.Errorf("%s: traced execution produced no spans", key)
				}
				for _, sp := range qt.Spans {
					if !planIDs[sp.OpID] {
						t.Errorf("%s: span id %q not among the plan's operator ids", key, sp.OpID)
					}
				}
			}
		})
	}
}

// TestVektorTraceParallelismDeterminism pins the morsel-merge discipline:
// the vektor engines' span Rows, Batches and Calls must be bit-identical at
// 1 and 8 morsel workers, because workers accumulate SpanDelta values per
// morsel and the coordinator merges them in morsel order. Wall time and
// allocation are timing-dependent and deliberately not compared.
func TestVektorTraceParallelismDeterminism(t *testing.T) {
	db := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.002, Seed: 11})
	for _, eng := range []engine.Engine{
		engine.NewVektorEngine(),
		engine.NewRegistry().Get("vektor-2.0"),
	} {
		key := engine.EngineKey(eng.Name(), eng.Version())
		for _, q := range workload.TPCH() {
			traces := map[int]*trace.QueryTrace{}
			for _, workers := range []int{1, 8} {
				tr := trace.NewTracer()
				if _, err := eng.Execute(db, q.SQL, engine.ExecOptions{Parallelism: workers, Tracer: tr}); err != nil {
					t.Fatalf("%s %s workers=%d: %v", key, q.ID, workers, err)
				}
				traces[workers] = tr.Trace(key)
			}
			serial, parallel := traces[1], traces[8]
			if len(serial.Spans) != len(parallel.Spans) {
				t.Errorf("%s %s: %d spans at workers=1 vs %d at workers=8", key, q.ID, len(serial.Spans), len(parallel.Spans))
				continue
			}
			for i := range serial.Spans {
				s, p := serial.Spans[i], parallel.Spans[i]
				if s.OpID != p.OpID || s.Rows != p.Rows || s.Batches != p.Batches || s.Calls != p.Calls {
					t.Errorf("%s %s: span %s diverges across worker counts:\n workers=1: %+v\n workers=8: %+v",
						key, q.ID, s.OpID, s, p)
				}
			}
		}
	}
}

// TestDisabledTracerZeroAlloc proves the zero-cost contract of the disabled
// seam: every operation an operator performs when no tracer is installed —
// span lookup on the nil tracer, starting and closing a Timer on the nil
// span, merging a delta — allocates nothing.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *trace.Tracer
	opID := "scan.0"
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span(opID, trace.KindScan)
		tm := sp.Start()
		tm.Done(1024)
		sp.Merge(trace.SpanDelta{WallNS: 5, Rows: 1024, Batches: 1})
		_ = tr.Trace("none")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates: %.1f allocs/op, want 0", allocs)
	}
}
