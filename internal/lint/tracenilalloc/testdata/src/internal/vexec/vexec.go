// Package vexec is the tracenilalloc fixture executor: every guard form
// the analyzer recognises, and the unguarded shapes it must flag.
package vexec

import "internal/trace"

type executor struct {
	tracer *trace.Tracer
	ids    trace.IDs
}

// newTable: the table is built under the tracer's nil-check.
func (ex *executor) newTable(root *trace.Stmt) {
	if ex.tracer != nil {
		ex.ids = trace.NewIDs(root)
	}
}

// directGuard: the plain tracer nil-check dominates the call.
func (ex *executor) directGuard() {
	if ex.tracer != nil {
		ex.tracer.Span("scan.0", trace.KindScan).Start()
	}
}

// opsGuard: a core's operator ids exist only while tracing.
func (ex *executor) opsGuard(stmt *trace.Stmt) {
	var tm trace.Timer
	if o := ex.ids[stmt]; o != nil {
		tm = ex.tracer.Span(o.Sort, trace.KindSort).Start()
	}
	tm.Done(0)
}

// conjoinedGuard: the nil-check may be one conjunct of the condition.
func (ex *executor) conjoinedGuard(o *trace.Ops, n int) {
	if o != nil && n > 0 {
		ex.tracer.Span(o.Inputs[0], trace.KindScan)
	}
}

// earlyOut: an inverted guard whose body returns protects the rest.
func (ex *executor) earlyOut(root *trace.Stmt) {
	if ex.tracer == nil {
		return
	}
	ex.ids = trace.NewIDs(root)
	ex.tracer.Span("scan.1", trace.KindScan)
}

// invertedOps: a nil-equals check on the ids + return is the same dominance.
func (ex *executor) invertedOps(o *trace.Ops) {
	if o == nil {
		return
	}
	ex.tracer.Span(o.Sort, trace.KindSort)
}

// elseGuard: the else branch of a nil-equals condition is the traced arm.
func (ex *executor) elseGuard(o *trace.Ops) {
	if o == nil {
		return
	} else {
		ex.tracer.Span(o.Sort, trace.KindSort)
	}
}

// unguardedSpan consults the tracer on every call, traced or not — the
// disabled-path regression the analyzer exists for.
func (ex *executor) unguardedSpan(o *trace.Ops) {
	ex.tracer.Span(o.Inputs[0], trace.KindScan) // want `ex.tracer.Span outside a tracer nil-check`
}

// unguardedTable: building the table on the untraced path.
func (ex *executor) unguardedTable(root *trace.Stmt) {
	ex.ids = trace.NewIDs(root) // want `trace.NewIDs outside a tracer nil-check`
}

// wrongGuard: a condition unrelated to tracing does not count, and neither
// does a check on the table map itself.
func (ex *executor) wrongGuard(o *trace.Ops, n int) {
	if n > 0 {
		ex.tracer.Span(o.Inputs[n], trace.KindScan) // want `ex.tracer.Span outside a tracer nil-check`
	}
	if ex.ids != nil {
		ex.tracer.Span(o.Sort, trace.KindSort) // want `ex.tracer.Span outside a tracer nil-check`
	}
}

// suppressed documents a deliberate unguarded call.
func (ex *executor) suppressed(root *trace.Stmt) trace.IDs {
	//lint:tracealloc built once per traced execution by the caller's contract
	return trace.NewIDs(root)
}

// nilSafeConsumers: Start/Done run unguarded by design and are not
// matched.
func (ex *executor) nilSafeConsumers(sp *trace.Span) {
	tm := sp.Start()
	tm.Done(42)
}
