package vexec

import (
	"time"

	"sqalpel/internal/sqlparser"
	"sqalpel/internal/trace"
)

// This file is everything the data-centric compiled paradigm ("fusil",
// Options.Fused) does differently from the batch-vectorized one: it drives
// the segment between a table and the first pipeline breaker as one
// compiled loop. fusedScanOp stands where scanOp+filterOp stand — the same
// windows, the same zone-map skipping, the same framed batches and
// selection vectors out — but the conjuncts run as per-row closures over
// the table's vectors instead of one vector pass per conjunct. Everything
// above the source is the one operator core.

// cond is one compiled filter conjunct. Compile errors are carried, not
// raised: filterOp only evaluates conjuncts when rows actually reach them,
// so a conjunct over a column that does not exist must not fail a query
// whose pipeline is empty. The error surfaces (deferred to the interpreter)
// at the first row instead.
type cond struct {
	fn  rowFn
	err error
}

// fusedStage is one conjunct list of the fused loop — the pushed-down
// conjuncts, then (single-table FROM) the residual ones — with the span of
// the filterOp it replaces. A split list (its sub-query conjuncts run in a
// filterOp above) shares the span with that filterOp, which records every
// window that reaches it; the stage records only the windows it empties,
// so the span's Rows and Batches are scanOp+filterOp's for the whole list.
type fusedStage struct {
	conds []cond
	span  *trace.Span // nil when tracing is off
	split bool
}

// fusedScanOp pulls windows from its scanOp (which keeps the zone-map run
// segmentation, frame reuse, scan span and scan counters) and runs every
// row through the compiled stages, emitting the window with the survivors
// as its selection vector. Windows without survivors are skipped, like
// filterOp's. The loop's wall time is charged to the scan span — the
// fused pipeline's source — and row counts to every stage the rows passed.
type fusedScanOp struct {
	scan   *scanOp
	stages []fusedStage
	passed []int64 // per stage: rows of the current window that passed it
}

func (f *fusedScanOp) schema() []colMeta { return f.scan.full.meta }

func (f *fusedScanOp) next() (*Batch, error) {
	for {
		b, err := f.scan.next()
		if b == nil || err != nil {
			return nil, err
		}
		var t0 time.Time
		if f.scan.span != nil {
			t0 = time.Now()
		}
		sel := b.selBuf // recycled capacity from a reused frame, if any
		if sel == nil {
			sel = make([]int, 0, b.n)
		}
		b.selBuf = nil
		passed := f.passed
		clear(passed)
		lo := b.base
	rows:
		for r := 0; r < b.n; r++ {
			for k := range f.stages {
				for _, c := range f.stages[k].conds {
					// Conjunct errors — compile-time and runtime alike — defer
					// the statement, like applyConjuncts'; conjuncts behind a
					// rejecting one are not reached.
					if c.err != nil {
						return nil, deferToFallback(c.err)
					}
					v, err := c.fn(lo + r)
					if err != nil {
						return nil, deferToFallback(err)
					}
					//lint:nullsafe consumer collapse: the fused filter rejects UNKNOWN rows, per SQL semantics
					if !v.Bool() {
						continue rows
					}
				}
				passed[k]++
			}
			sel = append(sel, r)
		}
		b.sel = sel
		if f.scan.span != nil {
			f.scan.span.WallNS += time.Since(t0).Nanoseconds()
			// A stage records the batches that enter it: those the stage
			// before left non-empty, which is filterOp's accounting.
			for k := range f.stages {
				if k > 0 && passed[k-1] == 0 {
					break
				}
				if st := &f.stages[k]; !st.split || passed[k] == 0 {
					st.span.Merge(trace.SpanDelta{Rows: passed[k], Batches: 1})
				}
			}
		}
		if len(sel) > 0 {
			return b, nil
		}
	}
}

// fuse moves the conjuncts the closure compiler covers into the fused
// source under child — a bare scan, or the fused scan the pushed-down
// conjuncts already produced — and returns the pipeline, the conjuncts left
// for a filterOp above it (sub-query probes) and the span that filterOp
// records into. A list that fuses whole hands its span to the new stage; a
// split list shares it. The covered conjuncts of a split list run before
// the sub-query ones whatever their source order — results cannot differ
// (a conjunct error defers the statement either way), only which conjunct
// rejects a row first.
func fuse(child operator, conjuncts []sqlparser.Expr, span *trace.Span) (operator, []sqlparser.Expr, *trace.Span) {
	var f *fusedScanOp
	switch o := child.(type) {
	case *fusedScanOp:
		f = o
	case *scanOp:
		f = &fusedScanOp{scan: o}
	default:
		return child, conjuncts, span
	}
	var covered, rest []sqlparser.Expr
	for _, c := range conjuncts {
		if len(sqlparser.Subqueries(c)) > 0 {
			rest = append(rest, c)
		} else {
			covered = append(covered, c)
		}
	}
	if len(covered) == 0 {
		return child, conjuncts, span
	}
	// The closures compile against the scan's full-length columns: they are
	// called with table row numbers, whatever window the scan is on.
	full := f.scan.full
	st := fusedStage{conds: make([]cond, len(covered)), span: span, split: len(rest) > 0}
	for i, c := range covered {
		st.conds[i].fn, st.conds[i].err = compileExpr(c, full)
	}
	if !st.split {
		span = nil
	}
	f.stages = append(f.stages, st)
	f.passed = make([]int64, len(f.stages))
	return f, rest, span
}
