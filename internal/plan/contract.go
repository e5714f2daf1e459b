package plan

import (
	"context"
	"errors"
	"fmt"
)

// This file is the execution contract every executor shares beside the
// plan itself: the budget an execution runs under (Limits, resolved once
// at the engine entry) and the counters it reports (Stats). Both executor
// families import this package already, so each exists once.

// Stats are the execution counters of one run; they feed the open-ended
// key/value list the driver reports back to the platform. A counter an
// executor has no notion of stays zero.
type Stats struct {
	RowsScanned int64
	// TuplesMaterialized, IntermediatesMaterialized and GuardCasts count the
	// interpreters' copies: full-width tuple reconstruction (row mode),
	// materialised arithmetic intermediates and their overflow-guarding
	// widening passes (column mode).
	TuplesMaterialized        int64
	IntermediatesMaterialized int64
	GuardCasts                int64
	// FilterPasses counts predicate passes: one per conjunct (and batch, on
	// the typed executor). Conjuncts compiled into a fused scan loop run per
	// row, not per vector, and are not counted.
	FilterPasses int64
	HashJoins    int64
	// JoinBuildRows and JoinProbeRows count the non-NULL-key rows inserted
	// into and probed against hash-join tables (NULL keys can never match
	// and are skipped on both sides, at every worker count).
	JoinBuildRows int64
	JoinProbeRows int64
	LoopJoins     int64
	// SubqueryExecutions counts sub-query evaluations; the typed executor
	// counts one per materialized (uncorrelated or decorrelated) sub-query,
	// probes against the built state are not executions.
	SubqueryExecutions int64
	Groups             int64
	// AggRows counts the rows folded into aggregation groups.
	AggRows      int64
	RowsReturned int64
	// Batches counts the fixed-size batches the typed executor processed;
	// the interpreters always report zero.
	Batches int64
	// BlocksSkipped counts zone-map blocks a scan proved unsatisfiable under
	// its pushed-down predicates and never read; only the typed executor can
	// report a non-zero count, the same one at every worker count.
	BlocksSkipped int64
}

// Add accumulates o into s — the merge step of thread-local morsel
// counters.
func (s *Stats) Add(o Stats) {
	s.RowsScanned += o.RowsScanned
	s.TuplesMaterialized += o.TuplesMaterialized
	s.IntermediatesMaterialized += o.IntermediatesMaterialized
	s.GuardCasts += o.GuardCasts
	s.FilterPasses += o.FilterPasses
	s.HashJoins += o.HashJoins
	s.JoinBuildRows += o.JoinBuildRows
	s.JoinProbeRows += o.JoinProbeRows
	s.LoopJoins += o.LoopJoins
	s.SubqueryExecutions += o.SubqueryExecutions
	s.Groups += o.Groups
	s.AggRows += o.AggRows
	s.RowsReturned += o.RowsReturned
	s.Batches += o.Batches
	s.BlocksSkipped += o.BlocksSkipped
}

// Map renders the stats as the key/value list reported to the platform.
func (s Stats) Map() map[string]int64 {
	return map[string]int64{
		"rows_scanned":               s.RowsScanned,
		"tuples_materialized":        s.TuplesMaterialized,
		"intermediates_materialized": s.IntermediatesMaterialized,
		"guard_casts":                s.GuardCasts,
		"filter_passes":              s.FilterPasses,
		"hash_joins":                 s.HashJoins,
		"join_build_rows":            s.JoinBuildRows,
		"join_probe_rows":            s.JoinProbeRows,
		"loop_joins":                 s.LoopJoins,
		"subquery_executions":        s.SubqueryExecutions,
		"groups":                     s.Groups,
		"agg_rows":                   s.AggRows,
		"rows_returned":              s.RowsReturned,
		"batches":                    s.Batches,
		"blocks_skipped":             s.BlocksSkipped,
	}
}

// The budget errors: generated query variants may drop join predicates and
// explode; executions turn those into errors, matching the error entries of
// the paper's experiment history. Every engine reports the same values
// (errors.Is), whichever executor hit the budget.
var (
	ErrTimeBudget = errors.New("query exceeded its time budget")
	ErrCancelled  = fmt.Errorf("query was cancelled: %w", context.Canceled)
	ErrJoinRows   = errors.New("join exceeds the row limit")
)

// JoinGuard is the guard on intermediate join sizes every execution runs
// under.
const JoinGuard = 4_000_000

// Limits is the budget of one execution: the caller's context and the
// join-size guard. The zero value imposes none.
type Limits struct {
	ctx  context.Context
	done <-chan struct{}
	// MaxJoinRows guards intermediate join sizes; zero means no guard.
	MaxJoinRows int
}

// ResolveLimits turns the caller's context into the budget both executors
// consume: its Done channel (a nil context, or one that can never be done,
// imposes no time budget) and the JoinGuard.
func ResolveLimits(ctx context.Context) Limits {
	l := Limits{MaxJoinRows: JoinGuard}
	if ctx != nil {
		l.ctx, l.done = ctx, ctx.Done()
	}
	return l
}

// Expired returns ErrTimeBudget once the context's deadline has passed and
// ErrCancelled once it was cancelled: a non-blocking channel receive that
// never reads the clock or allocates, the executors' one poll.
func (l Limits) Expired() error {
	select {
	case <-l.done:
	default:
		return nil
	}
	if errors.Is(l.ctx.Err(), context.DeadlineExceeded) {
		return ErrTimeBudget
	}
	return ErrCancelled
}

// JoinRows returns ErrJoinRows when a join has produced n rows and the
// guard allows fewer.
func (l Limits) JoinRows(n int) error {
	if l.MaxJoinRows <= 0 || n <= l.MaxJoinRows {
		return nil
	}
	return fmt.Errorf("%w of %d rows", ErrJoinRows, l.MaxJoinRows)
}

// CrossJoin returns ErrJoinRows when the product of nl x nr rows would
// exceed the guard. It divides before multiplying: nl*nr can wrap around
// before a comparison on pathological inputs.
func (l Limits) CrossJoin(nl, nr int) error {
	if l.MaxJoinRows <= 0 || nl == 0 || nr == 0 || nl <= l.MaxJoinRows/nr {
		return nil
	}
	return fmt.Errorf("%w of %d rows: cross product of %d x %d rows", ErrJoinRows, l.MaxJoinRows, nl, nr)
}
