// Package trace is the per-operator observability plane shared by all four
// execution paradigms. It provides three things:
//
//   - a stable operator-id scheme derived purely from the logical plan
//     (ids.go): NewIDs numbers a plan's operators in one walk, and the
//     interpreters and the batch-vectorized executor look their span ids up
//     in its table, so they label the same logical operator with the same
//     id;
//   - EXPLAIN plan-JSON (explain.go): a schema-versioned JSON rendering of
//     the physical plan, read from the same table;
//   - the Tracer/Span runtime seam: per-operator wall time, row counts,
//     batch, call and skipped-block counts, collected into one QueryTrace
//     per execution and comparable across engines because the span ids
//     come from the shared plan.
//
// The seam is zero-cost when disabled: every operator holds a *Span that is
// nil when no Tracer is installed, and the hot paths guard on that nil with
// no allocation and no function call. Morsel-parallel operators never write
// spans from workers; they accumulate SpanDelta values per morsel and merge
// them in morsel order on the coordinator, the same discipline the parallel
// executor uses for its Stats, so traces are bit-identical at every worker
// count.
package trace

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"sqalpel/internal/jsonenc"
)

// SchemaVersion versions both the plan-JSON document and the QueryTrace wire
// form. Bump it when the operator-id scheme or the span fields change
// incompatibly; golden files regenerate against the new version.
const SchemaVersion = 1

// MeasurementExtraKey is the reserved extra key through which an execution
// target hands its serialized QueryTrace to metrics.MeasureContext (the same
// reserved-key pattern as metrics.SimulatedDurationKey). The measurement
// layer consumes the key into Measurement.Trace instead of recording it.
const MeasurementExtraKey = "sqalpel_trace_json"

// Span kinds, matching the plan-JSON operator kinds.
const (
	KindScan     = "scan"
	KindDerived  = "derived"
	KindJoinTree = "join-tree"
	KindFilter   = "filter"
	KindHashJoin = "hash-join"
	KindCross    = "cross-join"
	KindAgg      = "aggregate"
	KindProject  = "project"
	KindDistinct = "distinct"
	KindSort     = "sort"
	KindLimit    = "limit"
	KindSubquery = "subquery"
	KindSet      = "set"
)

// Span accumulates the counters of one operator over one traced execution.
// Operators that run once per query (joins, aggregation, sort) record Calls
// and wall time per application; streaming operators (scan, filter) record
// Rows and Batches per batch. A span is owned by a single execution and
// written without synchronization — morsel workers contribute through
// SpanDelta merges on the coordinator instead.
type Span struct {
	OpID string `json:"op"`
	Kind string `json:"kind"`
	// WallNS is the cumulative wall time spent in the operator, inclusive
	// of nested work (a sub-query evaluated inside a filter predicate
	// counts under both its own span and the filter's).
	WallNS int64 `json:"wall_ns"`
	// Rows is the operator's cumulative output row count.
	Rows int64 `json:"rows"`
	// Batches counts the batches (or morsels) a streaming operator
	// processed; zero for one-shot operators and for the interpreters.
	Batches int64 `json:"batches,omitempty"`
	// Calls counts one-shot applications and sub-query evaluations.
	Calls int64 `json:"calls,omitempty"`
	// AllocBytes is no longer measured; it is kept so that stored and
	// in-flight traces that carry heap bytes of one-shot applications
	// decode and re-encode with them.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// BlocksSkipped counts the zone-map blocks a scan proved unsatisfiable
	// and never visited; zero for engines without zone maps. Deterministic
	// at every worker count (the skip decision depends only on the table's
	// block statistics and the pushed-down conjuncts).
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
}

// SpanDelta is a thread-local span contribution accumulated by one morsel
// worker and merged into the shared Span by the coordinator, in morsel
// order.
type SpanDelta struct {
	WallNS        int64
	Rows          int64
	Batches       int64
	BlocksSkipped int64
}

// Merge folds a morsel-local delta into the span; safe on a nil span so
// callers can merge unconditionally.
func (s *Span) Merge(d SpanDelta) {
	if s == nil {
		return
	}
	s.WallNS += d.WallNS
	s.Rows += d.Rows
	s.Batches += d.Batches
	s.BlocksSkipped += d.BlocksSkipped
}

// Timer measures the wall time of one one-shot operator application. A
// Timer started from a nil span is inert, so call sites need no second
// nil-check.
type Timer struct {
	span  *Span
	start time.Time
}

// Start opens a timing window on the span; on a nil span it returns an
// inert Timer without touching the clock.
func (s *Span) Start() Timer {
	if s == nil {
		return Timer{}
	}
	return Timer{span: s, start: time.Now()}
}

// Done closes the window, attributing the elapsed wall time and the given
// output row count to the span.
func (t Timer) Done(rows int64) {
	if t.span == nil {
		return
	}
	t.span.WallNS += time.Since(t.start).Nanoseconds()
	t.span.Rows += rows
	t.span.Calls++
}

// Tracer collects the operator spans of one execution. A nil *Tracer is the
// disabled state: Span returns nil, operators see nil spans, and the hot
// paths reduce to one pointer comparison.
type Tracer struct {
	mu    sync.Mutex
	spans map[string]*Span
}

// NewTracer returns an empty, enabled tracer for one execution.
func NewTracer() *Tracer {
	return &Tracer{spans: map[string]*Span{}}
}

// Span returns the span registered under the operator id, creating it on
// first sight. On a nil tracer it returns nil, which is what disables the
// whole seam.
func (t *Tracer) Span(opID, kind string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.spans[opID]
	if !ok {
		sp = &Span{OpID: opID, Kind: kind}
		t.spans[opID] = sp
	}
	return sp
}

// Reset drops all collected spans; the vektor adapter calls it before
// re-running a query on the interpreter fallback so an aborted vectorized
// attempt cannot pollute the interpreter's trace.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = map[string]*Span{}
}

// Trace snapshots the collected spans into a QueryTrace, sorted by operator
// id so traces of different engines align row by row.
func (t *Tracer) Trace(engine string) *QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	qt := &QueryTrace{SchemaVersion: SchemaVersion, Engine: engine}
	for _, sp := range t.spans {
		qt.Spans = append(qt.Spans, *sp)
	}
	sort.Slice(qt.Spans, func(a, b int) bool { return qt.Spans[a].OpID < qt.Spans[b].OpID })
	return qt
}

// QueryTrace is the serializable operator-span tree of one execution,
// keyed by the plan's operator ids.
type QueryTrace struct {
	SchemaVersion int    `json:"schema_version"`
	Engine        string `json:"engine,omitempty"`
	Spans         []Span `json:"spans"`
}

// JSON renders the trace compactly for the measurement extra channel and
// the driver wire format: what json.Marshal writes for it, appended field
// by field instead of by reflection. The error is always nil.
func (qt *QueryTrace) JSON() ([]byte, error) {
	if qt == nil {
		return []byte("null"), nil
	}
	b := make([]byte, 0, 64+112*len(qt.Spans))
	b = append(b, `{"schema_version":`...)
	b = strconv.AppendInt(b, int64(qt.SchemaVersion), 10)
	if qt.Engine != "" {
		b = append(b, `,"engine":`...)
		b = jsonenc.AppendString(b, qt.Engine)
	}
	if qt.Spans == nil {
		return append(b, `,"spans":null}`...), nil
	}
	b = append(b, `,"spans":[`...)
	for i := range qt.Spans {
		sp := &qt.Spans[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":`...)
		b = jsonenc.AppendString(b, sp.OpID)
		b = append(b, `,"kind":`...)
		b = jsonenc.AppendString(b, sp.Kind)
		b = append(b, `,"wall_ns":`...)
		b = strconv.AppendInt(b, sp.WallNS, 10)
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, sp.Rows, 10)
		for _, f := range [...]struct {
			key string
			v   int64
		}{{`,"batches":`, sp.Batches}, {`,"calls":`, sp.Calls}, {`,"alloc_bytes":`, sp.AllocBytes}, {`,"blocks_skipped":`, sp.BlocksSkipped}} {
			if f.v != 0 {
				b = append(b, f.key...)
				b = strconv.AppendInt(b, f.v, 10)
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// ParseTrace decodes a QueryTrace from its JSON form: what json.Unmarshal
// makes of data, with its error. Canonical bytes (ScanCanonical), which is
// what JSON writes for a trace whose strings hold no <, > or &, are read
// by the scan instead of by encoding/json.
func ParseTrace(data []byte) (*QueryTrace, error) {
	if qt := new(QueryTrace); ScanCanonical(data, qt) {
		return qt, nil
	}
	var qt QueryTrace
	if err := json.Unmarshal(data, &qt); err != nil {
		return nil, err
	}
	return &qt, nil
}

// Span returns the span with the given operator id, or nil.
//
//lint:api a span by operator id, the lookup the paper benchmarks and trace tests read spans with
func (qt *QueryTrace) Span(opID string) *Span {
	if qt == nil {
		return nil
	}
	for i := range qt.Spans {
		if qt.Spans[i].OpID == opID {
			return &qt.Spans[i]
		}
	}
	return nil
}

// CompareRow aligns the spans of several traces on one operator id; Spans
// is parallel to the traces handed to Compare, nil where a trace has no
// span for the operator.
type CompareRow struct {
	OpID  string
	Kind  string
	Spans []*Span
}

// Compare aligns several traces (typically one per engine) by operator id:
// the union of all ids, sorted, one row per id. Nil traces are allowed and
// contribute no spans.
func Compare(traces []*QueryTrace) []CompareRow {
	byID := map[string]*CompareRow{}
	var ids []string
	for ti, qt := range traces {
		if qt == nil {
			continue
		}
		for i := range qt.Spans {
			sp := &qt.Spans[i]
			row, ok := byID[sp.OpID]
			if !ok {
				row = &CompareRow{OpID: sp.OpID, Kind: sp.Kind, Spans: make([]*Span, len(traces))}
				byID[sp.OpID] = row
				ids = append(ids, sp.OpID)
			}
			row.Spans[ti] = sp
		}
	}
	sort.Strings(ids)
	out := make([]CompareRow, 0, len(ids))
	for _, id := range ids {
		out = append(out, *byID[id])
	}
	return out
}

// KindRatio is one row of the operator-level attribution table: the
// wall-clock time two traces spent in one operator kind. It pushes the
// paper's query-level performance ratio one level down: instead of "query Q
// is 3x faster on B", it says which kind of operator the difference lives in.
type KindRatio struct {
	Kind string
	// NanosA and NanosB are the summed span wall times of the two traces.
	NanosA int64
	NanosB int64
	// Ratio is NanosA/NanosB; NaN when either side is zero.
	Ratio float64
}

// KindRatios sums the compare rows' first two spans per operator kind and
// ranks the kinds by how lopsided the ratio is, max(r, 1/r) descending; NaN
// rows come last and ties break on the kind, so the table is a function of
// the rows alone. A missing span adds nothing to its side.
func KindRatios(rows []CompareRow) []KindRatio {
	var out []KindRatio
	at := map[string]int{}
	for _, row := range rows {
		i, ok := at[row.Kind]
		if !ok {
			i = len(out)
			at[row.Kind] = i
			out = append(out, KindRatio{Kind: row.Kind})
		}
		r := &out[i]
		if sa := row.Spans[0]; sa != nil {
			r.NanosA += sa.WallNS
		}
		if sb := row.Spans[1]; sb != nil {
			r.NanosB += sb.WallNS
		}
	}
	for i := range out {
		r := &out[i]
		r.Ratio = math.NaN()
		if r.NanosA > 0 && r.NanosB > 0 {
			r.Ratio = float64(r.NanosA) / float64(r.NanosB)
		}
	}
	lopsided := func(r float64) float64 {
		if math.IsNaN(r) {
			return 0
		}
		return math.Max(r, 1/r)
	}
	sort.Slice(out, func(i, j int) bool {
		li, lj := lopsided(out[i].Ratio), lopsided(out[j].Ratio)
		if li != lj {
			return li > lj
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
