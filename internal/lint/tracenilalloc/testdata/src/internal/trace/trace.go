// Package trace is the tracenilalloc fixture stub: the Tracer/Span seam
// and the operator-id table, shaped like the real internal/trace surface.
package trace

// Kind labels a span's operator family.
type Kind string

const (
	KindScan Kind = "scan"
	KindSort Kind = "sort"
)

// Tracer collects spans; a nil Tracer means tracing is disabled.
type Tracer struct{ spans map[string]*Span }

// Span is one operator's measurement.
type Span struct{}

// Span returns the span for an operator id (nil-safe on the Tracer, but it
// still runs on every call).
func (t *Tracer) Span(id string, kind Kind) *Span {
	if t == nil {
		return nil
	}
	return &Span{}
}

// Start begins timing (nil-safe consumer).
func (s *Span) Start() Timer { return Timer{} }

// Timer measures one operator activation.
type Timer struct{}

// Done records the elapsed time (nil-safe consumer).
func (tm Timer) Done(rows int64) {}

// Stmt stands in for a parsed SELECT core.
type Stmt struct{}

// Ops are the operator ids of one core.
type Ops struct {
	Inputs []string
	Sort   string
}

// IDs maps each numbered core to its operator ids.
type IDs map[*Stmt]*Ops

// NewIDs builds the operator-id table: one map and one string per operator.
func NewIDs(root *Stmt) IDs { return IDs{root: {Inputs: []string{"scan.0"}, Sort: "sort"}} }
