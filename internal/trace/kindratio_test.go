package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"sqalpel/internal/trace"
)

// TestKindRatios covers the per-kind sums, the NaN rule and the lopsided
// ordering of the operator-level attribution table.
func TestKindRatios(t *testing.T) {
	span := func(kind string, ns int64) *trace.Span { return &trace.Span{Kind: kind, WallNS: ns} }
	row := func(kind string, a, b *trace.Span) trace.CompareRow {
		return trace.CompareRow{OpID: kind, Kind: kind, Spans: []*trace.Span{a, b}}
	}
	for _, tc := range []struct {
		name string
		rows []trace.CompareRow
		want string // kind:nanosA/nanosB:ratio, in rank order
	}{
		{"empty", nil, ""},
		{
			"spans of one kind sum",
			[]trace.CompareRow{row("scan", span("scan", 300), span("scan", 100)), row("scan", span("scan", 100), span("scan", 100))},
			"scan:400/200:2",
		},
		{
			// The interpreters have no pushdown filter span: its time counts on
			// the side that has it and the other side adds nothing.
			"span missing on one side",
			[]trace.CompareRow{row("filter", span("filter", 50), nil), row("filter", span("filter", 50), span("filter", 25))},
			"filter:100/25:4",
		},
		{
			"missing everywhere on one side is NaN",
			[]trace.CompareRow{row("sort", nil, span("sort", 10))},
			"sort:0/10:NaN",
		},
		{
			"zero wall time is NaN",
			[]trace.CompareRow{row("project", span("project", 0), span("project", 7)), row("limit", span("limit", 7), span("limit", 0))},
			"limit:7/0:NaN project:0/7:NaN",
		},
		{
			// max(r, 1/r) ranks: 1/8 before 4 before 2; NaN rows come last,
			// ties break on the kind.
			"lopsided order, NaN last, ties on kind",
			[]trace.CompareRow{
				row("scan", span("scan", 200), span("scan", 100)),
				row("aggregate", nil, span("aggregate", 5)),
				row("join", span("join", 10), span("join", 80)),
				row("filter", span("filter", 400), span("filter", 100)),
				row("sort", span("sort", 100), span("sort", 25)),
				row("distinct", span("distinct", 0), span("distinct", 3)),
			},
			"join:10/80:0.125 filter:400/100:4 sort:100/25:4 scan:200/100:2 aggregate:0/5:NaN distinct:0/3:NaN",
		},
	} {
		var got []string
		for _, r := range trace.KindRatios(tc.rows) {
			got = append(got, fmt.Sprintf("%s:%d/%d:%v", r.Kind, r.NanosA, r.NanosB, r.Ratio))
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s: KindRatios = %s, want %s", tc.name, g, tc.want)
		}
	}
}
