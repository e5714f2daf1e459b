package webui

import (
	"math"
	"strconv"

	"sqalpel/internal/ftoa"
	"sqalpel/internal/repository"
)

// AppendPoolHead appends the query pool page up to its rows to dst. The
// page is that head, what AppendPoolRows appends for the experiment's
// queries, and TableFoot: byte for byte what html/template writes for the
// page's template, which append_test.go keeps as the oracle.
func AppendPoolHead(dst []byte, data PoolData) []byte {
	exp := data.Experiment
	dst = append(dst, layoutHead+"\n<h1>Query pool — "...)
	dst = appendHTML(dst, data.Project.Name)
	dst = append(dst, " / "...)
	dst = appendHTML(dst, exp.Title)
	dst = append(dst, "</h1>\n<p>"...)
	dst = strconv.AppendInt(dst, int64(len(exp.Queries)), 10)
	return append(dst, ` queries. Strategies: <span class="strategy-alter">alter</span>,
<span class="strategy-expand">expand</span>, <span class="strategy-prune">prune</span>.</p>
<table><tr><th>id</th><th>strategy</th><th>parent</th><th>components</th><th>query</th></tr>
`...)
}

// AppendPoolRows appends the pool page's rows to dst, one per query. They
// change only with the pool, so a caller keeps them between pages.
func AppendPoolRows(dst []byte, queries []repository.QueryRecord) []byte {
	for i := range queries {
		q := &queries[i]
		dst = append(dst, "<tr><td>"...)
		dst = strconv.AppendInt(dst, int64(q.ID), 10)
		dst = append(dst, "</td>"...)
		dst = appendStrategy(dst, q.Strategy)
		dst = append(dst, "\n<td>"...)
		dst = appendParent(dst, q.ParentID)
		dst = append(dst, "</td><td>"...)
		dst = strconv.AppendInt(dst, int64(q.Components), 10)
		dst = append(dst, "</td><td><code>"...)
		dst = appendHTML(dst, q.SQL)
		dst = append(dst, "</code></td></tr>"...)
	}
	return dst
}

// TableFoot closes an appended page after its rows.
const TableFoot = "\n</table>\n" + layoutFoot

// AppendHistory appends the experiment history page to dst, one row per
// point: byte for byte what html/template writes for the page's template,
// which append_test.go keeps as the oracle.
func AppendHistory(dst []byte, data HistoryData) []byte {
	dst = append(dst, layoutHead+"\n<h1>Experiment history — "...)
	dst = appendHTML(dst, data.Project.Name)
	if data.Experiment != nil {
		dst = append(dst, " / "...)
		dst = appendHTML(dst, data.Experiment.Title)
	}
	dst = append(dst, "</h1>\n<p>target: <b>"...)
	dst = appendHTML(dst, data.Target)
	dst = append(dst, "</b>"...)
	if len(data.Targets) > 0 {
		dst = append(dst, " (available: "...)
		for _, t := range data.Targets {
			dst = append(appendHTML(dst, t), ' ')
		}
		dst = append(dst, ')')
	}
	dst = append(dst, `</p>
<table><tr><th>#</th><th>query</th><th>morphed from</th><th>strategy</th><th>components</th><th>time (s)</th></tr>
`...)
	for i := range data.Points {
		pt := &data.Points[i]
		dst = append(dst, "<tr><td>"...)
		dst = strconv.AppendInt(dst, int64(pt.Seq), 10)
		dst = append(dst, "</td><td>"...)
		dst = strconv.AppendInt(dst, int64(pt.QueryID), 10)
		dst = append(dst, "</td><td>"...)
		dst = appendParent(dst, pt.ParentID)
		dst = append(dst, "</td>\n"...)
		dst = appendStrategy(dst, pt.Strategy)
		dst = append(dst, "<td>"...)
		dst = strconv.AppendInt(dst, int64(pt.Components), 10)
		dst = append(dst, "</td>\n<td>"...)
		if pt.IsError {
			dst = append(dst, `<span class="error">error</span>`...)
		} else {
			dst = appendSeconds(dst, pt.Seconds)
		}
		dst = append(dst, "</td></tr>"...)
		if data.Flush != nil {
			dst = data.Flush(dst)
		}
	}
	return append(dst, TableFoot...)
}

// AppendTrace appends the operator-trace page to dst: byte for byte what
// html/template writes for the page's template, which append_test.go keeps
// as the oracle. It is appended because a template pays a reflective call
// per span cell.
func AppendTrace(dst []byte, data TraceData) []byte {
	dst = append(dst, layoutHead+"\n<h1>Operator trace — "...)
	dst = appendHTML(dst, data.Project.Name)
	dst = append(dst, " / query "...)
	dst = strconv.AppendInt(dst, int64(data.QueryID), 10)
	dst = append(dst, "</h1>\n"...)
	if data.SQL != "" {
		dst = append(dst, "<pre>"...)
		dst = appendHTML(dst, data.SQL)
		dst = append(dst, "</pre>"...)
	}
	if len(data.Targets) == 0 {
		dst = append(dst, "\n<p>No traced results for this query yet; run the driver with tracing enabled.</p>\n"...)
		return append(dst, layoutFoot...)
	}
	dst = append(dst, `

<p>Per-operator spans of every traced target, keyed to the shared plan operator ids
(see the EXPLAIN plan-JSON of the query). A dash means the target's execution
strategy has no such operator. Scan spans of the typed engines additionally
report the zone-map blocks they skipped ("+N skipped").</p>
<table><tr><th>operator</th><th>kind</th>`...)
	for _, t := range data.Targets {
		dst = append(dst, "<th>"...)
		dst = appendHTML(dst, t)
		dst = append(dst, " (ms / rows)</th>"...)
	}
	dst = append(dst, "</tr>\n"...)
	for i := range data.Rows {
		row := &data.Rows[i]
		dst = append(dst, "<tr><td><code>"...)
		dst = appendHTML(dst, row.OpID)
		dst = append(dst, "</code></td><td>"...)
		dst = appendHTML(dst, row.Kind)
		dst = append(dst, "</td>\n"...)
		for _, sp := range row.Spans {
			dst = append(dst, "<td>"...)
			if sp == nil {
				dst = append(dst, "—"...)
			} else {
				dst = appendMillis(dst, sp.WallNS)
				dst = append(dst, " / "...)
				dst = strconv.AppendInt(dst, sp.Rows, 10)
				if sp.BlocksSkipped != 0 {
					dst = append(dst, " / +"...)
					dst = strconv.AppendInt(dst, sp.BlocksSkipped, 10)
					dst = append(dst, " skipped"...)
				}
			}
			dst = append(dst, "</td>"...)
		}
		dst = append(dst, "</tr>"...)
	}
	dst = append(dst, "\n</table>\n"...)
	if len(data.Ratios) > 0 {
		a, b := data.Targets[0], data.Targets[1]
		dst = append(dst, "\n<h2>Operator-level ratio: "...)
		dst = appendHTML(dst, a)
		dst = append(dst, " vs "...)
		dst = appendHTML(dst, b)
		dst = append(dst, "</h2>\n<table><tr><th>kind</th><th>"...)
		dst = appendHTML(dst, a)
		dst = append(dst, " (ms)</th><th>"...)
		dst = appendHTML(dst, b)
		dst = append(dst, " (ms)</th><th>ratio</th></tr>\n"...)
		for _, k := range data.Ratios {
			dst = append(dst, "<tr><td>"...)
			dst = appendHTML(dst, k.Kind)
			dst = append(dst, "</td><td>"...)
			dst = appendMillis(dst, k.NanosA)
			dst = append(dst, "</td><td>"...)
			dst = appendMillis(dst, k.NanosB)
			dst = append(dst, "</td><td>"...)
			dst = appendRatio(dst, k.Ratio)
			dst = append(dst, "</td></tr>"...)
		}
		dst = append(dst, "\n</table>\n"...)
	}
	return append(dst, "\n\n"+layoutFoot...)
}

// appendMillis appends nanoseconds as milliseconds, %.3f; a finite value
// has no byte to escape.
func appendMillis(dst []byte, ns int64) []byte {
	return ftoa.AppendFixed(dst, float64(ns)/1e6, 3)
}

// appendRatio appends a ratio as %.2fx, a dash for NaN, the sign of +Inf
// escaped.
func appendRatio(dst []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(dst, "—"...)
	case math.IsInf(v, 1):
		return append(dst, "&#43;Infx"...)
	}
	return append(ftoa.AppendFixed(dst, v, 2), 'x')
}

// appendStrategy appends a strategy cell, coloured by its class.
func appendStrategy(dst []byte, strategy string) []byte {
	dst = append(dst, `<td class="strategy-`...)
	dst = appendHTML(dst, strategy)
	dst = append(dst, `">`...)
	dst = appendHTML(dst, strategy)
	return append(dst, "</td>"...)
}

// appendParent appends a morph's parent id; 0, no parent, appends nothing.
func appendParent(dst []byte, id int) []byte {
	if id == 0 {
		return dst
	}
	return strconv.AppendInt(dst, int64(id), 10)
}

// appendSeconds appends v as the templates' seconds function formats it
// (%.4f) and their escaper writes it: only +Inf has a byte to escape.
func appendSeconds(dst []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(dst, "&#43;Inf"...)
	}
	return ftoa.AppendFixed(dst, v, 4)
}

// htmlEscapes is what html/template's text and quoted-attribute escapers
// write for a byte of a plain string; a byte without an entry is copied.
var htmlEscapes = [256]string{
	0:    "\uFFFD",
	'"':  "&#34;",
	'&':  "&amp;",
	'\'': "&#39;",
	'+':  "&#43;",
	'<':  "&lt;",
	'>':  "&gt;",
}

// appendHTML appends s as html/template escapes a plain string in text and
// in a quoted attribute value. The template decodes runes, but UTF-8 never
// makes an ASCII byte part of a longer sequence, valid or not, so a scan of
// bytes finds the same ones; everything else, invalid UTF-8 too, is copied.
func appendHTML(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		if esc := htmlEscapes[s[i]]; esc != "" {
			dst = append(dst, s[last:i]...)
			dst = append(dst, esc...)
			last = i + 1
		}
	}
	return append(dst, s[last:]...)
}
