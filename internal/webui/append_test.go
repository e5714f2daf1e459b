package webui

import (
	"bytes"
	"fmt"
	"html/template"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqalpel/internal/analytics"
	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

// templatedPages are the pool, history and trace templates the appenders
// replaced, kept as their oracle with the functions only the trace page
// called (oracleFuncs): an appended page must be the bytes its template
// writes.
var templatedPages = map[string]string{
	"pool": `{{template "layout_head" .}}
<h1>Query pool — {{.Project.Name}} / {{.Experiment.Title}}</h1>
<p>{{len .Experiment.Queries}} queries. Strategies: <span class="strategy-alter">alter</span>,
<span class="strategy-expand">expand</span>, <span class="strategy-prune">prune</span>.</p>
<table><tr><th>id</th><th>strategy</th><th>parent</th><th>components</th><th>query</th></tr>
{{range .Experiment.Queries}}<tr><td>{{.ID}}</td><td class="strategy-{{.Strategy}}">{{.Strategy}}</td>
<td>{{if .ParentID}}{{.ParentID}}{{end}}</td><td>{{.Components}}</td><td><code>{{.SQL}}</code></td></tr>{{end}}
</table>
{{template "layout_foot" .}}`,

	"history": `{{template "layout_head" .}}
<h1>Experiment history — {{.Project.Name}}{{with .Experiment}} / {{.Title}}{{end}}</h1>
<p>target: <b>{{.Target}}</b>{{if .Targets}} (available: {{range .Targets}}{{.}} {{end}}){{end}}</p>
<table><tr><th>#</th><th>query</th><th>morphed from</th><th>strategy</th><th>components</th><th>time (s)</th></tr>
{{range .Points}}<tr><td>{{.Seq}}</td><td>{{.QueryID}}</td><td>{{if .ParentID}}{{.ParentID}}{{end}}</td>
<td class="strategy-{{.Strategy}}">{{.Strategy}}</td><td>{{.Components}}</td>
<td>{{if .IsError}}<span class="error">error</span>{{else}}{{seconds .Seconds}}{{end}}</td></tr>{{end}}
</table>
{{template "layout_foot" .}}`,

	"trace": `{{template "layout_head" .}}
<h1>Operator trace — {{.Project.Name}} / query {{.QueryID}}</h1>
{{if .SQL}}<pre>{{.SQL}}</pre>{{end}}
{{if not .Targets}}<p>No traced results for this query yet; run the driver with tracing enabled.</p>{{else}}
<p>Per-operator spans of every traced target, keyed to the shared plan operator ids
(see the EXPLAIN plan-JSON of the query). A dash means the target's execution
strategy has no such operator. Scan spans of the typed engines additionally
report the zone-map blocks they skipped ("+N skipped").</p>
<table><tr><th>operator</th><th>kind</th>{{range .Targets}}<th>{{.}} (ms / rows)</th>{{end}}</tr>
{{range .Rows}}<tr><td><code>{{.OpID}}</code></td><td>{{.Kind}}</td>
{{range .Spans}}<td>{{if .}}{{millis .WallNS}} / {{.Rows}}{{if .BlocksSkipped}} / +{{.BlocksSkipped}} skipped{{end}}{{else}}—{{end}}</td>{{end}}</tr>{{end}}
</table>
{{if .Ratios}}{{$a := index .Targets 0}}{{$b := index .Targets 1}}
<h2>Operator-level ratio: {{$a}} vs {{$b}}</h2>
<table><tr><th>kind</th><th>{{$a}} (ms)</th><th>{{$b}} (ms)</th><th>ratio</th></tr>
{{range .Ratios}}<tr><td>{{.Kind}}</td><td>{{millis .NanosA}}</td><td>{{millis .NanosB}}</td><td>{{ratio .Ratio}}</td></tr>{{end}}
</table>
{{end}}
{{end}}
{{template "layout_foot" .}}`,

	"cells": `<td>{{.}}</td><td class="s-{{.}}">`,

	"seconds": `<td>{{seconds .}}</td>`,
}

// oracleFuncs are the template functions of the trace page.
var oracleFuncs = template.FuncMap{
	"millis": func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) },
	"ratio": func(v float64) string {
		if math.IsNaN(v) {
			return "—"
		}
		return fmt.Sprintf("%.2fx", v)
	},
}

// oracle returns the renderer's template set with templatedPages added.
func oracle(t testing.TB) *template.Template {
	t.Helper()
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	set, err := r.tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	set.Funcs(oracleFuncs)
	//lint:ordered each oracle page parses into its own named template of one set
	for name, text := range templatedPages {
		if _, err := set.New(name).Parse(text); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

func execute(t testing.TB, set *template.Template, name string, data any) string {
	t.Helper()
	var b strings.Builder
	if err := set.ExecuteTemplate(&b, name, data); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// poolPage is the pool page as a server writes it: the head, the rows and
// the foot.
func poolPage(data PoolData) string {
	return string(AppendPoolRows(AppendPoolHead(nil, data), data.Experiment.Queries)) + TableFoot
}

// escapeSeeds are strings with every byte html/template rewrites, invalid
// UTF-8, line separators and the noncharacters its unquoted-attribute
// escaper would rewrite.
var escapeSeeds = []string{
	"",
	"plain",
	"a+b 'q' \"d\" <script>alert(1)</script> & \x00",
	"\xff\xfe\xc3<\xe2\x80",
	"\u2028\u2029 é \ufdd0 \ufffe \uffff \U0001F600",
	"&amp;&#43;\x00\x00",
	"SELECT l_quantity + 1 FROM lineitem WHERE l_comment LIKE '%a%'",
}

// FuzzPageEscape holds appendHTML to html/template: for any string it must
// write what the template writes for it as text and inside a quoted
// attribute value.
func FuzzPageEscape(f *testing.F) {
	for _, s := range escapeSeeds {
		f.Add(s)
	}
	set := oracle(f)
	f.Fuzz(func(t *testing.T, s string) {
		esc := string(appendHTML(nil, s))
		want := execute(t, set, "cells", s)
		if got := "<td>" + esc + `</td><td class="s-` + esc + `">`; got != want {
			t.Fatalf("appendHTML(%q) = %q; html/template writes %q", s, got, want)
		}
	})
}

// TestSecondsMatchTemplate holds appendSeconds to the templates' seconds
// function for the boundaries of %.4f, the infinities, NaN, negative zero
// and random values of every magnitude.
func TestSecondsMatchTemplate(t *testing.T) {
	set := oracle(t)
	values := []float64{
		0, math.Copysign(0, -1), 1e-7, 0.00004999, 0.00005, 0.25, 9.99995, 123456.123456789,
		1e21, -1e21, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		values = append(values, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(30)-15)))
	}
	for _, v := range values {
		if got, want := "<td>"+string(appendSeconds(nil, v))+"</td>", execute(t, set, "seconds", v); got != want {
			t.Fatalf("appendSeconds(%v) = %q; the template writes %q", v, got, want)
		}
	}
}

// randomText draws a string from hostile pieces.
func randomText(rng *rand.Rand) string {
	pieces := append([]string{"x", " ", "\n", "SELECT", "42"}, escapeSeeds...)
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestAppendedPagesMatchTemplates renders random pools and histories —
// hostile text everywhere, ids and parents of every sign, timed and failed
// points, with and without targets and experiments — through the appenders
// and through the templates they replaced, which must agree byte for byte.
// Every history page is appended a second time through a Flush that takes
// each piece away; the pieces must make up the same page.
func TestAppendedPagesMatchTemplates(t *testing.T) {
	set := oracle(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		p := &repository.Project{Name: randomText(rng)}
		exp := &repository.Experiment{Title: randomText(rng)}
		hist := HistoryData{Project: p, Target: randomText(rng)}
		if rng.Intn(4) > 0 {
			hist.Experiment = exp
		}
		for n := rng.Intn(3); n > 0; n-- {
			hist.Targets = append(hist.Targets, randomText(rng))
		}
		for n := rng.Intn(8); n > 0; n-- {
			exp.Queries = append(exp.Queries, repository.QueryRecord{
				ID: rng.Intn(2000) - 5, SQL: randomText(rng), Strategy: randomText(rng),
				ParentID: rng.Intn(5) - 1, Components: rng.Intn(40) - 2,
			})
			hist.Points = append(hist.Points, analytics.HistoryPoint{
				Seq: rng.Intn(100), QueryID: rng.Intn(2000) - 5, ParentID: rng.Intn(5) - 1,
				Strategy: randomText(rng), Components: rng.Intn(40), IsError: rng.Intn(3) == 0,
				Seconds: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(8)-5)),
			})
		}
		pool := PoolData{Project: p, Experiment: exp}
		if got, want := poolPage(pool), execute(t, set, "pool", pool); got != want {
			t.Fatalf("pool page %d:\n%q\nthe template writes\n%q", i, got, want)
		}
		if got, want := string(AppendHistory(nil, hist)), execute(t, set, "history", hist); got != want {
			t.Fatalf("history page %d:\n%q\nthe template writes\n%q", i, got, want)
		}

		var pieces bytes.Buffer
		flush := func(b []byte) []byte {
			pieces.Write(b)
			return b[:0]
		}
		hist.Flush = flush
		pieces.Write(AppendHistory(nil, hist))
		hist.Flush = nil
		if want := string(AppendHistory(nil, hist)); pieces.String() != want {
			t.Fatalf("history page %d written in pieces differs from the whole page", i)
		}
	}
}

// randomTrace draws a trace page: hostile text everywhere, zero to four
// targets, cells missing or with wall times, rows and skipped blocks of
// every sign, and a ratio table of finite, infinite and NaN ratios when
// there are two targets or more.
func randomTrace(rng *rand.Rand) TraceData {
	int64s := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return int64(rng.Uint64())
		}
		return rng.Int63n(1e10) - 1e9
	}
	data := TraceData{Project: &repository.Project{Name: randomText(rng)}, QueryID: rng.Intn(2000) - 5}
	if rng.Intn(3) > 0 {
		data.SQL = randomText(rng)
	}
	for n := rng.Intn(5); n > 0; n-- {
		data.Targets = append(data.Targets, randomText(rng))
	}
	for n := rng.Intn(6); n > 0; n-- {
		row := trace.CompareRow{OpID: randomText(rng), Kind: randomText(rng)}
		for range data.Targets {
			var sp *trace.Span
			if rng.Intn(4) > 0 {
				sp = &trace.Span{WallNS: int64s(), Rows: int64s(), BlocksSkipped: int64s()}
			}
			row.Spans = append(row.Spans, sp)
		}
		data.Rows = append(data.Rows, row)
	}
	if len(data.Targets) >= 2 {
		data.Ratios = trace.KindRatios(data.Rows)
		for n := rng.Intn(4); n > 0; n-- {
			ratio := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-6))}[rng.Intn(5)]
			data.Ratios = append(data.Ratios, trace.KindRatio{Kind: randomText(rng), NanosA: int64s(), NanosB: int64s(), Ratio: ratio})
		}
	}
	return data
}

// TestTracePageMatchesTemplate renders random trace pages through
// AppendTrace and through the template it replaced, which must agree byte
// for byte.
func TestTracePageMatchesTemplate(t *testing.T) {
	set := oracle(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		data := randomTrace(rng)
		if got, want := string(AppendTrace(nil, data)), execute(t, set, "trace", data); got != want {
			t.Fatalf("trace page %d:\n%q\nthe template writes\n%q", i, got, want)
		}
	}
}
