// Package webui renders the server-side HTML pages of the sqalpel platform:
// the project index, the project page with its synopsis and experiments, the
// grammar page (the demo's "query sqalpel" screen), the query-pool page with
// its steering controls, the experiment-history page with morph annotations,
// the query-differential page, and the operator-trace page that lays the
// span trees of every traced target side by side, keyed to the shared plan
// operator ids. Pages are generated on the server, as in the paper's
// prototype; no JavaScript framework is required to inspect a project.
package webui

import (
	"fmt"
	"html/template"
	"io"
	"math"

	"sqalpel/internal/analytics"
	"sqalpel/internal/catalog"
	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

// Renderer renders the HTML pages from pre-parsed templates.
type Renderer struct {
	tmpl *template.Template
}

// New parses the built-in templates.
func New() (*Renderer, error) {
	t := template.New("sqalpel").Funcs(template.FuncMap{
		"seconds": func(v float64) string { return fmt.Sprintf("%.4f", v) },
		"millis":  func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) },
		"ratio": func(v float64) string {
			if math.IsNaN(v) {
				return "—"
			}
			return fmt.Sprintf("%.2fx", v)
		},
	})
	var err error
	//lint:ordered each page parses into its own named template of one set; ExecuteTemplate looks pages up by name
	for name, text := range pages {
		t, err = t.New(name).Parse(text)
		if err != nil {
			return nil, fmt.Errorf("parsing template %s: %w", name, err)
		}
	}
	return &Renderer{tmpl: t}, nil
}

// IndexData feeds the landing page.
type IndexData struct {
	Viewer    string
	Projects  []*repository.Project
	DBMS      []catalog.DBMS
	Platforms []catalog.Platform
}

// ProjectData feeds the project page.
type ProjectData struct {
	Viewer   string
	Project  *repository.Project
	Results  []*repository.Result
	Comments []*repository.Comment
	Tasks    []*repository.Task
}

// GrammarData feeds the grammar ("query sqalpel") page.
type GrammarData struct {
	Project    *repository.Project
	Experiment *repository.Experiment
}

// PoolData feeds the query pool page.
type PoolData struct {
	Project    *repository.Project
	Experiment *repository.Experiment
}

// HistoryData feeds the experiment history page.
type HistoryData struct {
	Project *repository.Project
	Target  string
	Targets []string
	Points  []analytics.HistoryPoint
}

// DiffData feeds the query differential page.
type DiffData struct {
	Project *repository.Project
	Diff    analytics.Differential
	SQLA    string
	SQLB    string
}

// TraceData feeds the operator-trace page: one query's per-operator span
// trees on every traced target, laid side by side keyed to the shared plan
// operator ids, plus the operator-level ratio table between the first two
// targets.
type TraceData struct {
	Project *repository.Project
	QueryID int
	SQL     string
	// Targets are the traced target labels; Rows[i].Spans is parallel to it.
	Targets []string
	Rows    []trace.CompareRow
	// Ratios is trace.KindRatios of Rows: Targets[0] against Targets[1];
	// empty when fewer than two targets carry traces.
	Ratios []trace.KindRatio
}

// Index renders the landing page.
func (r *Renderer) Index(w io.Writer, data IndexData) error {
	return r.tmpl.ExecuteTemplate(w, "index", data)
}

// Project renders the project page.
func (r *Renderer) Project(w io.Writer, data ProjectData) error {
	return r.tmpl.ExecuteTemplate(w, "project", data)
}

// Grammar renders the grammar page.
func (r *Renderer) Grammar(w io.Writer, data GrammarData) error {
	return r.tmpl.ExecuteTemplate(w, "grammar", data)
}

// Pool renders the query pool page.
func (r *Renderer) Pool(w io.Writer, data PoolData) error {
	return r.tmpl.ExecuteTemplate(w, "pool", data)
}

// History renders the experiment history page.
func (r *Renderer) History(w io.Writer, data HistoryData) error {
	return r.tmpl.ExecuteTemplate(w, "history", data)
}

// Diff renders the query differential page.
func (r *Renderer) Diff(w io.Writer, data DiffData) error {
	return r.tmpl.ExecuteTemplate(w, "diff", data)
}

// Trace renders the operator-trace page.
func (r *Renderer) Trace(w io.Writer, data TraceData) error {
	return r.tmpl.ExecuteTemplate(w, "trace", data)
}

// pages holds the HTML templates, keyed by name.
var pages = map[string]string{
	"layout_head": `<!DOCTYPE html>
<html><head><title>sqalpel</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #bbb; padding: 0.3em 0.7em; text-align: left; }
pre { background: #f4f4f4; padding: 1em; overflow-x: auto; }
.strategy-baseline { color: #444; }
.strategy-random { color: #888; }
.strategy-alter { color: purple; }
.strategy-expand { color: green; }
.strategy-prune { color: blue; }
.error { color: #b58900; font-weight: bold; }
nav a { margin-right: 1em; }
</style></head><body>
<nav><a href="/">projects</a><a href="/catalog">catalogs</a></nav>`,

	"layout_foot": `</body></html>`,

	"index": `{{template "layout_head" .}}
<h1>sqalpel — a database performance platform</h1>
{{if .Viewer}}<p>signed in as <b>{{.Viewer}}</b></p>{{else}}<p>browsing anonymously; register via the API to create projects</p>{{end}}
<h2>Projects</h2>
<table><tr><th>id</th><th>name</th><th>owner</th><th>visibility</th><th>experiments</th></tr>
{{range .Projects}}<tr><td>{{.ID}}</td><td><a href="/projects/{{.ID}}">{{.Name}}</a></td><td>{{.Owner}}</td>
<td>{{if .Public}}public{{else}}private{{end}}</td><td>{{len .Experiments}}</td></tr>{{end}}
</table>
<h2>DBMS catalog</h2>
<table><tr><th>name</th><th>version</th><th>vendor</th><th>dialect</th><th>description</th></tr>
{{range .DBMS}}<tr><td>{{.Name}}</td><td>{{.Version}}</td><td>{{.Vendor}}</td><td>{{.Dialect}}</td><td>{{.Description}}</td></tr>{{end}}
</table>
<h2>Platform catalog</h2>
<table><tr><th>name</th><th>cpu</th><th>cores</th><th>memory (GB)</th><th>description</th></tr>
{{range .Platforms}}<tr><td>{{.Name}}</td><td>{{.CPU}}</td><td>{{.Cores}}</td><td>{{.MemoryGB}}</td><td>{{.Description}}</td></tr>{{end}}
</table>
{{template "layout_foot" .}}`,

	"project": `{{template "layout_head" .}}
<h1>Project: {{.Project.Name}}</h1>
<p>{{.Project.Synopsis}}</p>
{{if .Project.Attribution}}<p><i>Attribution: {{.Project.Attribution}}</i></p>{{end}}
<p>owner <b>{{.Project.Owner}}</b> — {{if .Project.Public}}public{{else}}private{{end}} project
— contributors: {{range .Project.Contributors}}{{.Nickname}} {{end}}</p>
<h2>Experiments</h2>
<table><tr><th>id</th><th>title</th><th>queries</th><th>pages</th></tr>
{{$pid := .Project.ID}}
{{range .Project.Experiments}}<tr><td>{{.ID}}</td><td>{{.Title}}</td><td>{{len .Queries}}</td>
<td><a href="/projects/{{$pid}}/experiments/{{.ID}}/grammar">grammar</a>
<a href="/projects/{{$pid}}/experiments/{{.ID}}/pool">pool</a>
<a href="/projects/{{$pid}}/history">history</a></td></tr>{{end}}
</table>
<h2>Results ({{len .Results}})</h2>
<table><tr><th>id</th><th>experiment</th><th>query</th><th>dbms</th><th>platform</th><th>best time (s)</th><th>trace</th><th>error</th></tr>
{{range .Results}}<tr><td>{{.ID}}</td><td>{{.ExperimentID}}</td><td>{{.QueryID}}</td><td>{{.DBMSKey}}</td><td>{{.PlatformKey}}</td>
<td>{{if .Failed}}<span class="error">—</span>{{else}}{{seconds .MinSeconds}}{{end}}</td>
<td>{{if .Trace}}<a href="/projects/{{$pid}}/trace?query={{.QueryID}}">trace</a>{{end}}</td><td>{{.Error}}</td></tr>{{end}}
</table>
<h2>Execution queue</h2>
<table><tr><th>task</th><th>query</th><th>dbms</th><th>platform</th><th>status</th></tr>
{{range .Tasks}}<tr><td>{{.ID}}</td><td>{{.QueryID}}</td><td>{{.DBMSKey}}</td><td>{{.PlatformKey}}</td><td>{{.Status}}</td></tr>{{end}}
</table>
<h2>Comments</h2>
{{range .Comments}}<p><b>{{.Author}}</b>: {{.Text}}</p>{{end}}
{{template "layout_foot" .}}`,

	"grammar": `{{template "layout_head" .}}
<h1>Query sqalpel — {{.Project.Name}} / {{.Experiment.Title}}</h1>
<h2>Baseline query</h2>
<pre>{{.Experiment.BaselineSQL}}</pre>
<h2>Derived grammar</h2>
<pre>{{.Experiment.GrammarText}}</pre>
{{template "layout_foot" .}}`,

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
<h1>Experiment history — {{.Project.Name}}</h1>
<p>target: <b>{{.Target}}</b>{{if .Targets}} (available: {{range .Targets}}{{.}} {{end}}){{end}}</p>
<table><tr><th>#</th><th>query</th><th>morphed from</th><th>strategy</th><th>components</th><th>time (s)</th></tr>
{{range .Points}}<tr><td>{{.Seq}}</td><td>{{.QueryID}}</td><td>{{if .ParentID}}{{.ParentID}}{{end}}</td>
<td class="strategy-{{.Strategy}}">{{.Strategy}}</td><td>{{.Components}}</td>
<td>{{if .IsError}}<span class="error">error</span>{{else}}{{seconds .Seconds}}{{end}}</td></tr>{{end}}
</table>
{{template "layout_foot" .}}`,

	"diff": `{{template "layout_head" .}}
<h1>Query differential — {{.Project.Name}}</h1>
<h2>Query {{.Diff.QueryA}}</h2><pre>{{.SQLA}}</pre>
<h2>Query {{.Diff.QueryB}}</h2><pre>{{.SQLB}}</pre>
<h2>Differences</h2>
<p>only in query {{.Diff.QueryA}}: {{range .Diff.OnlyA}}<code>{{.}}</code> {{end}}</p>
<p>only in query {{.Diff.QueryB}}: {{range .Diff.OnlyB}}<code>{{.}}</code> {{end}}</p>
<h2>Performance</h2>
<table><tr><th>target</th><th>query {{.Diff.QueryA}} (s)</th><th>query {{.Diff.QueryB}} (s)</th></tr>
{{range $target, $pair := .Diff.Times}}<tr><td>{{$target}}</td><td>{{seconds (index $pair 0)}}</td><td>{{seconds (index $pair 1)}}</td></tr>{{end}}
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
}
