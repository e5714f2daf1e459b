package server

import (
	"fmt"
	"net/http"

	"sqalpel/internal/analytics"
	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
	"sqalpel/internal/webui"
)

// registerWebUI wires the server-side rendered HTML pages.
func (s *Server) registerWebUI() {
	renderer, err := webui.New()
	if err != nil {
		// The templates are compiled into the binary; failing to parse them
		// is a programming error.
		panic(err)
	}

	s.mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		dbms, platforms := s.catalog.Snapshot()
		data := webui.IndexData{
			Viewer:    s.viewer(r),
			Projects:  s.store.Projects(s.viewer(r)),
			DBMS:      dbms,
			Platforms: platforms,
		}
		renderHTML(w, renderer.Index(w, data))
	})

	s.mux.HandleFunc("GET /catalog", func(w http.ResponseWriter, r *http.Request) {
		dbms, platforms := s.catalog.Snapshot()
		data := webui.IndexData{Viewer: s.viewer(r), DBMS: dbms, Platforms: platforms}
		renderHTML(w, renderer.Index(w, data))
	})

	s.mux.HandleFunc("GET /projects/{id}", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		data := webui.ProjectData{
			Viewer:   viewer,
			Project:  p,
			Results:  s.store.Results(viewer, p.ID),
			Comments: s.store.Comments(viewer, p.ID),
			Tasks:    s.store.Tasks(viewer, p.ID),
		}
		renderHTML(w, renderer.Project(w, data))
	})

	s.mux.HandleFunc("GET /projects/{id}/experiments/{eid}/grammar", func(w http.ResponseWriter, r *http.Request) {
		p, _, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		eid, err := pathInt(r, "eid")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		exp := p.Experiment(eid)
		if exp == nil {
			http.NotFound(w, r)
			return
		}
		renderHTML(w, renderer.Grammar(w, webui.GrammarData{Project: p, Experiment: exp}))
	})

	s.mux.HandleFunc("GET /projects/{id}/experiments/{eid}/pool", func(w http.ResponseWriter, r *http.Request) {
		p, _, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		eid, err := pathInt(r, "eid")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		exp := p.Experiment(eid)
		if exp == nil {
			http.NotFound(w, r)
			return
		}
		rows := s.livePool(p.ID, exp.ID).pageRows(exp.Queries)
		page, buf := startPage(w, htmlPage)
		buf = page.send(webui.AppendPoolHead(buf, webui.PoolData{Project: p, Experiment: exp}), rows)
		page.finish(append(buf, webui.TableFoot...))
	})

	s.mux.HandleFunc("GET /projects/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		exp, ok := experimentOf(w, r, p)
		if !ok {
			return
		}
		target := r.URL.Query().Get("target")
		var names []string
		var rows []*repository.Result
		if exp != nil {
			names = s.store.TargetLabels(viewer, p.ID, exp.ID)
			if target == "" && len(names) > 0 {
				target = names[0]
			}
			rows = s.store.TargetResults(viewer, p.ID, exp.ID, target)
		}
		page, buf := startPage(w, htmlPage)
		page.finish(webui.AppendHistory(buf, webui.HistoryData{
			Project:    p,
			Experiment: exp,
			Target:     target,
			Targets:    names,
			Points:     analytics.History(projectRuns(p, rows, exp), target),
			Flush:      page.flush,
		}))
	})

	s.mux.HandleFunc("GET /projects/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		qid, err := queryInt(r, "query")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		exp, ok := experimentOf(w, r, p)
		if !ok {
			return
		}
		data := webui.TraceData{Project: p, QueryID: qid}
		var spans []repository.TraceJSON
		if exp != nil {
			data.Targets, spans = s.store.LatestTraces(viewer, p.ID, exp.ID, qid)
		}
		if len(spans) > 0 {
			if q := exp.Query(qid); q != nil {
				data.SQL = q.SQL
			}
		}
		// Only the traces shown are decoded.
		traces := make([]*trace.QueryTrace, len(spans))
		for i, t := range spans {
			traces[i] = t.Decode()
		}
		data.Rows = trace.Compare(traces)
		if len(data.Targets) >= 2 {
			data.Ratios = trace.KindRatios(data.Rows)
		}
		page, buf := startPage(w, htmlPage)
		page.finish(webui.AppendTrace(buf, data))
	})

	s.mux.HandleFunc("GET /projects/{id}/diff", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		idA, err := queryInt(r, "a")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		idB, err := queryInt(r, "b")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		exp, ok := experimentOf(w, r, p)
		if !ok {
			return
		}
		runs := projectRuns(p, s.store.Results(viewer, p.ID), exp)
		d, err := analytics.Diff(runs, idA, idB)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		sqlA, sqlB := "", ""
		for _, run := range runs {
			if run.QueryID == idA {
				sqlA = run.SQL
			}
			if run.QueryID == idB {
				sqlB = run.SQL
			}
		}
		renderHTML(w, renderer.Diff(w, webui.DiffData{Project: p, Diff: d, SQLA: sqlA, SQLB: sqlB}))
	})
}

// poolRows are the pool page's rows built from one stored pool value.
// Holding queries keeps its backing array alive, so no later pool can be
// allocated at the same address.
type poolRows struct {
	queries []repository.QueryRecord
	rows    []byte
}

// pageRows returns the pool page's rows for queries, the experiment's
// stored pool: the kept ones when they were built from the same value,
// freshly built and kept otherwise. A stored pool is replaced or appended
// to, never changed in place, so the same backing array and length mean
// the same queries.
func (lp *livePool) pageRows(queries []repository.QueryRecord) []byte {
	if kept := lp.rows.Load(); kept != nil && len(kept.queries) == len(queries) &&
		(len(queries) == 0 || &kept.queries[0] == &queries[0]) {
		return kept.rows
	}
	built := &poolRows{queries: queries, rows: webui.AppendPoolRows(nil, queries)}
	lp.rows.Store(built)
	return built.rows
}

// htmlPage is the content type of a page: what net/http sniffs from a
// templated page's first bytes.
const htmlPage = "text/html; charset=utf-8"

// renderHTML reports template execution failures; the header has usually
// been written already, so the error is only logged into the body.
func renderHTML(w http.ResponseWriter, err error) {
	if err != nil {
		fmt.Fprintf(w, "<!-- render error: %v -->", err)
	}
}
