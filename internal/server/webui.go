package server

import (
	"fmt"
	"net/http"
	"sort"

	"sqalpel/internal/analytics"
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
		renderHTML(w, renderer.Pool(w, webui.PoolData{Project: p, Experiment: exp}))
	})

	s.mux.HandleFunc("GET /projects/{id}/history", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		runs := s.projectRuns(p, viewer)
		targets := map[string]bool{}
		for _, run := range runs {
			targets[run.Target] = true
		}
		var names []string
		for t := range targets {
			names = append(names, t)
		}
		sort.Strings(names)
		target := r.URL.Query().Get("target")
		if target == "" && len(names) > 0 {
			target = names[0]
		}
		data := webui.HistoryData{
			Project: p,
			Target:  target,
			Targets: names,
			Points:  analytics.History(runs, target),
		}
		renderHTML(w, renderer.History(w, data))
	})

	s.mux.HandleFunc("GET /projects/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		var qid int
		if _, err := fmt.Sscanf(r.URL.Query().Get("query"), "%d", &qid); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query parameter query must be a query id"))
			return
		}
		// Latest traced result per target label; iteration order is insertion
		// order, so later submissions win.
		byLabel := map[string]*trace.QueryTrace{}
		sqlText := ""
		for _, res := range s.store.Results(viewer, p.ID) {
			if res.QueryID != qid || res.Trace == nil {
				continue
			}
			byLabel[res.DBMSKey+"@"+res.PlatformKey] = res.Trace
			if exp := p.Experiment(res.ExperimentID); exp != nil {
				if q := exp.Query(res.QueryID); q != nil {
					sqlText = q.SQL
				}
			}
		}
		labels := make([]string, 0, len(byLabel))
		for l := range byLabel {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		traces := make([]*trace.QueryTrace, len(labels))
		for i, l := range labels {
			traces[i] = byLabel[l]
		}
		data := webui.TraceData{
			Project: p,
			QueryID: qid,
			SQL:     sqlText,
			Targets: labels,
			Rows:    trace.Compare(traces),
		}
		if len(labels) >= 2 {
			data.Ratios = trace.KindRatios(data.Rows)
		}
		renderHTML(w, renderer.Trace(w, data))
	})

	s.mux.HandleFunc("GET /projects/{id}/diff", func(w http.ResponseWriter, r *http.Request) {
		p, viewer, ok := s.loadProject(w, r)
		if !ok {
			return
		}
		a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
		var idA, idB int
		if _, err := fmt.Sscanf(a, "%d", &idA); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query parameter a must be a query id"))
			return
		}
		if _, err := fmt.Sscanf(b, "%d", &idB); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query parameter b must be a query id"))
			return
		}
		runs := s.projectRuns(p, viewer)
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

// renderHTML reports template execution failures; the header has usually
// been written already, so the error is only logged into the body.
func renderHTML(w http.ResponseWriter, err error) {
	if err != nil {
		fmt.Fprintf(w, "<!-- render error: %v -->", err)
	}
}
