// Package server implements the sqalpel web platform: a client/server
// application that manages users, the global DBMS and platform catalogs,
// public and private performance projects, experiments with their grammars
// and query pools, the contribution protocol used by the experiment driver
// (request a task — singly or as a leased batch via the request's `max`
// field — and report results, singly or the leased batch at once via the
// report's `tasks` field), the raw results table and the built-in
// analytics. JSON endpoints live under /api/; server-side rendered HTML
// pages (see webui.go) cover the demo's screens.
package server

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"sqalpel/internal/analytics"
	"sqalpel/internal/catalog"
	"sqalpel/internal/derive"
	"sqalpel/internal/grammar"
	"sqalpel/internal/pool"
	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

// Server is the sqalpel platform server.
type Server struct {
	store   *repository.Store
	catalog *catalog.Catalog

	mu       sync.Mutex
	sessions map[string]string    // token -> nickname
	pools    map[string]*livePool // "projectID:experimentID" -> live pool

	mux *http.ServeMux
	// logf reports a handler's panic; tests capture it.
	logf func(format string, args ...any)
}

// Options configure a server.
type Options struct {
	// Store is the repository backing the platform; a fresh one is created
	// when nil.
	Store *repository.Store
	// Catalog is the global DBMS/platform catalog; the bootstrap catalog is
	// used when nil.
	Catalog *catalog.Catalog
}

// New creates a server and registers all routes.
func New(opts Options) *Server {
	s := &Server{
		store:    opts.Store,
		catalog:  opts.Catalog,
		sessions: map[string]string{},
		pools:    map[string]*livePool{},
		mux:      http.NewServeMux(),
		logf:     log.Printf,
	}
	if s.store == nil {
		s.store = repository.NewStore()
	}
	if s.catalog == nil {
		s.catalog = catalog.Bootstrap()
	}
	s.routes()
	return s
}

// Store exposes the backing repository (used by the daemon for persistence).
func (s *Server) Store() *repository.Store { return s.store }

// ServeHTTP implements http.Handler. A handler that panics is logged with
// its route and, when it had not begun its answer, answered 500 with the
// JSON error body of every other failure; net/http alone would drop the
// connection without an answer. A handler that panics halfway through its
// answer has its connection cut, so the client sees a broken answer rather
// than one with an error appended. The server goes on serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	aw := &answerWriter{ResponseWriter: w}
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v) // a handler's deliberate abort, which net/http handles
		}
		_, route := s.mux.Handler(r)
		s.logf("server: %s %s: panic: %v\n%s", r.Method, route, v, debug.Stack())
		if aw.begun {
			panic(http.ErrAbortHandler)
		}
		writeError(w, http.StatusInternalServerError, errors.New("internal server error"))
	}()
	s.mux.ServeHTTP(aw, r)
}

// answerWriter notes whether a handler has begun its answer.
type answerWriter struct {
	http.ResponseWriter
	begun bool
}

func (w *answerWriter) WriteHeader(status int) {
	w.begun = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *answerWriter) Write(p []byte) (int, error) {
	w.begun = true
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *answerWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) routes() {
	// Health and API.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("POST /api/register", s.handleRegister)
	s.mux.HandleFunc("POST /api/login", s.handleLogin)

	s.mux.HandleFunc("GET /api/catalog/dbms", s.handleListDBMS)
	s.mux.HandleFunc("POST /api/catalog/dbms", s.handleAddDBMS)
	s.mux.HandleFunc("GET /api/catalog/platforms", s.handleListPlatforms)
	s.mux.HandleFunc("POST /api/catalog/platforms", s.handleAddPlatform)

	s.mux.HandleFunc("GET /api/projects", s.handleListProjects)
	s.mux.HandleFunc("POST /api/projects", s.handleCreateProject)
	s.mux.HandleFunc("GET /api/projects/{id}", s.handleGetProject)
	s.mux.HandleFunc("POST /api/projects/{id}/visibility", s.handleVisibility)
	s.mux.HandleFunc("POST /api/projects/{id}/invite", s.handleInvite)
	s.mux.HandleFunc("POST /api/projects/{id}/experiments", s.handleAddExperiment)
	s.mux.HandleFunc("GET /api/projects/{id}/experiments/{eid}/queries", s.handleListQueries)
	s.mux.HandleFunc("POST /api/projects/{id}/experiments/{eid}/grow", s.handleGrowPool)
	s.mux.HandleFunc("GET /api/projects/{id}/results", s.handleListResults)
	s.mux.HandleFunc("GET /api/projects/{id}/results.csv", s.handleResultsCSV)
	s.mux.HandleFunc("POST /api/results/{rid}/hide", s.handleHideResult)
	s.mux.HandleFunc("GET /api/projects/{id}/comments", s.handleListComments)
	s.mux.HandleFunc("POST /api/projects/{id}/comments", s.handleAddComment)
	s.mux.HandleFunc("GET /api/projects/{id}/tasks", s.handleListTasks)
	s.mux.HandleFunc("GET /api/projects/{id}/analytics/history", s.handleHistory)
	s.mux.HandleFunc("GET /api/projects/{id}/analytics/components", s.handleComponents)
	s.mux.HandleFunc("GET /api/projects/{id}/analytics/speedup", s.handleSpeedup)
	s.mux.HandleFunc("GET /api/projects/{id}/analytics/diff", s.handleDiff)

	// Driver protocol (contributor-key authenticated).
	s.mux.HandleFunc("POST /api/task/request", s.handleTaskRequest)
	s.mux.HandleFunc("POST /api/task/complete", s.handleTaskComplete)

	// HTML pages.
	s.registerWebUI()
}

// --- helpers -----------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// A list answer goes out through a buffer of listBufferPerRow bytes per
// element, at most listBufferMax: smaller writes cost the drivers sharing
// the processors latency, one buffer for the whole page more GC cycles
// (EXPERIMENTS "Incremental checkpoints").
const (
	listBufferMax    = 1 << 20
	listBufferPerRow = 4 << 10
)

// writeJSONList answers 200 with a JSON array encoded element by element,
// and a nil list as null, like writeJSON. A project's results table runs to
// megabytes of JSON, and writeJSON would build it whole in a buffer that
// encoding/json then keeps pooled beyond the request — on the drain
// benchmark with a reader, tens of megabytes of peak memory.
func writeJSONList[T any](w http.ResponseWriter, list []T) {
	if list == nil {
		writeJSON(w, http.StatusOK, list)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, min(listBufferMax, listBufferPerRow*(len(list)+1)))
	enc := json.NewEncoder(bw)
	bw.WriteByte('[')
	for i, v := range list {
		if i > 0 {
			bw.WriteByte(',')
		}
		if enc.Encode(v) != nil {
			return // the status is out; the client sees a truncated array
		}
	}
	bw.WriteString("]\n")
	_ = bw.Flush() // a client gone away is not the server's error
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func newToken() string {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		panic(err)
	}
	return hex.EncodeToString(buf)
}

// viewer resolves the session token (if any) to a nickname; anonymous
// requests yield "".
func (s *Server) viewer(r *http.Request) string {
	token := r.Header.Get("X-Sqalpel-Token")
	if token == "" {
		auth := r.Header.Get("Authorization")
		if strings.HasPrefix(auth, "Bearer ") {
			token = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if token == "" {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

// requireUser resolves the session or writes a 401.
func (s *Server) requireUser(w http.ResponseWriter, r *http.Request) (string, bool) {
	nick := s.viewer(r)
	if nick == "" {
		writeError(w, http.StatusUnauthorized, fmt.Errorf("authentication required"))
		return "", false
	}
	return nick, true
}

func pathInt(r *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		return 0, fmt.Errorf("invalid %s %q", name, r.PathValue(name))
	}
	return v, nil
}

// --- users ---------------------------------------------------------------

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Nickname string `json:"nickname"`
		Email    string `json:"email"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.store.RegisterUser(req.Nickname, req.Email); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	token := s.createSession(req.Nickname)
	writeJSON(w, http.StatusCreated, map[string]string{"nickname": req.Nickname, "token": token})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Nickname string `json:"nickname"`
		Email    string `json:"email"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	u := s.store.User(req.Nickname)
	if u == nil || u.Email != req.Email {
		writeError(w, http.StatusUnauthorized, fmt.Errorf("unknown user or wrong email"))
		return
	}
	token := s.createSession(req.Nickname)
	writeJSON(w, http.StatusOK, map[string]string{"nickname": req.Nickname, "token": token})
}

func (s *Server) createSession(nickname string) string {
	token := newToken()
	s.mu.Lock()
	s.sessions[token] = nickname
	s.mu.Unlock()
	return token
}

// --- catalogs --------------------------------------------------------------

func (s *Server) handleListDBMS(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.catalog.ListDBMS())
}

func (s *Server) handleAddDBMS(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.requireUser(w, r); !ok {
		return
	}
	var d catalog.DBMS
	if err := decodeJSON(r, &d); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.catalog.AddDBMS(d); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, d)
}

func (s *Server) handleListPlatforms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.catalog.ListPlatforms())
}

func (s *Server) handleAddPlatform(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.requireUser(w, r); !ok {
		return
	}
	var p catalog.Platform
	if err := decodeJSON(r, &p); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.catalog.AddPlatform(p); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, p)
}

// --- projects ---------------------------------------------------------------

// projectView is the JSON representation of a project; contributor keys are
// never included (they are returned only to the owner at invitation time).
type projectView struct {
	ID           int              `json:"id"`
	Name         string           `json:"name"`
	Synopsis     string           `json:"synopsis"`
	Attribution  string           `json:"attribution"`
	Owner        string           `json:"owner"`
	Public       bool             `json:"public"`
	DBMSKeys     []string         `json:"dbms_keys"`
	PlatformKeys []string         `json:"platform_keys"`
	Contributors []string         `json:"contributors"`
	Experiments  []experimentView `json:"experiments"`
}

type experimentView struct {
	ID          int    `json:"id"`
	Title       string `json:"title"`
	BaselineSQL string `json:"baseline_sql"`
	GrammarText string `json:"grammar_text"`
	QueryCount  int    `json:"query_count"`
}

func toProjectView(p *repository.Project) projectView {
	v := projectView{
		ID: p.ID, Name: p.Name, Synopsis: p.Synopsis, Attribution: p.Attribution,
		Owner: p.Owner, Public: p.Public, DBMSKeys: p.DBMSKeys, PlatformKeys: p.PlatformKeys,
	}
	for _, c := range p.Contributors {
		v.Contributors = append(v.Contributors, c.Nickname)
	}
	for _, e := range p.Experiments {
		v.Experiments = append(v.Experiments, experimentView{
			ID: e.ID, Title: e.Title, BaselineSQL: e.BaselineSQL,
			GrammarText: e.GrammarText, QueryCount: len(e.Queries),
		})
	}
	return v
}

func (s *Server) handleListProjects(w http.ResponseWriter, r *http.Request) {
	viewer := s.viewer(r)
	var out []projectView
	for _, p := range s.store.Projects(viewer) {
		out = append(out, toProjectView(p))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateProject(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	var req struct {
		Name        string `json:"name"`
		Synopsis    string `json:"synopsis"`
		Attribution string `json:"attribution"`
		Public      bool   `json:"public"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p, err := s.store.CreateProject(nick, req.Name, req.Synopsis, req.Public)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Attribution != "" {
		_ = s.store.UpdateSynopsis(nick, p.ID, req.Synopsis, req.Attribution)
	}
	// The owner's own contributor key is returned so they can run the
	// driver themselves.
	writeJSON(w, http.StatusCreated, map[string]any{
		"project": toProjectView(s.store.Project(p.ID)),
		"key":     p.Contributors[0].Key,
	})
}

func (s *Server) loadProject(w http.ResponseWriter, r *http.Request) (*repository.Project, string, bool) {
	id, err := pathInt(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, "", false
	}
	viewer := s.viewer(r)
	p := s.store.Project(id)
	if p == nil || !s.store.CanView(viewer, id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("project %d not found", id))
		return nil, "", false
	}
	return p, viewer, true
}

func (s *Server) handleGetProject(w http.ResponseWriter, r *http.Request) {
	p, _, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, toProjectView(p))
}

func (s *Server) handleVisibility(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	id, err := pathInt(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Public bool `json:"public"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.store.SetVisibility(nick, id, req.Public); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"public": req.Public})
}

func (s *Server) handleInvite(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	id, err := pathInt(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Nickname string `json:"nickname"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := s.store.Invite(nick, id, req.Nickname)
	if err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"nickname": req.Nickname, "key": key})
}

// --- experiments and pools ----------------------------------------------------

func (s *Server) handleAddExperiment(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	id, err := pathInt(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Title       string `json:"title"`
		BaselineSQL string `json:"baseline_sql"`
		GrammarText string `json:"grammar_text"`
		SeedRandom  int    `json:"seed_random"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var g *grammar.Grammar
	switch {
	case req.GrammarText != "":
		g, err = grammar.Parse(req.GrammarText)
	case req.BaselineSQL != "":
		g, err = derive.FromSQL(req.BaselineSQL, derive.DefaultOptions())
	default:
		err = fmt.Errorf("an experiment needs a baseline_sql or a grammar_text")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pl, err := pool.New(g, pool.Options{Seed: int64(id)*1000 + 7})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.SeedRandom > 0 {
		if _, err := pl.SeedRandom(req.SeedRandom); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	exp, err := s.store.AddExperiment(nick, id, req.Title, req.BaselineSQL, g.String())
	if err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	if err := s.store.ReplaceQueries(nick, id, exp.ID, poolRecords(pl)); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	s.pools[poolKey(id, exp.ID)] = &livePool{pool: pl}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"experiment_id": exp.ID,
		"grammar_text":  g.String(),
		"query_count":   pl.Size(),
	})
}

func poolKey(projectID, experimentID int) string {
	return fmt.Sprintf("%d:%d", projectID, experimentID)
}

// poolRecords renders the pool as the repository stores it. A query's terms
// are pool.Entry.Terms, so the same pool always yields the same records (and
// the same WAL bytes).
func poolRecords(pl *pool.Pool) []repository.QueryRecord {
	var out []repository.QueryRecord
	for _, e := range pl.Entries() {
		out = append(out, repository.QueryRecord{
			ID: e.ID, SQL: e.SQL, Strategy: string(e.Strategy),
			ParentID: e.ParentID, Components: e.Components, Terms: e.Terms(),
		})
	}
	return out
}

// livePool is the in-memory pool of one experiment. A pool.Pool is not safe
// for concurrent mutation, and a grow request is a steering change, growth
// and a ReplaceQueries of the whole pool that must reach the store in the
// order they happened: mu serialises the requests of one experiment.
type livePool struct {
	mu   sync.Mutex
	pool *pool.Pool // nil until the first request after a restart rebuilds it
}

// livePool returns the experiment's live pool record, creating an empty one
// when the server was restarted since the experiment was created; the
// caller locks it and calls rebuild before use.
func (s *Server) livePool(projectID, experimentID int) *livePool {
	key := poolKey(projectID, experimentID)
	s.mu.Lock()
	defer s.mu.Unlock()
	lp := s.pools[key]
	if lp == nil {
		lp = &livePool{}
		s.pools[key] = lp
	}
	return lp
}

// errPoolNotRestored refuses a grow on a rebuilt pool that does not hold
// the stored one: storing it would rebind query ids results refer to.
var errPoolNotRestored = errors.New("the stored pool cannot be restored after a restart; growing it would overwrite its queries")

// rebuild restores the pool from the stored grammar; lp.mu is held. The
// rebuilt pool holds the baseline alone, so it is kept only when it binds
// every stored query id to the same SQL, and errPoolNotRestored otherwise.
func (lp *livePool) rebuild(p *repository.Project, exp *repository.Experiment) error {
	if lp.pool != nil {
		return nil
	}
	g, err := grammar.Parse(exp.GrammarText)
	if err != nil {
		return fmt.Errorf("stored grammar does not parse: %w", err)
	}
	pl, err := pool.New(g, pool.Options{Seed: int64(p.ID)*1000 + 7})
	if err != nil {
		return err
	}
	rebuilt := map[int]string{}
	for _, e := range pl.Entries() {
		rebuilt[e.ID] = e.SQL
	}
	for _, q := range exp.Queries {
		if sql, ok := rebuilt[q.ID]; !ok || sql != q.SQL {
			return errPoolNotRestored
		}
	}
	lp.pool = pl
	return nil
}

func (s *Server) handleGrowPool(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	id, err := pathInt(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	eid, err := pathInt(r, "eid")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.store.IsOwner(nick, id) {
		writeError(w, http.StatusForbidden, fmt.Errorf("only the project owner can grow the pool"))
		return
	}
	var req struct {
		Count      int      `json:"count"`
		Random     int      `json:"random"`
		Strategies []string `json:"strategies"`
		Include    []string `json:"include"`
		Exclude    []string `json:"exclude"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p := s.store.Project(id)
	exp := p.Experiment(eid)
	if exp == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %d", eid))
		return
	}
	lp := s.livePool(id, eid)
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if err := lp.rebuild(p, exp); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errPoolNotRestored) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	pl := lp.pool
	var strategies []pool.Strategy
	for _, st := range req.Strategies {
		strategies = append(strategies, pool.Strategy(st))
	}
	pl.SetSteering(pool.Steering{
		IncludeLiterals: req.Include,
		ExcludeLiterals: req.Exclude,
		Strategies:      strategies,
	})
	if req.Random > 0 {
		if _, err := pl.SeedRandom(req.Random); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if req.Count > 0 {
		pl.Grow(req.Count)
	}
	if err := s.store.ReplaceQueries(nick, id, eid, poolRecords(pl)); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"query_count": pl.Size()})
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
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
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %d", eid))
		return
	}
	writeJSON(w, http.StatusOK, exp.Queries)
}

// --- results, comments, tasks ------------------------------------------------

func (s *Server) handleListResults(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	writeJSONList(w, s.store.Results(viewer, p.ID))
}

func (s *Server) handleResultsCSV(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	runs := s.projectRuns(p, viewer)
	w.Header().Set("Content-Type", "text/csv")
	if err := analytics.WriteCSV(w, runs); err != nil {
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleHideResult(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	rid, err := pathInt(r, "rid")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Hidden bool `json:"hidden"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.store.HideResult(nick, rid, req.Hidden); err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"hidden": req.Hidden})
}

func (s *Server) handleListComments(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.store.Comments(viewer, p.ID))
}

func (s *Server) handleAddComment(w http.ResponseWriter, r *http.Request) {
	nick, ok := s.requireUser(w, r)
	if !ok {
		return
	}
	id, err := pathInt(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Text string `json:"text"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := s.store.AddComment(nick, id, req.Text)
	if err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusCreated, c)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.store.Tasks(viewer, p.ID))
}

// --- driver protocol ----------------------------------------------------------

func (s *Server) handleTaskRequest(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Key          string `json:"key"`
		ExperimentID int    `json:"experiment_id"`
		DBMS         string `json:"dbms"`
		Platform     string `json:"platform"`
		// Max switches to batch leasing: with max > 1 up to that many tasks
		// are leased in one round trip and returned as {"tasks": [...]}.
		// Absent or 1 keeps the original single-task wire format.
		Max int `json:"max"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tasks, err := s.store.RequestTasks(req.Key, req.ExperimentID, req.DBMS, req.Platform, req.Max)
	if err != nil {
		writeError(w, http.StatusForbidden, err)
		return
	}
	if len(tasks) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if req.Max > 1 {
		writeJSON(w, http.StatusOK, map[string]any{"tasks": tasks})
		return
	}
	writeJSON(w, http.StatusOK, tasks[0])
}

// completionItem is one finished task as a driver reports it: the whole body
// of the single-task form of /api/task/complete, one element of the batch
// form's tasks.
type completionItem struct {
	TaskID  int       `json:"task_id"`
	Seconds []float64 `json:"seconds"`
	Error   string    `json:"error"`
	// Extra is nil only when the body sent no object: {} holds no extras,
	// yet a batch body that sends it at the top level mixes the two forms.
	Extra *repository.Extras `json:"extra"`
	// Trace optionally carries the driver's per-operator span tree as a
	// trace.QueryTrace document; it is stored on the result row.
	Trace json.RawMessage `json:"trace"`
}

// completion parses the item's trace and returns the item as the store
// records it.
func (it *completionItem) completion() (repository.Completion, error) {
	c := repository.Completion{TaskID: it.TaskID, Seconds: it.Seconds, Error: it.Error}
	if it.Extra != nil {
		c.Extra = *it.Extra
	}
	if len(it.Trace) > 0 && string(it.Trace) != "null" {
		qt, err := trace.ParseTrace(it.Trace)
		if err != nil {
			return c, fmt.Errorf("invalid trace of task %d: %w", it.TaskID, err)
		}
		c.Trace = qt
	}
	return c, nil
}

// completionStatus is the HTTP status of one completion's outcome. A lost
// lease (expired and re-queued, killed, or already completed) is a normal
// race in the multi-driver scenario, not an authorization failure; 409 tells
// the driver to drop the result and carry on.
func completionStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusCreated
	case errors.Is(err, repository.ErrLeaseLost):
		return http.StatusConflict
	default:
		return http.StatusForbidden
	}
}

// completionResult is the batch form's answer for one reported task.
type completionResult struct {
	TaskID int    `json:"task_id"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleTaskComplete(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Key string `json:"key"`
		completionItem
		// Tasks switches to the batch form: the tasks of a lease reported in
		// one round trip, recorded as one batch and answered with
		// {"results": [...]}, one status per task. Absent keeps the
		// single-task wire format.
		Tasks []completionItem `json:"tasks"`
	}
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items := req.Tasks
	if items == nil {
		items = []completionItem{req.completionItem}
	} else if req.TaskID != 0 || req.Seconds != nil || req.Error != "" || req.Extra != nil || req.Trace != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("a completion carries either task_id or tasks, not both"))
		return
	}
	// Every trace is parsed before anything is recorded: a malformed one
	// rejects the whole report.
	batch := make([]repository.Completion, len(items))
	for i := range items {
		c, err := items[i].completion()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		batch[i] = c
	}
	outcomes := s.store.CompleteTasks(req.Key, batch)
	if req.Tasks == nil {
		if out := outcomes[0]; out.Err != nil {
			writeError(w, completionStatus(out.Err), out.Err)
		} else {
			writeJSON(w, http.StatusCreated, out.Result)
		}
		return
	}
	results := make([]completionResult, len(outcomes))
	for i, out := range outcomes {
		results[i] = completionResult{TaskID: items[i].TaskID, Status: completionStatus(out.Err)}
		if out.Err != nil {
			results[i].Error = out.Err.Error()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// --- analytics ------------------------------------------------------------------

// projectRuns converts the visible results of a project into analytics runs,
// one per result, targeted at its "dbms@platform" label.
func (s *Server) projectRuns(p *repository.Project, viewer string) []analytics.Run {
	var runs []analytics.Run
	for _, res := range s.store.Results(viewer, p.ID) {
		exp := p.Experiment(res.ExperimentID)
		if exp == nil {
			continue
		}
		q := exp.Query(res.QueryID)
		if q == nil {
			continue
		}
		run := analytics.Run{
			QueryID:    q.ID,
			SQL:        q.SQL,
			Strategy:   q.Strategy,
			ParentID:   q.ParentID,
			Components: q.Components,
			Terms:      q.Terms,
			Target:     res.DBMSKey + "@" + res.PlatformKey,
			Error:      res.Error,
		}
		if !res.Failed() {
			run.Seconds = res.MinSeconds()
		}
		runs = append(runs, run)
	}
	return runs
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	target := r.URL.Query().Get("target")
	runs := s.projectRuns(p, viewer)
	writeJSON(w, http.StatusOK, analytics.History(runs, target))
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	target := r.URL.Query().Get("target")
	runs := s.projectRuns(p, viewer)
	writeJSON(w, http.StatusOK, analytics.Components(runs, target))
}

func (s *Server) handleSpeedup(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	base := r.URL.Query().Get("base")
	other := r.URL.Query().Get("other")
	runs := s.projectRuns(p, viewer)
	writeJSON(w, http.StatusOK, analytics.Speedup(runs, base, other))
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	a, errA := strconv.Atoi(r.URL.Query().Get("a"))
	b, errB := strconv.Atoi(r.URL.Query().Get("b"))
	if errA != nil || errB != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("a and b query ids are required"))
		return
	}
	runs := s.projectRuns(p, viewer)
	d, err := analytics.Diff(runs, a, b)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}
