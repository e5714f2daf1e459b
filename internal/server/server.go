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
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sqalpel/internal/analytics"
	"sqalpel/internal/catalog"
	"sqalpel/internal/derive"
	"sqalpel/internal/grammar"
	"sqalpel/internal/pool"
	"sqalpel/internal/repository"
	"sqalpel/internal/wire"
)

// Server is the sqalpel platform server.
type Server struct {
	store   *repository.Store
	catalog *catalog.Catalog

	mu       sync.Mutex
	sessions map[string]string    // token -> nickname
	pools    map[poolID]*livePool // an experiment's live pool

	mux *http.ServeMux
	// logf reports a handler's panic; tests capture it.
	logf func(format string, args ...any)
}

// Options configure a server.
type Options struct {
	// Store is the repository backing the platform; a fresh one is created
	// when nil.
	Store *repository.Store
}

// New creates a server and registers all routes.
func New(opts Options) *Server {
	s := &Server{
		store:    opts.Store,
		catalog:  catalog.Bootstrap(),
		sessions: map[string]string{},
		pools:    map[poolID]*livePool{},
		mux:      http.NewServeMux(),
		logf:     log.Printf,
	}
	if s.store == nil {
		s.store = repository.NewStore()
	}
	s.routes()
	return s
}

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

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds a request body: the longest record the store logs,
// which is what a completion's body becomes.
const maxBodyBytes = 64 << 20

// decodeJSON decodes the request's JSON body into v, as readJSON does.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	return readJSON(w, r, new([]byte), nil, v)
}

// bodies hold a driver's request while its handler reads it, and then the
// answer.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// readJSON reads the request's body, of at most maxBodyBytes, into *bp (see
// readBody) and decodes it into v: by scan when scan takes it, by
// encoding/json — which refuses fields v does not have — otherwise. ok is
// false once a failure has been answered: 413 for a body too long, 400 for
// one that does not decode.
func readJSON(w http.ResponseWriter, r *http.Request, bp *[]byte, scan func([]byte) bool, v any) (ok bool) {
	var err error = &http.MaxBytesError{Limit: maxBodyBytes} // a body that says it is too long is not read
	if r.ContentLength <= maxBodyBytes {
		*bp, err = readBody((*bp)[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
		if err == nil && scan != nil && scan(*bp) {
			return true
		}
	}
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(*bp))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	switch {
	case err == nil:
		return true
	case errors.As(err, new(*http.MaxBytesError)):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

// readBody appends r's bytes to b, growing b only as they arrive: for a
// declared length n eightfold, in steps whose last holds n bytes and the one
// a read needs to see EOF (about 1.15 times the body, and at most eight times
// what was sent, or 2 KiB); otherwise, or past n, by doubling.
func readBody(b []byte, r io.Reader, n int64) ([]byte, error) {
	first, last := int(n)+1, int(n)+1
	for first > 2<<10 {
		first = (first + 7) / 8
	}
	for {
		if len(b) == cap(b) {
			size := max(2*cap(b), bytes.MinRead)
			if n >= 0 && cap(b) < last {
				size = min(max(8*cap(b), first), last)
			}
			b = append(make([]byte, 0, size), b...)
		}
		k, err := r.Read(b[len(b):cap(b)])
		if b = b[:len(b)+k]; err == io.EOF {
			return b, nil
		} else if err != nil {
			return b, err
		}
	}
}

// writeAnswer writes the JSON answer an appender of package wire built.
func writeAnswer(w http.ResponseWriter, status int, answer []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(answer)
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

// queryInt parses the URL query parameter name, a query id, as
// strconv.Atoi does: "12abc", "1 2" and "0x10" are errors, not 12, 1 and 0.
func queryInt(r *http.Request, name string) (int, error) {
	v, err := strconv.Atoi(r.URL.Query().Get(name))
	if err != nil {
		return 0, fmt.Errorf("query parameter %s must be a query id", name)
	}
	return v, nil
}

// --- users ---------------------------------------------------------------

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Nickname string `json:"nickname"`
		Email    string `json:"email"`
	}
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &d) {
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
	if !decodeJSON(w, r, &p) {
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
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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
	s.pools[poolID{id, exp.ID}] = &livePool{pool: pl}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"experiment_id": exp.ID,
		"grammar_text":  g.String(),
		"query_count":   pl.Size(),
	})
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

// poolID names an experiment's live pool.
type poolID struct{ project, experiment int }

// livePool is the in-memory pool of one experiment. A pool.Pool is not safe
// for concurrent mutation, and a grow request is a steering change, growth
// and a ReplaceQueries of the whole pool that must reach the store in the
// order they happened: mu serialises the requests of one experiment. rows
// holds the pool page's rows of the stored pool last shown, read without mu.
type livePool struct {
	mu   sync.Mutex
	pool *pool.Pool // nil until the first request after a restart rebuilds it
	rows atomic.Pointer[poolRows]
}

// livePool returns the experiment's live pool record, creating an empty one
// when the server was restarted since the experiment was created. A grow
// locks it and calls rebuild before using its pool; the pool page reads
// only its rows.
func (s *Server) livePool(projectID, experimentID int) *livePool {
	key := poolID{projectID, experimentID}
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
	if !decodeJSON(w, r, &req) {
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

// pageFlushBytes is about how much of a page whose rows scale — the
// history page — is handed to the connection at once. Such a page is never
// built whole: a project's runs to megabytes, and a buffer that size per
// request costs GC cycles (EXPERIMENTS "Incremental checkpoints"). The
// pool page sends its kept rows as they are, between its head and foot,
// and the results page the runs of its sealed rows.
const pageFlushBytes = 64 << 10

// pageBuffers hold those pages' buffers between requests.
var pageBuffers = sync.Pool{New: func() any {
	b := make([]byte, 0, pageFlushBytes+pageFlushBytes/4)
	return &b
}}

// A pageWriter answers 200 with a page appended into a buffer of
// pageBuffers, handing it to the connection in pieces of about
// pageFlushBytes, or around bytes kept elsewhere (send).
type pageWriter struct {
	w   http.ResponseWriter
	bp  *[]byte
	err error // the first failed write; a client gone away is not the server's error
}

// startPage writes the header of a page of the given content type and
// returns its writer; buf is the empty buffer to append the page to.
func startPage(w http.ResponseWriter, contentType string) (p *pageWriter, buf []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	p = &pageWriter{w: w, bp: pageBuffers.Get().(*[]byte)}
	return p, (*p.bp)[:0]
}

// flush writes the page so far once it holds pageFlushBytes and returns
// the buffer to go on appending to. After a failed write it only empties
// the buffer.
func (p *pageWriter) flush(buf []byte) []byte {
	if len(buf) < pageFlushBytes {
		return buf
	}
	if p.err == nil {
		_, p.err = p.w.Write(buf)
	}
	return buf[:0]
}

// send writes the page so far and then b, which is not copied, and returns
// the buffer to go on appending to. After a failed write it writes nothing.
func (p *pageWriter) send(buf, b []byte) []byte {
	if p.err == nil && len(buf) > 0 {
		_, p.err = p.w.Write(buf)
	}
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
	return buf[:0]
}

// finish writes the rest of the page and keeps its buffer for the next.
func (p *pageWriter) finish(buf []byte) {
	if p.err == nil {
		_, p.err = p.w.Write(buf)
	}
	*p.bp = buf
	pageBuffers.Put(p.bp)
}

// handleListResults answers the project's visible results as the bytes
// json.NewEncoder wrote for them element by element — each row followed by
// a newline — and no results as null. The rows were sealed into their
// project's arena when they were stored, each followed by "\n,"; the page
// hands the connection each run of rows that lie back to back there
// (repository.SealedRun) as it is, the last one without its ",". Nothing
// is encoded or copied here.
func (s *Server) handleListResults(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	rows := s.store.Results(viewer, p.ID)
	if rows == nil {
		writeJSON(w, http.StatusOK, rows)
		return
	}
	page, buf := startPage(w, "application/json")
	buf = append(buf, '[')
	for len(rows) > 0 && page.err == nil {
		run, n := repository.SealedRun(rows)
		if rows = rows[n:]; len(rows) == 0 {
			run = run[:len(run)-1]
		}
		buf = page.send(buf, run)
	}
	page.finish(append(buf, "]\n"...))
}

func (s *Server) handleResultsCSV(w http.ResponseWriter, r *http.Request) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return
	}
	runs := projectRuns(p, s.store.Results(viewer, p.ID), nil)
	w.Header().Set("Content-Type", "text/csv")
	// WriteCSV fails only when a write fails, after the 200 went out: the
	// client went away and nothing is left to answer, as for a pageWriter.
	_ = analytics.WriteCSV(w, runs)
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
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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
	bp := bodies.Get().(*[]byte)
	defer bodies.Put(bp)
	var req wire.LeaseRequest
	if !readJSON(w, r, bp, func(b []byte) bool { return wire.ScanLeaseRequest(b, &req) }, &req) {
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
	answer, ok := wire.AppendLease((*bp)[:0], tasks, req.Max > 1)
	if *bp = answer; !ok {
		answer = nil // a time encoding/json cannot write, and then it writes nothing
	}
	writeAnswer(w, http.StatusOK, answer)
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

func (s *Server) handleTaskComplete(w http.ResponseWriter, r *http.Request) {
	bp := bodies.Get().(*[]byte)
	defer bodies.Put(bp)
	var req wire.CompletionRequest
	if !readJSON(w, r, bp, func(b []byte) bool { return wire.ScanCompletions(b, &req) }, &req) {
		return
	}
	items := req.Tasks
	if items == nil {
		items = []wire.Completion{req.Completion}
	} else if req.TaskID != 0 || req.Seconds != nil || req.Error != "" || req.Extra != nil || req.Trace != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("a completion carries either task_id or tasks, not both"))
		return
	}
	batch := make([]repository.Completion, len(items))
	for i := range items {
		batch[i] = items[i].Record()
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
	results := make([]wire.CompletionResult, len(outcomes))
	for i, out := range outcomes {
		results[i] = wire.CompletionResult{TaskID: items[i].TaskID, Status: completionStatus(out.Err)}
		if out.Err != nil {
			results[i].Error = out.Err.Error()
		}
	}
	*bp = wire.AppendCompletionResults((*bp)[:0], results)
	writeAnswer(w, http.StatusOK, *bp)
}

// --- analytics ------------------------------------------------------------------

// experimentOf returns the experiment the analytics answers and the
// history, trace and diff pages are about: the one ?experiment= names, or
// the project's first when it names none — nil for a project without
// experiments. Query ids are pool-local, so no answer mixes experiments.
// ok is false once an error has been answered.
func experimentOf(w http.ResponseWriter, r *http.Request, p *repository.Project) (exp *repository.Experiment, ok bool) {
	v := r.URL.Query().Get("experiment")
	if v == "" {
		if len(p.Experiments) == 0 {
			return nil, true
		}
		return p.Experiments[0], true
	}
	id, err := strconv.Atoi(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query parameter experiment must be an experiment id"))
		return nil, false
	}
	if exp = p.Experiment(id); exp == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %d", id))
		return nil, false
	}
	return exp, true
}

// projectRuns converts the visible results of one experiment of a project
// into analytics runs, one per result whose query is in the pool, targeted
// at its "dbms@platform" label; the runs of one (DBMS, platform) pair share
// one label string. A nil exp takes every experiment's results, as the CSV
// export lists them, which are none for a project without experiments.
func projectRuns(p *repository.Project, results []*repository.Result, exp *repository.Experiment) []analytics.Run {
	type pair struct{ dbms, platform string }
	labels := map[pair]string{}
	runs := make([]analytics.Run, 0, len(results))
	for _, res := range results {
		e := exp
		if e == nil {
			e = p.Experiment(res.ExperimentID)
		} else if res.ExperimentID != e.ID {
			continue
		}
		if e == nil {
			continue
		}
		q := e.Query(res.QueryID)
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
			Error:      res.Error,
		}
		key := pair{res.DBMSKey, res.PlatformKey}
		if run.Target = labels[key]; run.Target == "" {
			run.Target = res.DBMSKey + "@" + res.PlatformKey
			labels[key] = run.Target
		}
		if !res.Failed() {
			run.Seconds = res.MinSeconds()
		}
		runs = append(runs, run)
	}
	return runs
}

// experimentRuns answers the analytics routes' common part: the project,
// the experiment and the visible runs of target, read from the target's
// lanes as the history page reads them; "" is every target.
func (s *Server) experimentRuns(w http.ResponseWriter, r *http.Request, target string) ([]analytics.Run, bool) {
	p, viewer, ok := s.loadProject(w, r)
	if !ok {
		return nil, false
	}
	exp, ok := experimentOf(w, r, p)
	if !ok {
		return nil, false
	}
	switch {
	case target == "":
		return projectRuns(p, s.store.Results(viewer, p.ID), exp), true
	case exp == nil:
		return nil, true
	}
	return projectRuns(p, s.store.TargetResults(viewer, p.ID, exp.ID, target), exp), true
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	target := r.URL.Query().Get("target")
	if runs, ok := s.experimentRuns(w, r, target); ok {
		writeJSON(w, http.StatusOK, analytics.History(runs, target))
	}
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	target := r.URL.Query().Get("target")
	if runs, ok := s.experimentRuns(w, r, target); ok {
		writeJSON(w, http.StatusOK, analytics.Components(runs, target))
	}
}

func (s *Server) handleSpeedup(w http.ResponseWriter, r *http.Request) {
	base := r.URL.Query().Get("base")
	other := r.URL.Query().Get("other")
	if runs, ok := s.experimentRuns(w, r, ""); ok {
		writeJSON(w, http.StatusOK, analytics.Speedup(runs, base, other))
	}
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	runs, ok := s.experimentRuns(w, r, "")
	if !ok {
		return
	}
	a, err := queryInt(r, "a")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b, err := queryInt(r, "b")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d, err := analytics.Diff(runs, a, b)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}
