package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqalpel/internal/engine"
	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/trace"
)

// The wrappers in this file are how the harness sees into the program
// without changing it: each one sits on an interface or hook the platform
// already exposes (engine.Engine, metrics.Target, http.Handler,
// http.RoundTripper) and records a span around the call it forwards.

// engineLayer names the layer an engine's Execute time is charged to.
func engineLayer(key string) string {
	switch {
	case strings.HasPrefix(key, "vektor"):
		return "vexec"
	case strings.HasPrefix(key, "fusil"):
		return "cexec"
	}
	return "engine"
}

// inflight maps a running (engine, sql) measurement to the span that
// encloses it, so that an Execute reached through core.EngineTarget (which
// hops goroutines and carries no context) finds its parent span.
type inflight struct {
	mu sync.Mutex
	m  map[string]int
}

func (f *inflight) set(engineKey, sql string, id int) {
	f.mu.Lock()
	if f.m == nil {
		f.m = map[string]int{}
	}
	f.m[engineKey+"\x00"+sql] = id
	f.mu.Unlock()
}

func (f *inflight) get(engineKey, sql string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.m[engineKey+"\x00"+sql]
	return id, ok
}

func (f *inflight) del(engineKey, sql string) {
	f.mu.Lock()
	delete(f.m, engineKey+"\x00"+sql)
	f.mu.Unlock()
}

// tracedEngine is the traced run's stand-in for a registry engine. It
// resolves the plan through the engine's own plan cache before forwarding —
// with the harness's parse and plan-build spans inside the builder — so the
// engine's lookup that follows is a hit and the front-end work is neither
// hidden nor done twice. It also installs ExecOptions.Tracer and attaches
// the operator spans the engine reports to its Execute span.
type tracedEngine struct {
	engine.Engine
	key    string
	rec    *recorder
	plans  *plan.Cache
	parent *atomic.Int64 // span to nest under when no measurement is in flight
	flight *inflight
}

func newTracedEngine(reg *engine.Registry, key string, rec *recorder, parent *atomic.Int64, flight *inflight) *tracedEngine {
	return &tracedEngine{Engine: reg.Get(key), key: key, rec: rec, plans: reg.PlanCache(), parent: parent, flight: flight}
}

// SetPlanCache implements engine.PlanCached, keeping the wrapper's view of
// the cache in step with the engine's.
func (e *tracedEngine) SetPlanCache(c *plan.Cache) {
	e.plans = c
	if pc, ok := e.Engine.(engine.PlanCached); ok {
		pc.SetPlanCache(c)
	}
}

// PlanCacheStats implements engine.PlanCached.
func (e *tracedEngine) PlanCacheStats() (hits, misses uint64) {
	if e.plans == nil {
		return 0, 0
	}
	return e.plans.Stats()
}

func (e *tracedEngine) Execute(db *engine.Database, sql string, opts engine.ExecOptions) (*engine.Result, error) {
	parent, ok := e.flight.get(e.key, sql)
	if !ok {
		parent = int(e.parent.Load())
	}
	opID := opIDFor(sql)
	id := e.rec.begin(parent, engineLayer(e.key), "Engine.Execute "+e.key, opID)
	if e.plans != nil {
		// The error, if any, is cached and reported by the engine's own lookup.
		_, _ = e.plans.GetOrBuild(plan.Key(db, db.Version(), sql), func() (*plan.Plan, error) {
			ps := e.rec.begin(id, "sqlparser", "sqlparser.Parse", opID)
			stmt, err := sqlparser.Parse(sql)
			e.rec.end(ps)
			if err != nil {
				return nil, fmt.Errorf("parse error: %w", err)
			}
			pb := e.rec.begin(id, "plan", "plan.BuildStmt", opID)
			p, err := plan.BuildStmt(db, stmt)
			e.rec.end(pb)
			return p, err
		})
	}
	if opts.Tracer == nil {
		opts.Tracer = trace.NewTracer()
	}
	res, err := e.Engine.Execute(db, sql, opts)
	e.rec.endOps(id, opSpansOf(opts.Tracer.Trace(e.key)))
	return res, err
}

func opSpansOf(qt *trace.QueryTrace) []opSpan {
	if qt == nil {
		return nil
	}
	out := make([]opSpan, len(qt.Spans))
	for i, s := range qt.Spans {
		out[i] = opSpan{OpID: s.OpID, Kind: s.Kind, WallNS: s.WallNS, Rows: s.Rows}
	}
	return out
}

// opIDFor is the identifier shared by the spans of one statement.
func opIDFor(sql string) string {
	return fmt.Sprintf("%016x", hashOf(sql))
}

func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// contextTarget is what core.EngineTarget offers the measurement plane.
type contextTarget interface {
	metrics.ContextTarget
	SetTrace(bool)
}

// spanTarget records a span around every repetition a target runs and
// registers it as the parent of the Execute underneath.
type spanTarget struct {
	contextTarget
	name   string
	rec    *recorder
	parent *atomic.Int64
	flight *inflight
}

func (t *spanTarget) Run(query string) (int, map[string]string, error) {
	return t.RunContext(context.Background(), query)
}

func (t *spanTarget) RunContext(ctx context.Context, query string) (int, map[string]string, error) {
	id := t.rec.begin(int(t.parent.Load()), "core", "EngineTarget.Run "+t.name, opIDFor(query))
	t.flight.set(t.name, query, id)
	rows, extra, err := t.contextTarget.RunContext(ctx, query)
	t.flight.del(t.name, query)
	t.rec.end(id)
	return rows, extra, err
}

// cellTarget times measurement cells from the target's side: from the start
// of a query's first repetition to the end of its last. The scheduler never
// measures one (target, SQL) pair twice, so the SQL text identifies the cell.
type cellTarget struct {
	metrics.ContextTarget
	runs int
	// done, if set, is called after a cell's last repetition, outside the
	// cell's time (but inside what the scheduler takes that repetition to
	// have lasted, which nothing the benchmark reports is read from).
	done func()

	mu     sync.Mutex
	open   map[string]*openCell
	cells  []time.Duration
	failed int // cells whose measurement ended in an error
}

type openCell struct {
	start time.Time
	seen  int
}

func (t *cellTarget) Run(query string) (int, map[string]string, error) {
	return t.RunContext(context.Background(), query)
}

func (t *cellTarget) RunContext(ctx context.Context, query string) (int, map[string]string, error) {
	start := time.Now()
	t.mu.Lock()
	c := t.open[query]
	if c == nil {
		c = &openCell{start: start}
		if t.open == nil {
			t.open = map[string]*openCell{}
		}
		t.open[query] = c
	}
	t.mu.Unlock()
	rows, extra, err := t.ContextTarget.RunContext(ctx, query)
	end := time.Now()
	t.mu.Lock()
	c.seen++
	closed := false
	switch {
	case err != nil:
		t.failed++
		delete(t.open, query)
	case c.seen == t.runs:
		t.cells = append(t.cells, end.Sub(c.start))
		delete(t.open, query)
		closed = true
	}
	t.mu.Unlock()
	if closed && t.done != nil {
		t.done()
	}
	return rows, extra, err
}

// take returns the cell times collected so far and forgets them.
func (t *cellTarget) take() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.cells
	t.cells = nil
	return out
}

// spanHeader carries the client-side span id to the server-side middleware.
const spanHeader = "X-Bench-Span"

// platformHandler wraps the platform's http.Handler. It always counts the
// responses the correctness check needs (409 = a lost lease); in the traced
// run it also records a span per request, nested under the client-side span
// named by the spanHeader.
type platformHandler struct {
	next http.Handler
	rec  *recorder

	leaseLost atomic.Int64
	errors    atomic.Int64
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *platformHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	id := 0
	if h.rec != nil {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id = h.rec.begin(parent, "server", "Server.ServeHTTP "+r.Method+" "+routeOf(r.URL.Path), "")
	}
	h.next.ServeHTTP(sw, r)
	h.rec.end(id)
	switch {
	case sw.status == http.StatusConflict:
		h.leaseLost.Add(1)
	case sw.status >= 400:
		h.errors.Add(1)
	}
}

// routeOf strips ids from a path so spans of one route share a name.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		if _, err := strconv.Atoi(p); err == nil {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

// spanTransport records the client side of every HTTP round trip and hands
// its span id to the server side. The traced run installs it as
// http.DefaultTransport, which is the transport driver.Client uses.
type spanTransport struct {
	base   http.RoundTripper
	rec    *recorder
	parent *atomic.Int64
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.rec.begin(int(t.parent.Load()), "http", "http "+r.Method+" "+routeOf(r.URL.Path), "")
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(r)
	t.rec.end(id)
	return resp, err
}
