package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqalpel/internal/core"
	"sqalpel/internal/driver"
	"sqalpel/internal/engine"
	"sqalpel/internal/repository"
	"sqalpel/internal/server"
	"sqalpel/internal/workload"
)

// drainSizes size task_drain and task_drain_readers. The projects' pools are
// grown over the API from Q1 and Q2, the large-space baselines whose every
// morph runs on all three engines (morphs of Q7 and Q18 crash columba-2.0 in
// projectGrouped on an empty group; morphs of Q3, Q10, Q16 and Q21 lose a
// column their ORDER BY names). They are grown, not seeded with seed_random,
// because random seeding does not repeat (see searchSizes). Every query is a
// task once per (DBMS key, platform key) lane, and the lanes hold more tasks
// than the window can drain, so the window always ends on its deadline. The
// database is as small as the generator makes it, so that leasing, HTTP, the
// handlers and the write-ahead log outweigh the engines.
type drainSizes struct {
	sf              float64
	shards          int
	baselines       []string // one project each
	growN           int      // morphs grown into each project's experiment
	platforms       []string // platform keys; each multiplies the tasks
	runs            int      // repetitions per task
	workers         int      // driver workers
	batch           int      // tasks per lease
	chunk           int      // tasks per Client.RunAll call of one lane
	checkpointEvery int      // completions between two Store.Checkpoint calls
}

var (
	drainNormal = drainSizes{sf: 0.0001, shards: 8, baselines: []string{"Q1", "Q2", "Q1", "Q2"}, growN: 400,
		platforms: []string{"bench-a", "bench-b", "bench-c", "bench-d", "bench-e", "bench-f"}, runs: 1, workers: 2, batch: 4, chunk: 8, checkpointEvery: 1000}
	drainSmoke = drainSizes{sf: 0.0001, shards: 8, baselines: []string{"Q1", "Q2", "Q1", "Q2"}, growN: 40,
		platforms: []string{"bench-a"}, runs: 1, workers: 2, batch: 4, chunk: 8, checkpointEvery: 60}
)

// drainLane is one (DBMS key, platform key, project) triple with its driver
// client.
type drainLane struct {
	dbms    string
	project int
	client  *driver.Client
}

type drainProject struct {
	id, experiment int
	key            string
}

type taskDrain struct {
	cfg     config
	sizes   drainSizes
	readers bool

	dir      string
	store    *repository.Store
	handler  *platformHandler
	srv      *httptest.Server
	projects []drainProject
	reg      *engine.Registry
	db       *engine.Database
	setups   int
	// acked counts the completions the driver reported as acknowledged.
	acked int
	// lastCheckpoints holds the last window's checkpoint times in ms.
	lastCheckpoints []float64
	// drainedEarly is set when the last window ran out of tasks before its
	// deadline: its rates stand, but it measured for less than asked.
	drainedEarly bool
}

func newTaskDrain(cfg config, readers bool) *taskDrain {
	t := &taskDrain{cfg: cfg, sizes: drainNormal, readers: readers}
	if cfg.smoke {
		t.sizes = drainSmoke
	}
	if readers {
		// One driver worker beside one reader connection: two clients on two
		// processors, like the two driver workers of task_drain.
		t.sizes.workers = 1
	}
	return t
}

// poster posts a JSON body to a path of the platform API and returns the
// status and the reply; the platform is either behind a socket or a bare
// http.Handler.
type poster func(path, token string, body any) (int, []byte, error)

func httpPoster(base string) poster {
	return func(path, token string, body any) (int, []byte, error) {
		payload, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("X-Sqalpel-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}
}

func handlerPoster(h http.Handler) poster {
	return func(path, token string, body any) (int, []byte, error) {
		payload, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("X-Sqalpel-Token", token)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.Bytes(), nil
	}
}

// postJSON posts and decodes a JSON object reply, failing on an error status.
func (p poster) postJSON(path, token string, body any) (map[string]any, error) {
	status, data, err := p(path, token, body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("POST %s: status %d, decoding reply: %w", path, status, err)
	}
	if status >= 300 {
		return nil, fmt.Errorf("POST %s: status %d: %v", path, status, out["error"])
	}
	return out, nil
}

// createProjects registers an owner and creates one public project per
// baseline, each with one experiment whose pool the server grows by growN
// morphs; all of it goes over the API.
func createProjects(post poster, baselines []string, growN int) ([]drainProject, error) {
	reg, err := post.postJSON("/api/register", "", map[string]any{"nickname": "bench", "email": "bench@example.org"})
	if err != nil {
		return nil, err
	}
	token, _ := reg["token"].(string)
	var out []drainProject
	for i, id := range baselines {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			return nil, err
		}
		created, err := post.postJSON("/api/projects", token, map[string]any{"name": fmt.Sprintf("drain-%d-%s", i, id), "public": true})
		if err != nil {
			return nil, err
		}
		view, _ := created["project"].(map[string]any)
		pid, _ := view["id"].(float64)
		key, _ := created["key"].(string)
		exp, err := post.postJSON(fmt.Sprintf("/api/projects/%d/experiments", int(pid)), token,
			map[string]any{"title": id + " variants", "baseline_sql": q.SQL})
		if err != nil {
			return nil, err
		}
		eid, _ := exp["experiment_id"].(float64)
		grown, err := post.postJSON(fmt.Sprintf("/api/projects/%d/experiments/%d/grow", int(pid), int(eid)), token, map[string]any{"count": growN})
		if err != nil {
			return nil, err
		}
		if count, _ := grown["query_count"].(float64); int(count) != growN+1 {
			return nil, fmt.Errorf("project %s: the pool holds %v queries, want %d", id, grown["query_count"], growN+1)
		}
		out = append(out, drainProject{id: int(pid), experiment: int(eid), key: key})
	}
	return out, nil
}

// setup opens a fresh durable store behind a loopback server, seeds the
// projects over the API and generates the driver's database.
func (t *taskDrain) setup() error {
	t.close()
	t.setups++
	t.dir = filepath.Join(t.cfg.outDir, "tmp", fmt.Sprintf("%s-%d-%d", t.cfg.workload, os.Getpid(), t.setups))
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	store, err := repository.Open(t.dir, t.sizes.shards)
	if err != nil {
		return err
	}
	t.store = store
	t.handler = &platformHandler{next: server.New(server.Options{Store: store})}
	t.srv = httptest.NewServer(t.handler)
	t.projects, err = createProjects(httpPoster(t.srv.URL), t.sizes.baselines, t.sizes.growN)
	if err != nil {
		return err
	}
	t.reg = engine.NewRegistry()
	t.db = tpchDB(t.sizes.sf)
	t.acked = 0
	return nil
}

func (t *taskDrain) close() {
	if t.srv != nil {
		t.srv.Close()
		t.srv = nil
	}
	if t.store != nil {
		_ = t.store.Close() // the directory is removed next; nothing to lose
		t.store = nil
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
		t.dir = ""
	}
}

// pageURL is the i-th page the reader fetches: the four routes in turn, on
// the projects in turn.
func (t *taskDrain) pageURL(i int) (route, url string) {
	route = pageRoutes[i%len(pageRoutes)]
	p := t.projects[(i/len(pageRoutes))%len(t.projects)]
	switch route {
	case "pool":
		url = fmt.Sprintf("%s/projects/%d/experiments/%d/pool", t.srv.URL, p.id, p.experiment)
	case "history":
		url = fmt.Sprintf("%s/projects/%d/history", t.srv.URL, p.id)
	case "results":
		url = fmt.Sprintf("%s/api/projects/%d/results", t.srv.URL, p.id)
	case "trace":
		url = fmt.Sprintf("%s/projects/%d/trace?query=%d", t.srv.URL, p.id, 1+i%t.sizes.growN)
	}
	return route, url
}

// pageSample is one page the reader fetched.
type pageSample struct {
	route string
	ms    float64
	ok    bool
	done  time.Time
}

// read loops over the pages on one connection until stop closes.
func (t *taskDrain) read(stop <-chan struct{}, rec *recorder, root int) []pageSample {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var out []pageSample
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		default:
		}
		route, url := t.pageURL(i)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			out = append(out, pageSample{route: route})
			continue
		}
		id := rec.begin(root, "http", "reader GET "+route, "")
		req.Header.Set(spanHeader, fmt.Sprint(id))
		t0 := time.Now()
		resp, err := client.Do(req)
		ok := err == nil
		if ok {
			_, cerr := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = cerr == nil && resp.StatusCode == http.StatusOK
		}
		done := time.Now()
		out = append(out, pageSample{route: route, ms: ms(done.Sub(t0)), ok: ok, done: done})
		rec.end(id)
	}
}

func (t *taskDrain) window(d time.Duration, rec *recorder) (*windowResult, error) {
	var parent atomic.Int64
	flight := &inflight{}
	t.handler.rec = rec
	if rec != nil {
		base := http.DefaultTransport
		http.DefaultTransport = &spanTransport{base: base, rec: rec, parent: &parent}
		defer func() { http.DefaultTransport = base }()
	}
	targets := map[string]contextTarget{}
	for _, key := range benchEngines {
		var eng engine.Engine = t.reg.Get(key)
		if rec != nil {
			eng = newTracedEngine(t.reg, key, rec, &parent, flight)
		}
		targets[key] = &core.EngineTarget{Engine: eng, DB: t.db, Parallelism: 1}
		if rec != nil {
			targets[key] = &spanTarget{contextTarget: targets[key], name: key, rec: rec, parent: &parent, flight: flight}
		}
	}
	var lanes []drainLane
	for _, key := range benchEngines {
		for _, platform := range t.sizes.platforms {
			for i, p := range t.projects {
				c, err := driver.NewClient(driver.Config{
					Server: t.srv.URL, Key: p.key, DBMS: key, Platform: platform, Experiment: p.experiment,
					Runs: t.sizes.runs, Timeout: time.Minute, Workers: t.sizes.workers, Batch: t.sizes.batch,
					Trace: t.readers, // traced results carry span trees, so the readers' pages are larger
				})
				if err != nil {
					return nil, err
				}
				lanes = append(lanes, drainLane{dbms: key, project: i, client: c})
			}
		}
	}
	rand.New(rand.NewSource(t.cfg.seed)).Shuffle(len(lanes), func(i, j int) { lanes[i], lanes[j] = lanes[j], lanes[i] })

	win := &windowResult{}
	h0, m0 := t.reg.PlanCache().Stats()
	root := rec.begin(0, "harness", "window "+t.cfg.workload, "")

	// The daemon checkpoints on a timer; here the trigger is a completion
	// count, so that the same checkpoints happen in every run.
	checkpoint := make(chan struct{}, 1) // one pending trigger is enough
	var background sync.WaitGroup
	var checkpoints []float64
	var checkpointErr error
	background.Add(1)
	go func() {
		defer background.Done()
		for range checkpoint {
			id := rec.begin(root, "repository", "Store.Checkpoint", "")
			t0 := time.Now()
			if err := t.store.Checkpoint(); err != nil && checkpointErr == nil {
				checkpointErr = err
			}
			checkpoints = append(checkpoints, ms(time.Since(t0)))
			rec.end(id)
		}
	}()
	stopReader := make(chan struct{})
	var pages []pageSample
	if t.readers {
		background.Add(1)
		go func() {
			defer background.Done()
			pages = t.read(stopReader, rec, root)
		}()
	}

	start := time.Now()
	var runErr error
	nextCheckpoint := t.sizes.checkpointEvery
	var cycleEnds []time.Time
	for time.Since(start) < d && len(lanes) > 0 && runErr == nil {
		// Whole cycles over the lanes, so the mix of engines never varies.
		cycleStart, acked := time.Now(), t.acked
		live := lanes[:0]
		for _, lane := range lanes {
			win.tick()
			id := rec.begin(root, "driver", "Client.RunAll "+lane.dbms, "")
			parent.Store(int64(id))
			n, err := lane.client.RunAll(targets[lane.dbms], t.sizes.chunk)
			rec.end(id)
			t.acked += n
			if err != nil {
				runErr = fmt.Errorf("draining %s on project %d: %w", lane.dbms, lane.project, err)
				break
			}
			if n == t.sizes.chunk {
				live = append(live, lane)
			}
			if t.acked >= nextCheckpoint {
				nextCheckpoint += t.sizes.checkpointEvery
				select {
				case checkpoint <- struct{}{}:
				default:
				}
			}
		}
		lanes = live
		win.closeCycle(time.Since(cycleStart), t.acked-acked, nil)
		cycleEnds = append(cycleEnds, time.Now())
	}
	win.wall = time.Since(start)
	close(stopReader)
	close(checkpoint)
	background.Wait()
	rec.end(root)
	if runErr != nil {
		return nil, runErr
	}
	if checkpointErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", checkpointErr)
	}
	t.drainedEarly = len(lanes) == 0

	// cycleOf returns the cycle a moment of the window belongs to.
	cycleOf := func(at time.Time) int {
		c := sort.Search(len(cycleEnds), func(i int) bool { return !cycleEnds[i].Before(at) })
		if c == len(cycleEnds) {
			c--
		}
		return c
	}
	win.ops = t.acked
	for _, p := range t.projects {
		for _, task := range t.store.Tasks("", p.id) {
			switch task.Status {
			case repository.TaskDone:
				// A task belongs to the cycle it finished in.
				win.file(cycleOf(task.Finished), sample{task.DBMSKey, ms(task.Finished.Sub(task.Assigned))}, true)
			case repository.TaskRunning:
				// Leased in the last batch and cut off by the deadline.
			default:
				win.failed++
			}
		}
	}
	for _, p := range pages {
		win.sideOps++
		if !p.ok {
			win.failed++
			continue
		}
		win.file(cycleOf(p.done), sample{"page." + p.route, p.ms}, false)
	}
	win.failed += int(t.handler.errors.Load())
	win.leaseLost = int(t.handler.leaseLost.Load())
	h1, m1 := t.reg.PlanCache().Stats()
	win.planHits, win.planMisses = h1-h0, m1-m0
	t.lastCheckpoints = checkpoints
	return win, nil
}

// verify restarts the platform — close, then recover from the directory —
// and requires that the recovered store holds exactly the acknowledged
// completions, one result per (query, DBMS, platform) slot, and that no
// lease was lost on the way.
func (t *taskDrain) verify(rep *report, win *windowResult) {
	t.srv.Close()
	t.srv = nil
	if err := t.store.Close(); err != nil {
		rep.problem("closing the store: %v", err)
	}
	t.store = nil
	t0 := time.Now()
	store, err := repository.Open(t.dir, t.sizes.shards)
	if err != nil {
		rep.problem("recovering the store: %v", err)
		return
	}
	recoverTime := time.Since(t0)
	stored, bad := 0, 0
	slots := map[string]bool{}
	for _, p := range t.projects {
		for _, r := range store.Results("", p.id) {
			stored++
			if r.Failed() || len(r.Seconds) != t.sizes.runs {
				bad++
			}
			slot := fmt.Sprintf("%d/%d/%d/%s/%s", r.ProjectID, r.ExperimentID, r.QueryID, r.DBMSKey, r.PlatformKey)
			if slots[slot] {
				rep.problem("slot %s holds two results", slot)
			}
			slots[slot] = true
		}
	}
	if err := store.Close(); err != nil {
		rep.problem("closing the recovered store: %v", err)
	}
	if stored != t.acked {
		rep.problem("the recovered store holds %d results, the driver had %d completions acknowledged", stored, t.acked)
	}
	if bad > 0 {
		rep.problem("%d stored results are failed or short of %d repetitions", bad, t.sizes.runs)
	}
	if win.leaseLost != 0 {
		rep.problem("driver.lease_lost = %d, want 0", win.leaseLost)
	}
	rep.note("%d projects x %d queries x 3 DBMS keys x %d platform keys on SF %s, %d runs a task, %d driver workers, batch %d, checkpoint every %d completions (%d ran, median %.2f ms)",
		len(t.projects), t.sizes.growN+1, len(t.sizes.platforms), sfKey(t.sizes.sf), t.sizes.runs, t.sizes.workers, t.sizes.batch, t.sizes.checkpointEvery, len(t.lastCheckpoints), median(t.lastCheckpoints))
	rep.note("recovered %d results in %.1f ms: equal to the %d acknowledged completions, one per slot, %d leases lost", stored, ms(recoverTime), t.acked, win.leaseLost)
	if t.drainedEarly {
		rep.note("every lane was drained after %.2f s, before the window's deadline: raise growN or add platform keys", win.wall.Seconds())
	}
	rep.note("tasks_per_s %.4f  task_p50_ms %.4f  task_p95_ms %.4f", win.opsPerSecond(), win.p50(), win.p95())
	if t.readers {
		var pages []float64
		for _, r := range pageRoutes {
			pages = append(pages, win.classes["page."+r]...)
		}
		rep.note("page_p50_ms %.4f  page_p95_ms %.4f over %d pages", median(pages), percentile(pages, 95), len(pages))
	}
	os.RemoveAll(t.dir)
	t.dir = ""
}
