package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqalpel/internal/metrics"
	"sqalpel/internal/server"
	"sqalpel/internal/workload"
)

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(`
# sqalpel driver configuration
server = http://localhost:8080
key = abc123
dbms = columba-1.0
platform = laptop
experiment = 1
runs = 3
timeout_seconds = 30
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Server != "http://localhost:8080" || cfg.Key != "abc123" || cfg.DBMS != "columba-1.0" {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.Runs != 3 || cfg.Timeout != 30*time.Second || cfg.Experiment != 1 {
		t.Errorf("config = %+v", cfg)
	}
	// host is an alias for platform.
	cfg2, err := ParseConfig("server=s\nkey=k\ndbms=d\nhost=h\nexperiment=2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Platform != "h" || cfg2.Runs != metrics.DefaultRuns {
		t.Errorf("config = %+v", cfg2)
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		"nonsense line",
		"unknown = value\nserver=s\nkey=k\ndbms=d\nplatform=p\nexperiment=1",
		"server=s\nkey=k\ndbms=d\nplatform=p\nexperiment=zero",
		"server=s\nkey=k\ndbms=d\nplatform=p\nexperiment=1\nruns=-1",
		"server=s\nkey=k\ndbms=d\nplatform=p\nexperiment=1\ntimeout_seconds=x",
		// A timeout whose duration, or the client's doubled one, overflows.
		"server=s\nkey=k\ndbms=d\nplatform=p\nexperiment=1\ntimeout_seconds=4611686019",
		"server=s\nkey=k\ndbms=d\nplatform=p\nexperiment=1\ntimeout_seconds=9223372037",
		"key=k\ndbms=d\nplatform=p\nexperiment=1",    // missing server
		"server=s\ndbms=d\nplatform=p\nexperiment=1", // missing key
		"server=s\nkey=k\nplatform=p\nexperiment=1",  // missing dbms
		"server=s\nkey=k\ndbms=d\nexperiment=1",      // missing platform
		"server=s\nkey=k\ndbms=d\nplatform=p",        // missing experiment
	}
	for _, src := range bad {
		if _, err := ParseConfig(src); err == nil {
			t.Errorf("config %q should be rejected", src)
		}
	}
}

// FuzzParseConfig: ParseConfig never panics, and a config it accepts is
// one a client can run with — positive runs, workers and timeout, a
// doubled timeout that does not overflow, and the mandatory fields set.
func FuzzParseConfig(f *testing.F) {
	f.Add("server=http://x\nkey=k\ndbms=d\nplatform=p\nexperiment=3\n")
	f.Add("server=s\nkey=k\ndbms=d\nhost=p\nexperiment=1\nruns=2\ntimeout_seconds=4611686018\nworkers=4\nbatch=8\ntrace=true")
	f.Add("server=s\nkey=k\ndbms=d\nplatform=p\nexperiment=1\ntimeout_seconds=9223372037")
	f.Add("# comment\n\nruns = -1\n")
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseConfig(text)
		if err != nil {
			return
		}
		if cfg.Runs <= 0 || cfg.Workers <= 0 || cfg.Timeout <= 0 || 2*cfg.Timeout <= 0 {
			t.Fatalf("accepted %q as %+v", text, cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %q, but Validate: %v", text, err)
		}
	})
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sqalpel.conf")
	content := "server=http://x\nkey=k\ndbms=d\nplatform=p\nexperiment=3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Experiment != 3 {
		t.Errorf("config = %+v", cfg)
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.conf")); err == nil {
		t.Error("missing file should fail")
	}
}

// setupPlatform spins up a real platform server with one project, one
// experiment and the owner's contributor key.
func setupPlatform(t *testing.T) (baseURL, key string, experiment int) {
	t.Helper()
	s := server.New(server.Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	post := func(path, token string, body map[string]any) map[string]any {
		payload, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("X-Sqalpel-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]any{}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode >= 400 {
			t.Fatalf("POST %s failed: %d %v", path, resp.StatusCode, out)
		}
		return out
	}

	reg := post("/api/register", "", map[string]any{"nickname": "driver-owner", "email": "d@example.org"})
	token := reg["token"].(string)
	proj := post("/api/projects", token, map[string]any{"name": "driver-project", "public": true})
	pid := int(proj["project"].(map[string]any)["id"].(float64))
	key = proj["key"].(string)
	exp := post(fmt.Sprintf("/api/projects/%d/experiments", pid), token, map[string]any{
		"title": "nation", "baseline_sql": workload.NationBaselineQuery, "seed_random": 3,
	})
	return ts.URL, key, int(exp["experiment_id"].(float64))
}

func TestClientEndToEnd(t *testing.T) {
	url, key, eid := setupPlatform(t)
	cfg := Config{Server: url, Key: key, DBMS: "columba-1.0", Platform: "laptop", Experiment: eid, Runs: 2, Timeout: 5 * time.Second}
	client, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if client.Config().Runs != 2 {
		t.Error("config accessor wrong")
	}

	// A fake local DBMS target: fails on queries mentioning n_comment.
	target := metrics.TargetFunc(func(query string) (int, map[string]string, error) {
		if strings.Contains(query, "n_comment") {
			return 0, nil, fmt.Errorf("simulated syntax error")
		}
		return 3, map[string]string{"engine": "fake"}, nil
	})

	n, err := client.RunAll(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		t.Fatalf("processed %d tasks, want the whole pool", n)
	}
	// The pool is exhausted now.
	more, err := client.RunOnce(target)
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Error("pool should be exhausted")
	}
	// The platform stored results, including the failed ones.
	resp, err := http.Get(url + fmt.Sprintf("/api/projects/%d/results", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Errorf("platform has %d results, driver processed %d", len(results), n)
	}
	sawError, sawExtra := false, false
	for _, r := range results {
		if msg, ok := r["error"].(string); ok && msg != "" {
			sawError = true
		}
		if extra, ok := r["extra"].(map[string]any); ok {
			if _, ok := extra["before_load_avg_1"]; ok {
				sawExtra = true
			}
		}
	}
	if !sawError {
		t.Error("expected at least one error result (n_comment queries)")
	}
	if !sawExtra {
		t.Error("expected load averages in the extras")
	}
}

func TestClientBadKey(t *testing.T) {
	url, _, eid := setupPlatform(t)
	client, err := NewClient(Config{Server: url, Key: "wrong", DBMS: "d", Platform: "p", Experiment: eid, Runs: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestTask(); err == nil {
		t.Error("request with a bad key should fail")
	}
}

func TestClientMaxTasks(t *testing.T) {
	url, key, eid := setupPlatform(t)
	client, _ := NewClient(Config{Server: url, Key: key, DBMS: "x-1", Platform: "p", Experiment: eid, Runs: 1, Timeout: time.Second})
	target := metrics.TargetFunc(func(query string) (int, map[string]string, error) { return 1, nil, nil })
	n, err := client.RunAll(target, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("maxTasks not honoured: %d", n)
	}
}

func TestNewClientValidates(t *testing.T) {
	if _, err := NewClient(Config{}); err == nil {
		t.Error("empty config should be rejected")
	}
}

// countingTarget counts executions per query under a lock so concurrent
// workers can share it.
type countingTarget struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingTarget) Run(query string) (int, map[string]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls == nil {
		c.calls = map[string]int{}
	}
	c.calls[query]++
	return 1, nil, nil
}

// fetchResults pulls the project's result rows from the platform.
func fetchResults(t *testing.T, url string) []map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/api/projects/1/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var results []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	return results
}

func TestBatchClaimingWorkerPool(t *testing.T) {
	url, key, eid := setupPlatform(t)
	cfg := Config{
		Server: url, Key: key, DBMS: "columba-1.0", Platform: "laptop",
		Experiment: eid, Runs: 2, Timeout: 5 * time.Second, Workers: 4, Batch: 3,
	}
	client, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := &countingTarget{}
	n, err := client.RunAll(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		t.Fatalf("processed %d tasks, want the whole pool", n)
	}
	// Every query executed exactly Runs times: the worker pool neither
	// skipped nor double-measured anything.
	target.mu.Lock()
	for query, calls := range target.calls {
		if calls != cfg.Runs {
			t.Errorf("query %q executed %d times, want %d", query, calls, cfg.Runs)
		}
	}
	target.mu.Unlock()
	results := fetchResults(t, url)
	if len(results) != n {
		t.Errorf("platform has %d results, driver processed %d", len(results), n)
	}
	seen := map[float64]bool{}
	for _, r := range results {
		qid := r["query_id"].(float64)
		if seen[qid] {
			t.Errorf("query %v measured twice", qid)
		}
		seen[qid] = true
	}
}

func TestConcurrentDriversShareOneExperiment(t *testing.T) {
	url, key, eid := setupPlatform(t)
	// Two drivers with their own worker pools drain the same experiment for
	// the same DBMS + platform slot — the crowd-sourcing scenario. The
	// per-lease deadlines on the server guarantee no double measurements.
	var wg sync.WaitGroup
	totals := make([]int, 2)
	for i := range totals {
		cfg := Config{
			Server: url, Key: key, DBMS: "columba-1.0", Platform: "laptop",
			Experiment: eid, Runs: 1, Timeout: 5 * time.Second, Workers: 3, Batch: 2,
		}
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			n, err := client.RunAll(&countingTarget{}, 0)
			if err != nil {
				t.Error(err)
			}
			totals[slot] = n
		}(i)
	}
	wg.Wait()

	results := fetchResults(t, url)
	if got := totals[0] + totals[1]; got != len(results) {
		t.Errorf("drivers processed %d tasks, platform has %d results", got, len(results))
	}
	seen := map[float64]bool{}
	for _, r := range results {
		qid := r["query_id"].(float64)
		if seen[qid] {
			t.Errorf("query %v measured by more than one driver", qid)
		}
		seen[qid] = true
	}
	if len(seen) < 4 {
		t.Errorf("only %d distinct queries measured, want the whole pool", len(seen))
	}
}

func TestParseConfigWorkersAndBatch(t *testing.T) {
	cfg, err := ParseConfig("server = s\nkey = k\ndbms = d\nplatform = p\nexperiment = 1\nworkers = 4\nbatch = 8\n")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.Batch != 8 {
		t.Errorf("config = %+v", cfg)
	}
	if _, err := ParseConfig("server = s\nkey = k\ndbms = d\nplatform = p\nexperiment = 1\nworkers = 0\n"); err == nil {
		t.Error("workers = 0 should be rejected")
	}
	if _, err := ParseConfig("server = s\nkey = k\ndbms = d\nplatform = p\nexperiment = 1\nbatch = -1\n"); err == nil {
		t.Error("negative batch should be rejected")
	}
}

// mockPlatform is a stand-in for the driver protocol of the platform. It
// leases task ids 1, 2, … up to poolSize (0: without end) in both lease wire
// formats — a bare task when no max is sent, a task list otherwise — and
// answers the batch form of a report with status(task id) for every task.
// It counts leases, reports and the connections clients opened.
type mockPlatform struct {
	poolSize int64
	status   func(taskID int) int

	leased, leases, reports, opened atomic.Int64
}

func (m *mockPlatform) start(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/task/request", func(w http.ResponseWriter, r *http.Request) {
		m.leases.Add(1)
		var req struct {
			Max int `json:"max"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		var tasks []map[string]any
		for i := 0; i < max(1, req.Max); i++ {
			if id := m.leased.Add(1); m.poolSize == 0 || id <= m.poolSize {
				tasks = append(tasks, map[string]any{"id": id, "sql": "SELECT 1"})
			}
		}
		switch {
		case len(tasks) == 0:
			w.WriteHeader(http.StatusNoContent)
		case req.Max == 0:
			_ = json.NewEncoder(w).Encode(tasks[0])
		default:
			_ = json.NewEncoder(w).Encode(map[string]any{"tasks": tasks})
		}
	})
	mux.HandleFunc("POST /api/task/complete", func(w http.ResponseWriter, r *http.Request) {
		m.reports.Add(1)
		var req struct {
			Tasks []struct {
				TaskID int `json:"task_id"`
			} `json:"tasks"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Tasks == nil {
			http.Error(w, `{"error":"not the batch form"}`, http.StatusBadRequest)
			return
		}
		var results []map[string]any
		for _, task := range req.Tasks {
			results = append(results, map[string]any{"task_id": task.TaskID, "status": m.status(task.TaskID), "error": "mock"})
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"results": results})
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			m.opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

func allCreated(int) int { return http.StatusCreated }

var trivialTarget = metrics.TargetFunc(func(query string) (int, map[string]string, error) { return 1, nil, nil })

// TestReportsReuseConnections pins that the client reads every reply to its
// end: net/http only puts a connection back into its pool then, and closing
// a reply unread used to cost every completion a new TCP connection.
func TestReportsReuseConnections(t *testing.T) {
	m := &mockPlatform{status: allCreated}
	ts := m.start(t)
	client, err := NewClient(Config{Server: ts.URL, Key: "k", DBMS: "x-1", Platform: "p", Experiment: 1, Runs: 1, Timeout: 5 * time.Second, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := client.RunAll(trivialTarget, 40)
	if err != nil || n != 40 {
		t.Fatalf("RunAll processed %d tasks: %v", n, err)
	}
	if got := m.opened.Load(); got > 3 {
		t.Errorf("40 tasks on 2 workers opened %d connections, want at most 3", got)
	}
}

// TestRunAllReportsOncePerLease pins the round trips of a drain: every
// leased batch is measured on the worker pool and comes back as one report,
// so 40 tasks in leases of 4 cost 10 leases and 10 reports, not 40.
func TestRunAllReportsOncePerLease(t *testing.T) {
	m := &mockPlatform{status: allCreated}
	ts := m.start(t)
	client, err := NewClient(Config{Server: ts.URL, Key: "k", DBMS: "x-1", Platform: "p", Experiment: 1, Runs: 1, Timeout: 5 * time.Second, Workers: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := client.RunAll(trivialTarget, 40); err != nil || n != 40 {
		t.Fatalf("RunAll processed %d tasks: %v", n, err)
	}
	if leases, reports := m.leases.Load(), m.reports.Load(); leases != 10 || reports != 10 {
		t.Errorf("40 tasks in batches of 4: %d leases and %d reports, want 10 and 10", leases, reports)
	}
	if got := m.opened.Load(); got > 3 {
		t.Errorf("40 tasks on 2 workers opened %d connections, want at most 3", got)
	}
}

// TestRunAllSkipsLostLeases drives the one RunAll loop at one and at two
// workers against a server that answers every second completion with the
// lost-lease conflict: the loop must drain the pool, count only the reports
// that landed and return no error.
func TestRunAllSkipsLostLeases(t *testing.T) {
	for _, workers := range []int{1, 2} {
		const poolSize = 10
		m := &mockPlatform{poolSize: poolSize, status: func(id int) int {
			if id%2 == 0 {
				return http.StatusConflict
			}
			return http.StatusCreated
		}}
		ts := m.start(t)
		client, err := NewClient(Config{Server: ts.URL, Key: "k", DBMS: "x-1", Platform: "p", Experiment: 1, Runs: 1, Timeout: 5 * time.Second, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := client.RunAll(trivialTarget, 0); err != nil || n != poolSize/2 {
			t.Errorf("workers %d: RunAll = %d, %v; want %d reports landed and no error", workers, n, err, poolSize/2)
		}
		// A serial driver leases and reports one task at a time.
		if workers == 1 && m.reports.Load() != poolSize {
			t.Errorf("serial driver sent %d reports for %d tasks", m.reports.Load(), poolSize)
		}
	}
}

// TestRunAllMixedOutcomes reports one batch whose tasks land, lose their
// lease and are refused: RunAll counts the two that landed — also the one
// after the refusal — skips the lost lease, and returns the refusal.
func TestRunAllMixedOutcomes(t *testing.T) {
	statuses := map[int]int{1: http.StatusCreated, 2: http.StatusConflict, 3: http.StatusForbidden, 4: http.StatusCreated}
	m := &mockPlatform{poolSize: 4, status: func(id int) int { return statuses[id] }}
	ts := m.start(t)
	client, err := NewClient(Config{Server: ts.URL, Key: "k", DBMS: "x-1", Platform: "p", Experiment: 1, Runs: 1, Timeout: 5 * time.Second, Workers: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := client.RunAll(trivialTarget, 0)
	if n != 2 || err == nil || !strings.Contains(err.Error(), "task 3: server returned 403") {
		t.Errorf("RunAll = %d, %v; want 2 landed and task 3's 403", n, err)
	}
	if m.reports.Load() != 1 {
		t.Errorf("one lease of 4 sent %d reports, want 1", m.reports.Load())
	}
	// Report, for one task, also says when its lease was lost.
	if err := client.Report(2, &metrics.Measurement{}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("Report of a lost lease = %v, want a 409 error", err)
	}
	if err := client.Report(1, &metrics.Measurement{}); err != nil {
		t.Errorf("Report = %v", err)
	}
}
