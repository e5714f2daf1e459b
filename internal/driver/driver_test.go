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

// TestReportsReuseConnections pins that the client reads every reply to its
// end: net/http only puts a connection back into its pool then. The 201 of a
// report carries a JSON body nobody decodes, and closing it unread used to
// cost every completion a new TCP connection.
func TestReportsReuseConnections(t *testing.T) {
	var leased, opened atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/task/request", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Max int `json:"max"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		var tasks []map[string]any
		for i := 0; i < req.Max; i++ {
			tasks = append(tasks, map[string]any{"id": leased.Add(1), "sql": "SELECT 1"})
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"tasks": tasks})
	})
	mux.HandleFunc("POST /api/task/complete", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(map[string]any{"id": 1, "seconds": []float64{0.1}, "dbms_key": "x-1"})
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	client, err := NewClient(Config{Server: ts.URL, Key: "k", DBMS: "x-1", Platform: "p", Experiment: 1, Runs: 1, Timeout: 5 * time.Second, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := metrics.TargetFunc(func(query string) (int, map[string]string, error) { return 1, nil, nil })
	n, err := client.RunAll(target, 40)
	if err != nil || n != 40 {
		t.Fatalf("RunAll processed %d tasks: %v", n, err)
	}
	// Two workers report at once, and a lease may find both of their
	// connections still busy: three at most, not one per report.
	if got := opened.Load(); got > 3 {
		t.Errorf("40 tasks on 2 workers opened %d connections, want at most 3", got)
	}
}

// TestRunAllSkipsLostLeases drives the one RunAll loop at one and at two
// workers against a server that speaks both lease wire formats (a bare task
// when no max is sent, a task list otherwise) and answers every second
// completion with the lost-lease conflict: the loop must drain the pool,
// count only the reports that landed and return no error.
func TestRunAllSkipsLostLeases(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var leased atomic.Int64
		const poolSize = 10
		mux := http.NewServeMux()
		mux.HandleFunc("POST /api/task/request", func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Max int `json:"max"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			var tasks []map[string]any
			for i := 0; i < max(1, req.Max); i++ {
				if id := leased.Add(1); id <= poolSize {
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
			var req struct {
				TaskID int `json:"task_id"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			if req.TaskID%2 == 0 {
				http.Error(w, `{"error":"lease lost"}`, http.StatusConflict)
				return
			}
			w.WriteHeader(http.StatusCreated)
		})
		ts := httptest.NewServer(mux)
		client, err := NewClient(Config{Server: ts.URL, Key: "k", DBMS: "x-1", Platform: "p", Experiment: 1, Runs: 1, Timeout: 5 * time.Second, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		target := metrics.TargetFunc(func(query string) (int, map[string]string, error) { return 1, nil, nil })
		if n, err := client.RunAll(target, 0); err != nil || n != poolSize/2 {
			t.Errorf("workers %d: RunAll = %d, %v; want %d reports landed and no error", workers, n, err, poolSize/2)
		}
		ts.Close()
	}
}
