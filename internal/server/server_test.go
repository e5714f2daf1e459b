package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/workload"
)

// testClient wraps the httptest server with JSON helpers.
type testClient struct {
	t     *testing.T
	srv   *httptest.Server
	token string
}

func newTestClient(t *testing.T) (*testClient, *Server) {
	t.Helper()
	s := New(Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts}, s
}

func (c *testClient) do(method, path string, body any) (int, map[string]any) {
	c.t.Helper()
	var rdr io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rdr = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rdr)
	if err != nil {
		c.t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("X-Sqalpel-Token", c.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	if len(data) > 0 && strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(data, &out); err != nil {
			// Arrays decode into the "_list" key for convenience.
			var list []any
			if err2 := json.Unmarshal(data, &list); err2 == nil {
				out["_list"] = list
			}
		}
	}
	out["_raw"] = string(data)
	return resp.StatusCode, out
}

func (c *testClient) register(nickname, email string) string {
	c.t.Helper()
	status, resp := c.do("POST", "/api/register", map[string]string{"nickname": nickname, "email": email})
	if status != http.StatusCreated {
		c.t.Fatalf("register failed: %d %v", status, resp)
	}
	return resp["token"].(string)
}

func TestHealthAndCatalogs(t *testing.T) {
	c, _ := newTestClient(t)
	status, _ := c.do("GET", "/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	status, resp := c.do("GET", "/api/catalog/dbms", nil)
	if status != http.StatusOK || len(resp["_list"].([]any)) < 3 {
		t.Fatalf("dbms catalog = %d %v", status, resp)
	}
	// Adding requires authentication.
	status, _ = c.do("POST", "/api/catalog/dbms", map[string]any{"name": "monetdb", "version": "11.39"})
	if status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated add = %d", status)
	}
	c.token = c.register("martin", "martin@example.org")
	status, _ = c.do("POST", "/api/catalog/platforms", map[string]any{"name": "pi-zero", "cpu": "arm", "cores": 1, "memory_gb": 1})
	if status != http.StatusCreated {
		t.Fatalf("add platform = %d", status)
	}
	status, resp = c.do("GET", "/api/catalog/platforms", nil)
	if status != http.StatusOK || !strings.Contains(resp["_raw"].(string), "pi-zero") {
		t.Fatalf("platform list missing new entry: %v", resp["_raw"])
	}
}

func TestRegisterLoginAndSessions(t *testing.T) {
	c, _ := newTestClient(t)
	c.register("ying", "ying@example.org")
	// Duplicate nickname rejected.
	status, _ := c.do("POST", "/api/register", map[string]string{"nickname": "ying", "email": "other@example.org"})
	if status != http.StatusBadRequest {
		t.Fatalf("duplicate register = %d", status)
	}
	// Login with the right and wrong email.
	status, resp := c.do("POST", "/api/login", map[string]string{"nickname": "ying", "email": "ying@example.org"})
	if status != http.StatusOK || resp["token"] == "" {
		t.Fatalf("login failed: %d %v", status, resp)
	}
	status, _ = c.do("POST", "/api/login", map[string]string{"nickname": "ying", "email": "wrong@example.org"})
	if status != http.StatusUnauthorized {
		t.Fatalf("wrong email login = %d", status)
	}
}

// createProjectWithExperiment walks through the owner workflow and returns
// the project id, experiment id and the owner's contributor key.
func createProjectWithExperiment(t *testing.T, c *testClient) (int, int, string) {
	t.Helper()
	status, resp := c.do("POST", "/api/projects", map[string]any{
		"name": "nation-space", "synopsis": "variants of the nation scan", "public": true,
		"attribution": "TPC-H dbgen inspired generator",
	})
	if status != http.StatusCreated {
		t.Fatalf("create project = %d %v", status, resp)
	}
	project := resp["project"].(map[string]any)
	pid := int(project["id"].(float64))
	key := resp["key"].(string)

	status, resp = c.do("POST", fmt.Sprintf("/api/projects/%d/experiments", pid), map[string]any{
		"title":        "nation baseline",
		"baseline_sql": workload.NationBaselineQuery,
		"seed_random":  5,
	})
	if status != http.StatusCreated {
		t.Fatalf("create experiment = %d %v", status, resp)
	}
	eid := int(resp["experiment_id"].(float64))
	if int(resp["query_count"].(float64)) < 2 {
		t.Fatalf("experiment pool too small: %v", resp)
	}
	if !strings.Contains(resp["grammar_text"].(string), "l_projection") {
		t.Fatalf("derived grammar missing: %v", resp["grammar_text"])
	}
	return pid, eid, key
}

func TestProjectLifecycleAndAccessControl(t *testing.T) {
	c, _ := newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	pid, eid, _ := createProjectWithExperiment(t, c)

	// The project is publicly listed without a token.
	anon := &testClient{t: t, srv: c.srv}
	status, resp := anon.do("GET", "/api/projects", nil)
	if status != http.StatusOK || !strings.Contains(resp["_raw"].(string), "nation-space") {
		t.Fatalf("anonymous listing = %d %v", status, resp["_raw"])
	}
	// Flip to private: anonymous users lose access.
	status, _ = c.do("POST", fmt.Sprintf("/api/projects/%d/visibility", pid), map[string]any{"public": false})
	if status != http.StatusOK {
		t.Fatalf("visibility = %d", status)
	}
	status, _ = anon.do("GET", fmt.Sprintf("/api/projects/%d", pid), nil)
	if status != http.StatusNotFound {
		t.Fatalf("private project visible to anonymous viewer: %d", status)
	}
	// Non-owner cannot grow the pool.
	other := &testClient{t: t, srv: c.srv}
	other.token = other.register("eve", "eve@example.org")
	status, _ = other.do("POST", fmt.Sprintf("/api/projects/%d/experiments/%d/grow", pid, eid), map[string]any{"count": 2})
	if status != http.StatusForbidden && status != http.StatusNotFound {
		t.Fatalf("non-owner grow = %d", status)
	}
	// Owner grows the pool with steering.
	status, resp = c.do("POST", fmt.Sprintf("/api/projects/%d/experiments/%d/grow", pid, eid), map[string]any{
		"count": 5, "exclude": []string{"n_comment"},
	})
	if status != http.StatusOK {
		t.Fatalf("grow = %d %v", status, resp)
	}
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/experiments/%d/queries", pid, eid), nil)
	if status != http.StatusOK {
		t.Fatalf("queries = %d", status)
	}
	if len(resp["_list"].([]any)) < 6 {
		t.Fatalf("pool did not grow: %d entries", len(resp["_list"].([]any)))
	}

	// Invite a contributor.
	status, resp = c.do("POST", fmt.Sprintf("/api/projects/%d/invite", pid), map[string]any{"nickname": "eve"})
	if status != http.StatusOK || resp["key"] == "" {
		t.Fatalf("invite = %d %v", status, resp)
	}
	// Now eve can view the private project.
	status, _ = other.do("GET", fmt.Sprintf("/api/projects/%d", pid), nil)
	if status != http.StatusOK {
		t.Fatalf("contributor view = %d", status)
	}

	// Comments.
	status, _ = other.do("POST", fmt.Sprintf("/api/projects/%d/comments", pid), map[string]any{"text": "please add index documentation"})
	if status != http.StatusCreated {
		t.Fatalf("comment = %d", status)
	}
	status, resp = other.do("GET", fmt.Sprintf("/api/projects/%d/comments", pid), nil)
	if status != http.StatusOK || len(resp["_list"].([]any)) != 1 {
		t.Fatalf("comments list = %d %v", status, resp)
	}
}

func TestDriverProtocolAndAnalytics(t *testing.T) {
	c, srv := newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	pid, eid, key := createProjectWithExperiment(t, c)

	// Work through the whole pool for one DBMS/platform combination.
	processed := 0
	for {
		status, resp := c.do("POST", "/api/task/request", map[string]any{
			"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop",
		})
		if status == http.StatusNoContent {
			break
		}
		if status != http.StatusOK {
			t.Fatalf("task request = %d %v", status, resp)
		}
		taskID := int(resp["id"].(float64))
		sql := resp["sql"].(string)
		seconds := []float64{0.01 + float64(len(sql))/10000, 0.011, 0.012}
		errMsg := ""
		if strings.Contains(sql, "count(*)") {
			errMsg = "simulated failure on count(*)"
			seconds = nil
		}
		status, resp = c.do("POST", "/api/task/complete", map[string]any{
			"key": key, "task_id": taskID, "seconds": seconds, "error": errMsg,
			"extra": map[string]string{"load_avg_1": "0.2"},
		})
		if status != http.StatusCreated {
			t.Fatalf("task complete = %d %v", status, resp)
		}
		processed++
	}
	if processed < 2 {
		t.Fatalf("processed only %d tasks", processed)
	}
	// A second target so the speedup endpoint has a pair.
	for {
		status, resp := c.do("POST", "/api/task/request", map[string]any{
			"key": key, "experiment_id": eid, "dbms": "tuplestore-1.0", "platform": "laptop",
		})
		if status == http.StatusNoContent {
			break
		}
		taskID := int(resp["id"].(float64))
		c.do("POST", "/api/task/complete", map[string]any{
			"key": key, "task_id": taskID, "seconds": []float64{0.02, 0.021}, "error": "",
		})
	}

	// Results and CSV.
	status, resp := c.do("GET", fmt.Sprintf("/api/projects/%d/results", pid), nil)
	if status != http.StatusOK || len(resp["_list"].([]any)) < processed {
		t.Fatalf("results = %d %v", status, resp)
	}
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/results.csv", pid), nil)
	if status != http.StatusOK || !strings.Contains(resp["_raw"].(string), "query_id") {
		t.Fatalf("csv export = %d", status)
	}

	// Analytics endpoints.
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/analytics/history?target=columba-1.0@laptop", pid), nil)
	if status != http.StatusOK || len(resp["_list"].([]any)) == 0 {
		t.Fatalf("history = %d %v", status, resp)
	}
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/analytics/components?target=columba-1.0@laptop", pid), nil)
	if status != http.StatusOK {
		t.Fatalf("components = %d", status)
	}
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/analytics/speedup?base=columba-1.0@laptop&other=tuplestore-1.0@laptop", pid), nil)
	if status != http.StatusOK || resp["_raw"] == "" {
		t.Fatalf("speedup = %d", status)
	}
	status, _ = c.do("GET", fmt.Sprintf("/api/projects/%d/analytics/diff?a=1&b=2", pid), nil)
	if status != http.StatusOK {
		t.Fatalf("diff = %d", status)
	}
	status, _ = c.do("GET", fmt.Sprintf("/api/projects/%d/analytics/diff?a=1", pid), nil)
	if status != http.StatusBadRequest {
		t.Fatalf("diff without b = %d", status)
	}

	// Result moderation: hide the first result.
	results := resp // reuse variable to keep the linter quiet
	_ = results
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/results", pid), nil)
	first := resp["_list"].([]any)[0].(map[string]any)
	rid := int(first["id"].(float64))
	status, _ = c.do("POST", fmt.Sprintf("/api/results/%d/hide", rid), map[string]any{"hidden": true})
	if status != http.StatusOK {
		t.Fatalf("hide = %d", status)
	}
	// Anonymous readers no longer see it.
	anon := &testClient{t: t, srv: c.srv}
	status, resp = anon.do("GET", fmt.Sprintf("/api/projects/%d/results", pid), nil)
	if status != http.StatusOK {
		t.Fatalf("anon results = %d", status)
	}
	for _, item := range resp["_list"].([]any) {
		if int(item.(map[string]any)["id"].(float64)) == rid {
			t.Error("hidden result leaked to anonymous viewer")
		}
	}

	// Tasks listing reflects the processed queue.
	status, resp = c.do("GET", fmt.Sprintf("/api/projects/%d/tasks", pid), nil)
	if status != http.StatusOK || len(resp["_list"].([]any)) == 0 {
		t.Fatalf("tasks = %d", status)
	}

	// The store behind the server has everything for persistence.
	if len(srv.Store().Results("martin", pid)) < processed {
		t.Error("store missing results")
	}
}

func TestHTMLPages(t *testing.T) {
	c, _ := newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	pid, eid, key := createProjectWithExperiment(t, c)

	// Submit results for the first two queries so the history and the
	// differential pages have content.
	for i := 0; i < 2; i++ {
		status, resp := c.do("POST", "/api/task/request", map[string]any{
			"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop",
		})
		if status != http.StatusOK {
			t.Fatalf("task request = %d", status)
		}
		taskID := int(resp["id"].(float64))
		c.do("POST", "/api/task/complete", map[string]any{
			"key": key, "task_id": taskID, "seconds": []float64{0.05}, "error": "",
		})
	}

	pages := []struct {
		path string
		want string
	}{
		{"/", "sqalpel"},
		{"/catalog", "Platform catalog"},
		{fmt.Sprintf("/projects/%d", pid), "nation-space"},
		{fmt.Sprintf("/projects/%d/experiments/%d/grammar", pid, eid), "Derived grammar"},
		{fmt.Sprintf("/projects/%d/experiments/%d/pool", pid, eid), "Query pool"},
		{fmt.Sprintf("/projects/%d/history", pid), "Experiment history"},
		{fmt.Sprintf("/projects/%d/diff?a=1&b=2", pid), "Query differential"},
	}
	for _, p := range pages {
		status, resp := c.do("GET", p.path, nil)
		if status != http.StatusOK {
			t.Errorf("GET %s = %d", p.path, status)
			continue
		}
		if !strings.Contains(resp["_raw"].(string), p.want) {
			t.Errorf("GET %s missing %q", p.path, p.want)
		}
	}
	// Unknown project pages 404.
	if status, _ := c.do("GET", "/projects/999", nil); status != http.StatusNotFound {
		t.Errorf("missing project page = %d", status)
	}
}

func TestServerWithPreloadedStore(t *testing.T) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("preloaded", "p@example.org"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateProject("preloaded", "existing", "", true); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: store})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/projects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "existing") {
		t.Errorf("preloaded project missing: %s", body)
	}
}

func TestBatchTaskLeasing(t *testing.T) {
	c, _ := newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	_, eid, key := createProjectWithExperiment(t, c)

	// max > 1 switches to the batch wire format: {"tasks": [...]}.
	status, resp := c.do("POST", "/api/task/request", map[string]any{
		"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop", "max": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("batch request = %d %v", status, resp)
	}
	tasks, ok := resp["tasks"].([]any)
	if !ok || len(tasks) == 0 || len(tasks) > 3 {
		t.Fatalf("batch = %v", resp["tasks"])
	}
	seen := map[float64]bool{}
	for _, raw := range tasks {
		task := raw.(map[string]any)
		qid := task["query_id"].(float64)
		if seen[qid] {
			t.Errorf("query %v leased twice in one batch", qid)
		}
		seen[qid] = true
		if task["sql"].(string) == "" {
			t.Error("leased task without SQL")
		}
		// Complete every lease so the queue drains.
		status, _ := c.do("POST", "/api/task/complete", map[string]any{
			"key": key, "task_id": int(task["id"].(float64)), "seconds": []float64{0.01}, "error": "",
		})
		if status != http.StatusCreated {
			t.Fatalf("complete = %d", status)
		}
	}

	// Drain the rest, then the batch endpoint answers 204 like the single
	// one does.
	for i := 0; i < 100; i++ {
		status, resp = c.do("POST", "/api/task/request", map[string]any{
			"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop", "max": 10,
		})
		if status == http.StatusNoContent {
			break
		}
		if status != http.StatusOK {
			t.Fatalf("batch request = %d %v", status, resp)
		}
		for _, raw := range resp["tasks"].([]any) {
			task := raw.(map[string]any)
			c.do("POST", "/api/task/complete", map[string]any{
				"key": key, "task_id": int(task["id"].(float64)), "seconds": []float64{0.01}, "error": "",
			})
		}
	}
	if status != http.StatusNoContent {
		t.Fatalf("drained batch request = %d, want 204", status)
	}

	// Omitting max keeps the original single-task wire format (the one the
	// pre-batch drivers speak): a bare task object, not a list.
	status, resp = c.do("POST", "/api/task/request", map[string]any{
		"key": key, "experiment_id": eid, "dbms": "tuplestore-1.0", "platform": "laptop",
	})
	if status != http.StatusOK {
		t.Fatalf("single request = %d %v", status, resp)
	}
	if _, isBatch := resp["tasks"]; isBatch {
		t.Error("single-task request must not use the batch wire format")
	}
	if resp["sql"].(string) == "" {
		t.Error("single task without SQL")
	}
}

func TestLostLeaseCompletionAnswers409(t *testing.T) {
	c, _ := newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	_, eid, key := createProjectWithExperiment(t, c)

	status, resp := c.do("POST", "/api/task/request", map[string]any{
		"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop",
	})
	if status != http.StatusOK {
		t.Fatalf("request = %d", status)
	}
	taskID := int(resp["id"].(float64))
	if status, _ := c.do("POST", "/api/task/complete", map[string]any{
		"key": key, "task_id": taskID, "seconds": []float64{0.01}, "error": "",
	}); status != http.StatusCreated {
		t.Fatalf("first completion = %d", status)
	}
	// The lease is spent: a second completion is a lost-lease conflict (409,
	// driver skips), not an authorization failure (403, driver aborts).
	if status, _ := c.do("POST", "/api/task/complete", map[string]any{
		"key": key, "task_id": taskID, "seconds": []float64{0.02}, "error": "",
	}); status != http.StatusConflict {
		t.Errorf("lost-lease completion = %d, want 409", status)
	}
	// A wrong key stays 403.
	if status, _ := c.do("POST", "/api/task/complete", map[string]any{
		"key": "wrong", "task_id": taskID, "seconds": []float64{0.02}, "error": "",
	}); status != http.StatusForbidden {
		t.Errorf("wrong-key completion = %d, want 403", status)
	}
}

// traceFixture is a project whose one query was completed with a trace on
// two targets, columba-1.0 seven times slower than vektor-1.0 in every
// operator. It returns the client, the project and experiment ids, the
// owner's key and the traced query's id.
func traceFixture(t *testing.T) (c *testClient, pid, eid int, key string, queryID int) {
	t.Helper()
	c, _ = newTestClient(t)
	c.token = c.register("martin", "martin@example.org")
	pid, eid, key = createProjectWithExperiment(t, c)

	traceFor := func(engine string, scale int64) map[string]any {
		return map[string]any{
			"schema_version": 1,
			"engine":         engine,
			"spans": []map[string]any{
				{"op": "scan.0", "kind": "scan", "wall_ns": 100000 * scale, "rows": 25},
				{"op": "filter", "kind": "filter", "wall_ns": 40000 * scale, "rows": 5},
				{"op": "project", "kind": "project", "wall_ns": 10000 * scale, "rows": 5},
			},
		}
	}
	for i, target := range []struct {
		dbms  string
		scale int64
	}{{"columba-1.0", 7}, {"vektor-1.0", 1}} {
		status, resp := c.do("POST", "/api/task/request", map[string]any{
			"key": key, "experiment_id": eid, "dbms": target.dbms, "platform": "laptop",
		})
		if status != http.StatusOK {
			t.Fatalf("task request (%s) = %d", target.dbms, status)
		}
		qid := int(resp["query_id"].(float64))
		if i == 0 {
			queryID = qid
		} else if qid != queryID {
			t.Fatalf("targets leased different queries: %d vs %d", queryID, qid)
		}
		status, resp = c.do("POST", "/api/task/complete", map[string]any{
			"key": key, "task_id": int(resp["id"].(float64)), "seconds": []float64{0.05},
			"error": "", "trace": traceFor(target.dbms, target.scale),
		})
		if status != http.StatusCreated {
			t.Fatalf("task complete (%s) = %d %v", target.dbms, status, resp)
		}
	}
	return c, pid, eid, key, queryID
}

// TestTracePageSideBySide drives the observability acceptance path over the
// wire: two targets complete the same query with operator traces, and the
// project's trace page renders their span trees side by side, keyed by the
// shared plan operator ids, with the operator-level ratio table.
func TestTracePageSideBySide(t *testing.T) {
	c, pid, eid, key, queryID := traceFixture(t)

	// The project page links to the trace.
	status, resp := c.do("GET", fmt.Sprintf("/projects/%d", pid), nil)
	if status != http.StatusOK || !strings.Contains(resp["_raw"].(string), fmt.Sprintf("/trace?query=%d", queryID)) {
		t.Fatalf("project page missing trace link: %d", status)
	}

	status, resp = c.do("GET", fmt.Sprintf("/projects/%d/trace?query=%d", pid, queryID), nil)
	if status != http.StatusOK {
		t.Fatalf("trace page = %d", status)
	}
	page := resp["_raw"].(string)
	for _, want := range []string{
		"columba-1.0@laptop", "vektor-1.0@laptop", // both targets side by side
		"scan.0", "filter", "project", // spans keyed by plan operator ids
		"Operator-level ratio", "7.00x", // the attribution table with the 7x kind ratio
	} {
		if !strings.Contains(page, want) {
			t.Errorf("trace page missing %q", want)
		}
	}

	// A malformed trace payload is rejected, not silently dropped.
	status, resp = c.do("POST", "/api/task/request", map[string]any{
		"key": key, "experiment_id": eid, "dbms": "columba-1.0", "platform": "laptop",
	})
	if status != http.StatusOK {
		t.Fatalf("task request = %d", status)
	}
	if status, _ = c.do("POST", "/api/task/complete", map[string]any{
		"key": key, "task_id": int(resp["id"].(float64)), "seconds": []float64{0.05},
		"error": "", "trace": "not-a-trace",
	}); status != http.StatusBadRequest {
		t.Errorf("malformed trace completion = %d, want 400", status)
	}
}

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite testdata/trace_fixture.golden from the current server")

// TestTraceFixtureGolden pins, on traceFixture, the speedup JSON in both
// directions and the trace page's HTML to what the server answered before
// both were computed through one ranking.
func TestTraceFixtureGolden(t *testing.T) {
	c, pid, _, _, queryID := traceFixture(t)
	var b strings.Builder
	for _, path := range []string{
		fmt.Sprintf("/api/projects/%d/analytics/speedup?base=vektor-1.0@laptop&other=columba-1.0@laptop", pid),
		fmt.Sprintf("/api/projects/%d/analytics/speedup?base=columba-1.0@laptop&other=vektor-1.0@laptop", pid),
		fmt.Sprintf("/projects/%d/trace?query=%d", pid, queryID),
	} {
		status, resp := c.do("GET", path, nil)
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d", path, status)
		}
		fmt.Fprintf(&b, "== GET %s\n%s\n", path, resp["_raw"])
	}
	path := filepath.Join("testdata", "trace_fixture.golden")
	if *updateTraceGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("responses differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
