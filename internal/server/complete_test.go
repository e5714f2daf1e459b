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
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
	"sqalpel/internal/wire"
)

// completeFixture is a server on an in-memory store with one project of four
// queries: its owner holds the lease of tasks 1 and 2, an invited
// contributor the lease of tasks 3 and 4. Contributor keys are random, so a
// request body names them as $OWNER and $OTHER.
type completeFixture struct {
	srv          *Server
	store        *repository.Store
	project      int
	owner, other string
}

func newCompleteFixture(tb testing.TB) *completeFixture {
	tb.Helper()
	store := repository.NewStore()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	for _, nick := range []string{"martin", "ying"} {
		_, err := store.RegisterUser(nick, nick+"@example.org")
		must(err)
	}
	p, err := store.CreateProject("martin", "completions", "", true)
	must(err)
	other, err := store.Invite("martin", p.ID, "ying")
	must(err)
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	must(err)
	var pool []repository.QueryRecord
	for q := 1; q <= 4; q++ {
		pool = append(pool, repository.QueryRecord{ID: q, SQL: fmt.Sprintf("SELECT %d", q)})
	}
	must(store.ReplaceQueries("martin", p.ID, e.ID, pool))
	fx := &completeFixture{srv: New(Options{Store: store}), store: store, project: p.ID, owner: p.Contributors[0].Key, other: other}
	for i, key := range []string{fx.owner, fx.other} {
		tasks, err := store.RequestTasks(key, e.ID, "vektor", "laptop", 2)
		must(err)
		if len(tasks) != 2 || tasks[0].ID != 2*i+1 || tasks[1].ID != 2*i+2 {
			tb.Fatalf("lease %d: %v", i, tasks)
		}
	}
	return fx
}

// expand substitutes the contributor keys into a body.
func (fx *completeFixture) expand(body string) string {
	return strings.NewReplacer("$OWNER", fx.owner, "$OTHER", fx.other).Replace(body)
}

// post sends a body to /api/task/complete, keys substituted.
func (fx *completeFixture) post(body string) (int, []byte) {
	body = fx.expand(body)
	w := httptest.NewRecorder()
	fx.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/task/complete", strings.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

func (fx *completeFixture) results() int { return len(fx.store.Results("martin", fx.project)) }

// batchStatuses decodes the batch form's answer into its statuses.
func batchStatuses(tb testing.TB, reply []byte) []int {
	tb.Helper()
	var resp struct {
		Results []wire.CompletionResult `json:"results"`
	}
	if err := json.Unmarshal(reply, &resp); err != nil {
		tb.Fatalf("batch reply %s: %v", reply, err)
	}
	var out []int
	for _, r := range resp.Results {
		out = append(out, r.Status)
	}
	return out
}

// TestTaskCompleteBatch drives both forms of /api/task/complete: a batch
// whose items land, fail, repeat, belong to someone else or do not exist is
// answered item by item; a bad trace anywhere rejects the whole report; the
// single-task form keeps its wire format.
func TestTaskCompleteBatch(t *testing.T) {
	fx := newCompleteFixture(t)
	status, reply := fx.post(`{"key":"$OWNER","tasks":[
		{"task_id":1,"seconds":[0.1]},
		{"task_id":2,"seconds":[],"error":"syntax error"},
		{"task_id":1,"seconds":[0.2]},
		{"task_id":3,"seconds":[0.1]},
		{"task_id":99,"seconds":[0.1]}]}`)
	want := []int{201, 201, 409, 403, 403}
	if got := batchStatuses(t, reply); status != http.StatusOK || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("mixed batch = %d %v, want 200 %v", status, got, want)
	}
	if fx.results() != 2 {
		t.Fatalf("%d results after the mixed batch, want 2", fx.results())
	}

	// A bad trace rejects the report before anything is recorded.
	if status, _ := fx.post(`{"key":"$OTHER","tasks":[{"task_id":3,"seconds":[0.1]},{"task_id":4,"seconds":[0.1],"trace":"not-a-trace"}]}`); status != http.StatusBadRequest {
		t.Errorf("batch with a bad trace = %d, want 400", status)
	}
	if fx.results() != 2 {
		t.Fatalf("a rejected batch recorded results: %d", fx.results())
	}
	// So does a body that mixes the two forms.
	if status, _ := fx.post(`{"key":"$OTHER","task_id":3,"tasks":[{"task_id":4}]}`); status != http.StatusBadRequest {
		t.Errorf("mixed-form body = %d, want 400", status)
	}

	// A traced item lands with its trace.
	status, reply = fx.post(`{"key":"$OTHER","tasks":[{"task_id":3,"seconds":[0.1],"trace":{"schema_version":1,"spans":[{"op":"scan.0","kind":"scan","wall_ns":5,"rows":1}]}}]}`)
	if got := batchStatuses(t, reply); status != http.StatusOK || len(got) != 1 || got[0] != 201 {
		t.Fatalf("traced batch = %d %s", status, reply)
	}
	traced := 0
	for _, r := range fx.store.Results("martin", fx.project) {
		if r.Trace.Decode().Span("scan.0") != nil {
			traced++
		}
	}
	if traced != 1 {
		t.Errorf("%d results carry the reported trace, want 1", traced)
	}

	// The single-task form: 201 with the result row, then 409, and 403 for
	// a wrong key.
	status, reply = fx.post(`{"key":"$OTHER","task_id":4,"seconds":[0.3],"error":""}`)
	var row repository.Result
	if err := json.Unmarshal(reply, &row); status != http.StatusCreated || err != nil || row.QueryID != 4 || row.Seconds[0] != 0.3 {
		t.Fatalf("single completion = %d %s", status, reply)
	}
	if status, _ := fx.post(`{"key":"$OTHER","task_id":4,"seconds":[0.3]}`); status != http.StatusConflict {
		t.Errorf("single completion of a spent lease = %d, want 409", status)
	}
	if status, _ := fx.post(`{"key":"wrong","task_id":4,"seconds":[0.3]}`); status != http.StatusForbidden {
		t.Errorf("single completion with a wrong key = %d, want 403", status)
	}
	if fx.results() != 4 {
		t.Errorf("%d results, want 4: one per task", fx.results())
	}
}

// FuzzTaskComplete feeds arbitrary bodies to /api/task/complete on a store
// holding leased tasks. The handler must not panic, must answer 200, 201,
// 400, 403 or 409 — 201, 403 or 409 per item of a batch — and must record
// exactly one result per 201 and never two results for one task. A recorded
// result's trace must be the canonical encoding of the trace its task was
// reported with, decoded into a *trace.QueryTrace: whatever the spacing,
// field order, unknown fields or escapes of the body, and none for no trace.
func FuzzTaskComplete(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		fx := newCompleteFixture(t)
		status, reply := fx.post(string(body))
		created := 0
		switch status {
		case http.StatusCreated:
			created = 1
		case http.StatusOK:
			for _, s := range batchStatuses(t, reply) {
				switch s {
				case http.StatusCreated:
					created++
				case http.StatusForbidden, http.StatusConflict:
				default:
					t.Fatalf("batch item answered %d: %s", s, reply)
				}
			}
		case http.StatusBadRequest, http.StatusForbidden, http.StatusConflict:
		default:
			t.Fatalf("answered %d: %s", status, reply)
		}
		results := fx.store.Results("martin", fx.project)
		if len(results) != created {
			t.Fatalf("%d results recorded for %d created completions", len(results), created)
		}
		// Every task leases its own query on one lane: a query with two
		// results is a task with two results.
		seen := map[int]bool{}
		for _, r := range results {
			if seen[r.QueryID] {
				t.Fatalf("query %d has two results", r.QueryID)
			}
			seen[r.QueryID] = true
		}
		if len(results) == 0 {
			return
		}
		// Task i leases query i; the first item of a task is the one that
		// was recorded.
		type item struct {
			TaskID int               `json:"task_id"`
			Trace  *trace.QueryTrace `json:"trace"`
		}
		var sent struct {
			item
			Tasks []item `json:"tasks"`
		}
		if err := json.NewDecoder(strings.NewReader(fx.expand(string(body)))).Decode(&sent); err != nil {
			t.Fatalf("the server recorded results from a body that does not decode: %v", err)
		}
		items := sent.Tasks
		if items == nil {
			items = []item{sent.item}
		}
		for _, r := range results {
			for _, it := range items {
				if it.TaskID == r.QueryID {
					if want := repository.EncodeTrace(it.Trace); !bytes.Equal(r.Trace, want) {
						t.Fatalf("task %d: stored trace %q, want %q", it.TaskID, r.Trace, want)
					}
					break
				}
			}
		}
	})
}

// TestCompletionExtraWireContract pins what a completion's extra may be on
// the wire: an object of strings or null, nothing else, and in a batch body
// no top-level extra at all — not even {}, which holds no extras. Each body
// below is 400 and records nothing.
func TestCompletionExtraWireContract(t *testing.T) {
	fx := newCompleteFixture(t)
	for _, body := range []string{
		`{"key":"$OWNER","extra":{},"tasks":[{"task_id":1,"seconds":[0.1]}]}`,
		`{"key":"$OWNER","extra":{"a":"1"},"tasks":[{"task_id":1,"seconds":[0.1]}]}`,
		`{"key":"$OWNER","task_id":1,"seconds":[0.1],"extra":{"a":1}}`,
		`{"key":"$OWNER","tasks":[{"task_id":1,"seconds":[0.1],"extra":{"a":1}}]}`,
		`{"key":"$OWNER","task_id":1,"seconds":[0.1],"extra":[]}`,
		`{"key":"$OWNER","tasks":[{"task_id":1,"seconds":[0.1],"extra":[]}]}`,
		`{"key":"$OWNER","task_id":1,"seconds":[0.1],"extra":{"a":{"b":"c"}}}`,
		`{"key":"$OWNER","task_id":1,"seconds":[0.1],"extra":"a"}`,
	} {
		if status, reply := fx.post(body); status != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", body, status, reply)
		}
	}
	if fx.results() != 0 {
		t.Fatalf("rejected bodies recorded %d results", fx.results())
	}
	// A null top-level extra is no extra: the batch form takes it.
	status, reply := fx.post(`{"key":"$OWNER","extra":null,"tasks":[{"task_id":1,"seconds":[0.1],"extra":null}]}`)
	if got := batchStatuses(t, reply); status != http.StatusOK || len(got) != 1 || got[0] != http.StatusCreated {
		t.Fatalf("batch with a null extra = %d %s", status, reply)
	}
}

var updateExtras = flag.Bool("update-extras-golden", false, "rewrite testdata/extras_results.golden")

// TestResultsPageExtrasGolden pins the results page's encoding of extras —
// repository.TestExtrasGolden pins the log's, a history frame's and a
// snapshot's. The extras of ../repository/testdata/extras_cases.txt
// (unsorted, duplicated, spaced, escaped or not, invalid UTF-8, empty, null)
// are reported over the wire as one batch, and the page, its contributor key
// and clock times replaced, must be testdata/extras_results.golden. The
// golden was written before extras were stored as bytes; regenerating it
// from the current code proves nothing.
func TestResultsPageExtrasGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "repository", "testdata", "extras_cases.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var extras []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			_, quoted, _ := strings.Cut(line, " ")
			text, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatal(err)
			}
			extras = append(extras, text)
		}
	}
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := store.CreateProject("martin", "extras", "", true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]repository.QueryRecord, len(extras))
	for i := range pool {
		pool[i] = repository.QueryRecord{ID: i + 1, SQL: fmt.Sprintf("SELECT %d", i+1)}
	}
	if err := store.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key
	tasks, err := store.RequestTasks(key, e.ID, "vektor-2.0", "laptop", len(extras))
	if err != nil || len(tasks) != len(extras) {
		t.Fatalf("lease: %d tasks, %v", len(tasks), err)
	}
	body := fmt.Sprintf(`{"key":%q,"tasks":[`, key)
	for i, extra := range extras {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"task_id":%d,"seconds":[0.25],"extra":%s}`, tasks[i].ID, extra)
	}
	srv := New(Options{Store: store})
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/task/complete", strings.NewReader(body+"]}")))
	for i, status := range batchStatuses(t, w.Body.Bytes()) {
		if status != http.StatusCreated {
			t.Fatalf("extra %s answered %d", extras[i], status)
		}
	}
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/projects/%d/results", p.ID), nil))
	page := bytes.ReplaceAll(w.Body.Bytes(), []byte(key), []byte("$KEY"))
	page = regexp.MustCompile(`"created":"[^"]*"`).ReplaceAllLiteral(page, []byte(`"created":"$NOW"`))
	path := filepath.Join("testdata", "extras_results.golden")
	if *updateExtras {
		if err := os.WriteFile(path, page, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Fatalf("the results page differs from %s:\n%s\nwant\n%s", path, page, want)
	}
}

// spaces reads as n ASCII spaces, which JSON allows between tokens.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), s.n)
	for i := range p[:n] {
		p[i] = ' '
	}
	s.n -= n
	return n, nil
}

// TestOversizedBodyAnswers413 pins the bound on a JSON body: one byte more
// than maxBodyBytes is answered 413 on every route that decodes one, the
// completion route included, and records nothing — unread when the request
// declares its length, and cut off at the bound when it does not. A body
// that long is valid JSON here — spaces between tokens — so only the bound
// refuses it.
func TestOversizedBodyAnswers413(t *testing.T) {
	fx := newCompleteFixture(t)
	for _, c := range []struct {
		path, head, tail string
		declared         bool
	}{
		{"/api/task/complete", `{"key":"` + fx.owner + `",`, `"task_id":1,"seconds":[0.5]}`, true},
		{"/api/task/complete", `{"key":"` + fx.owner + `","tasks":[{"task_id":1,"seconds":[0.5]}]`, `}`, true},
		{"/api/task/request", `{"key":"` + fx.owner + `",`, `"experiment_id":1,"dbms":"vektor","platform":"laptop"}`, true},
		{"/api/register", `{"nickname":"ada",`, `"email":"ada@example.org"}`, true},
		{"/api/task/complete", `{"key":"` + fx.owner + `","tasks":[{"task_id":1,"seconds":[0.5]}]`, `}`, false},
	} {
		pad := maxBodyBytes + 1 - len(c.head) - len(c.tail)
		req := httptest.NewRequest(http.MethodPost, c.path, io.MultiReader(strings.NewReader(c.head), &spaces{pad}, strings.NewReader(c.tail)))
		if c.declared {
			req.ContentLength = maxBodyBytes + 1
		}
		w := httptest.NewRecorder()
		fx.srv.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a body of %d bytes (length declared: %v) = %d %s, want 413", c.path, maxBodyBytes+1, c.declared, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
	}
	if n := fx.results(); n != 0 {
		t.Fatalf("an oversized body recorded %d results", n)
	}
}

// TestBodyBuffersFollowTheBytesSent pins what readJSON allocates for a
// body that declares its length: about the body when it all arrives (growing
// by doubling allocated about four times an 8 MiB body), and about what was
// sent when less arrives (sizing the buffer by the declared length pinned
// 64 MiB for 2 bytes).
func TestBodyBuffersFollowTheBytesSent(t *testing.T) {
	for _, c := range []struct{ declared, sent int }{
		{8 << 20, 8 << 20},
		{64 << 20, 1 << 20},
		{64 << 20, 2},
	} {
		body := bytes.Repeat([]byte(" "), c.sent)
		req := httptest.NewRequest(http.MethodPost, "/api/task/complete", bytes.NewReader(body))
		req.ContentLength = int64(c.declared)
		w := httptest.NewRecorder()
		var bp []byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ok := readJSON(w, req, &bp, func([]byte) bool { return true }, nil)
		runtime.ReadMemStats(&after)
		if !ok || len(bp) != c.sent {
			t.Fatalf("readJSON = %v, read %d bytes of %d; answered %d", ok, len(bp), c.sent, w.Code)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= uint64(c.sent)*5/4+8<<10 {
			t.Errorf("reading %d bytes of a body declared %d long allocated %d bytes", c.sent, c.declared, allocated)
		}
	}
}
