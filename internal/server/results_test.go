package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

var updateResultsGolden = flag.Bool("update-results-golden", false, "rewrite testdata/results_traced.golden")

// tracedCompletions are the completions of the traced results-page golden,
// each one item of a batch report as JSON text, $TASK standing for its task
// id. Their traces cover every optional span field, a missing and a null
// span list, an empty engine, <>& and line separators in an op id (raw and
// escaped), spacing, unknown fields and a null trace; their seconds the
// boundaries of encoding/json's 'f' and 'e' formats.
var tracedCompletions = []string{
	`{"task_id":$TASK,"seconds":[1e-7,1e21,0.000001,1e20,123456789.125,0],"trace":{"schema_version":1,"engine":"vektor-2.0","spans":[` +
		`{"op":"aggregate.0","kind":"aggregate","wall_ns":900,"rows":4,"calls":1,"alloc_bytes":65536},` +
		`{"op":"filter.0","kind":"filter","wall_ns":0,"rows":0},` +
		`{"op":"scan.0","kind":"scan","wall_ns":12000,"rows":3072,"batches":3,"blocks_skipped":9}]}}`,
	`{"task_id":$TASK,"seconds":[0.25],"trace":{}}`,
	`{"task_id":$TASK,"seconds":[0.25],"trace":{"schema_version":1,"engine":"columba-1.0","spans":null}}`,
	`{"task_id":$TASK,"seconds":[0.25],"trace":{"schema_version":1,"engine":"","spans":[]}}`,
	`{"task_id":$TASK,"seconds":[0.5],"trace":{"schema_version":1,"spans":[` +
		`{"op":"scan.<0>&1` + "\u2028\u2029" + `","kind":"scan","wall_ns":1,"rows":1},` +
		`{"op":"scan.\u003c1\u003e\u00262\u2028\u2029","kind":"sc\"an\\\t\u0001é","wall_ns":-1,"rows":-2}]}}`,
	` { "task_id" : $TASK , "seconds" : [ 2.5e-1 ] , "trace" : {` + "\n\t" +
		`"spans" : [ { "rows" : 7 , "kind" : "scan" , "op" : "scan.0" , "wall_ns" : 1500 , "future" : [1, {"a": null}] } ] ,` +
		`"unknown" : "x" , "schema_version" : 1 , "engine" : "fusil-1.0" } }`,
	`{"task_id":$TASK,"seconds":[0.125],"error":"","trace":null,"extra":{"q":"a<b && c>d"}}`,
	`{"task_id":$TASK,"seconds":[],"error":"boom <at> & \u2028 \"x\" é \u0001","extra":{"b":"2","a":"1"}}`,
}

// resultsPage returns the project's results page as the viewer with the
// given session token ("" for an anonymous reader) sees it.
func resultsPage(t *testing.T, srv *Server, projectID int, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/projects/%d/results", projectID), nil)
	if token != "" {
		req.Header.Set("X-Sqalpel-Token", token)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("results page answered %d, %q", w.Code, w.Header().Get("Content-Type"))
	}
	return w
}

// TestResultsPageTracedGolden pins the results page over traced rows: the
// completions of tracedCompletions reported over the wire as one batch, a
// result added directly with a trace built in Go, and one hidden row, as
// the owner sees the page. Contributor key and clock times replaced, it
// must be testdata/results_traced.golden, which was written before span
// trees were stored as bytes and the page appended its rows itself;
// regenerating it from the current code proves nothing.
func TestResultsPageTracedGolden(t *testing.T) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := store.CreateProject("martin", "traced", "", true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]repository.QueryRecord, len(tracedCompletions)+1)
	for i := range pool {
		pool[i] = repository.QueryRecord{ID: i + 1, SQL: fmt.Sprintf("SELECT %d", i+1)}
	}
	if err := store.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key
	tasks, err := store.RequestTasks(key, e.ID, "vektor-2.0", "laptop", len(tracedCompletions))
	if err != nil || len(tasks) != len(tracedCompletions) {
		t.Fatalf("lease: %d tasks, %v", len(tasks), err)
	}
	items := make([]string, len(tracedCompletions))
	for i, c := range tracedCompletions {
		items[i] = strings.ReplaceAll(c, "$TASK", fmt.Sprint(tasks[i].ID))
	}
	srv := New(Options{Store: store})
	w := httptest.NewRecorder()
	body := fmt.Sprintf(`{"key":%q,"tasks":[%s]}`, key, strings.Join(items, ","))
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/task/complete", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("the batch answered %d: %s", w.Code, w.Body)
	}
	for i, status := range batchStatuses(t, w.Body.Bytes()) {
		if status != http.StatusCreated {
			t.Fatalf("completion %s answered %d", tracedCompletions[i], status)
		}
	}
	direct := &trace.QueryTrace{SchemaVersion: 1, Engine: "tuple<store>&", Spans: []trace.Span{
		{OpID: "project", Kind: "project", WallNS: 3, Rows: 1, Calls: 2},
	}}
	r, err := store.AddResultTraced(key, e.ID, len(pool), "tuplestore-1.0", "cloud <1>", []float64{3}, "", map[string]string{"k": "<v>"}, direct)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.HideResult("martin", r.ID, true); err != nil {
		t.Fatal(err)
	}

	page := resultsPage(t, srv, p.ID, srv.createSession("martin")).Body.Bytes()
	page = bytes.ReplaceAll(page, []byte(key), []byte("$KEY"))
	page = regexp.MustCompile(`"created":"[^"]*"`).ReplaceAllLiteral(page, []byte(`"created":"$NOW"`))
	path := filepath.Join("testdata", "results_traced.golden")
	if *updateResultsGolden {
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

// TestResultsPageWithoutRows pins the page of a project that shows no rows —
// none recorded, or all hidden from an anonymous reader: null, byte for
// byte, as encoding/json writes a nil list.
func TestResultsPageWithoutRows(t *testing.T) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := store.CreateProject("martin", "empty", "", true)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: store})
	if got := resultsPage(t, srv, p.ID, "").Body.String(); got != "null\n" {
		t.Fatalf("the page of a project without results is %q, want null", got)
	}
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.ReplaceQueries("martin", p.ID, e.ID, []repository.QueryRecord{{ID: 1, SQL: "SELECT 1"}}); err != nil {
		t.Fatal(err)
	}
	r, err := store.AddResult(p.Contributors[0].Key, e.ID, 1, "vektor-2.0", "laptop", []float64{0.5}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.HideResult("martin", r.ID, true); err != nil {
		t.Fatal(err)
	}
	if got := resultsPage(t, srv, p.ID, "").Body.String(); got != "null\n" {
		t.Fatalf("the page of a project whose results are all hidden is %q, want null", got)
	}
	if got := resultsPage(t, srv, p.ID, srv.createSession("martin")).Body.String(); !strings.HasPrefix(got, `[{"id":`) || !strings.HasSuffix(got, "}\n]\n") {
		t.Fatalf("the owner's page is %q, want the hidden row", got)
	}
}

// TestResultsPageBesideCompletions reads the results page of a project
// while a driver's completions are sealed into the same arena blocks the
// page hands the connection. Every page must decode as JSON and be, byte
// for byte, the page of the rows Store.Results lists at some moment: as
// completions only append, the page of the first rows of the final list.
// The completions wait for a page to be read every few batches, so pages
// are read all along the way. Run it with -race.
func TestResultsPageBesideCompletions(t *testing.T) {
	const queries, batch = 160, 4
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := store.CreateProject("martin", "beside", "", true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]repository.QueryRecord, queries)
	for i := range pool {
		pool[i] = repository.QueryRecord{ID: i + 1, SQL: fmt.Sprintf("SELECT %d", i+1)}
	}
	if err := store.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
		t.Fatal(err)
	}
	srv, key := New(Options{Store: store}), p.Contributors[0].Key

	var pagesRead atomic.Int64
	done := make(chan struct{})
	var pages [][]byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/projects/%d/results", p.ID), nil))
			pages = append(pages, w.Body.Bytes())
			pagesRead.Add(1)
		}
	}()
	for n := 0; n < queries/batch; n++ {
		tasks, err := store.RequestTasks(key, e.ID, "vektor-2.0", "laptop", batch)
		if err != nil || len(tasks) != batch {
			t.Fatalf("lease: %d tasks, %v", len(tasks), err)
		}
		completions := make([]repository.Completion, batch)
		for i, task := range tasks {
			qt := &trace.QueryTrace{SchemaVersion: 1, Engine: "vektor-2.0"}
			for k := 0; k < 16; k++ {
				qt.Spans = append(qt.Spans, trace.Span{OpID: fmt.Sprintf("scan.%d", k), Kind: "scan", WallNS: int64(task.ID*100 + k), Rows: int64(k)})
			}
			completions[i] = repository.Completion{
				TaskID: task.ID, Seconds: []float64{0.001 * float64(task.ID)},
				Extra: repository.EncodeExtras(map[string]string{"task": fmt.Sprint(task.ID), "note": "a<b & c>d"}),
				Trace: repository.EncodeTrace(qt),
			}
		}
		for _, out := range store.CompleteTasks(key, completions) {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
		}
		if n%5 == 4 {
			for read := pagesRead.Load(); pagesRead.Load() == read; {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()

	rows := store.Results("", p.ID)
	if len(rows) != queries {
		t.Fatalf("%d rows stored, want %d", len(rows), queries)
	}
	seen := map[int]bool{}
	for i, page := range pages {
		var decoded []json.RawMessage
		if err := json.Unmarshal(page, &decoded); err != nil {
			t.Fatalf("page %d does not decode: %v\n%s", i, err, page)
		}
		want := []byte("null\n")
		if len(decoded) > 0 {
			want = []byte("[")
			for j, r := range rows[:len(decoded)] {
				if j > 0 {
					want = append(want, ',')
				}
				want = append(append(want, r.JSON()...), '\n')
			}
			want = append(want, "]\n"...)
		}
		if !bytes.Equal(page, want) {
			t.Fatalf("page %d of %d rows is not the page of the first %d rows:\n%s\nwant\n%s", i, len(decoded), len(decoded), page, want)
		}
		seen[len(decoded)] = true
	}
	t.Logf("%d pages of %d sizes read beside %d completions", len(pages), len(seen), queries)
}
