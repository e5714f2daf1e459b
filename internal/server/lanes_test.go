package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

var updateLanesGolden = flag.Bool("update-lanes-golden", false, "rewrite testdata/lanes_pages.golden")

// lanesFixture is a public project whose rows put the history, trace and
// results pages at their edges: DBMS "a@b" on platform "c" and DBMS "a" on
// platform "b@c" make one label, their rows interleaved and both traced on
// query 1; the newest traced row of query 2 is hidden, with a row added
// after the hide; a third target is traced on query 1 beside them. It
// returns the server, the project id and the owner's session token.
func lanesFixture(t *testing.T) (srv *Server, pid int, owner string) {
	t.Helper()
	store := repository.NewStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := store.RegisterUser("martin", "martin@example.org")
	must(err)
	p, err := store.CreateProject("martin", "lanes", "", true)
	must(err)
	e, err := store.AddExperiment("martin", p.ID, "merged labels", "SELECT 1", "")
	must(err)
	must(store.ReplaceQueries("martin", p.ID, e.ID, []repository.QueryRecord{
		{ID: 1, SQL: "SELECT 1", Strategy: "baseline", Components: 1, Terms: []string{"t1"}},
		{ID: 2, SQL: "SELECT 2", Strategy: "alter", ParentID: 1, Components: 2, Terms: []string{"t1", "t2"}},
		{ID: 3, SQL: "SELECT 3", Strategy: "prune", ParentID: 2, Components: 1, Terms: []string{"t2"}},
	}))
	spans := func(engine string, wall int64) *trace.QueryTrace {
		return &trace.QueryTrace{SchemaVersion: 1, Engine: engine, Spans: []trace.Span{
			{OpID: "scan.0", Kind: trace.KindScan, WallNS: 1000 * wall, Rows: wall},
			{OpID: "aggregate.0", Kind: trace.KindAgg, WallNS: 300 * wall, Rows: 1, Calls: 1},
		}}
	}
	key := p.Contributors[0].Key
	add := func(qid int, dbms, platform string, seconds float64, errMsg string, qt *trace.QueryTrace) *repository.Result {
		t.Helper()
		r, err := store.AddResultTraced(key, e.ID, qid, dbms, platform, []float64{seconds}, errMsg, nil, qt)
		must(err)
		return r
	}
	add(1, "a@b", "c", 0.1, "", spans("first a@b on c", 1))
	add(1, "a", "b@c", 0.2, "", spans("a on b@c", 2))
	add(1, "a@b", "c", 0.3, "", nil)
	add(2, "a", "b@c", 0.4, "", spans("visible a on b@c", 4))
	hidden := add(2, "a@b", "c", 0.5, "", spans("hidden a@b on c", 5))
	add(1, "a", "b@c", 0.6, "", nil)
	add(1, "x", "y", 0.7, "", spans("x on y", 7))
	add(3, "a@b", "c", 0, "boom", nil)
	must(store.HideResult("martin", hidden.ID, true))
	add(3, "a", "b@c", 0.9, "", nil)
	srv = New(Options{Store: store})
	return srv, p.ID, srv.createSession("martin")
}

// TestLanePagesGolden pins the history, trace and results pages of
// lanesFixture and the JSON history and components of its merged label, as
// the owner and as an anonymous reader see them, to
// testdata/lanes_pages.golden, written by the handlers that scanned every
// row of the project for each page; regenerating it from the current code
// proves nothing. Contributor key and clock times are replaced.
func TestLanePagesGolden(t *testing.T) {
	srv, pid, owner := lanesFixture(t)
	var got bytes.Buffer
	for _, path := range []string{
		fmt.Sprintf("/projects/%d/history", pid),
		fmt.Sprintf("/projects/%d/history?target=%s", pid, url.QueryEscape("a@b@c")),
		fmt.Sprintf("/projects/%d/history?target=%s", pid, url.QueryEscape("x@y")),
		fmt.Sprintf("/projects/%d/trace?query=1", pid),
		fmt.Sprintf("/projects/%d/trace?query=2", pid),
		fmt.Sprintf("/projects/%d/trace?query=3", pid),
		fmt.Sprintf("/api/projects/%d/results", pid),
		fmt.Sprintf("/api/projects/%d/analytics/history?target=%s", pid, url.QueryEscape("a@b@c")),
		fmt.Sprintf("/api/projects/%d/analytics/components?target=%s", pid, url.QueryEscape("a@b@c")),
	} {
		for _, viewer := range []struct{ name, token string }{{"owner", owner}, {"anonymous", ""}} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			if viewer.token != "" {
				req.Header.Set("X-Sqalpel-Token", viewer.token)
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			fmt.Fprintf(&got, "=== GET %s as %s -> %d %s\n", path, viewer.name, w.Code, w.Header().Get("Content-Type"))
			got.Write(w.Body.Bytes())
			got.WriteString("\n")
		}
	}
	page := regexp.MustCompile(`"contributor_key":"[^"]*"`).ReplaceAllLiteral(got.Bytes(), []byte(`"contributor_key":"$KEY"`))
	page = regexp.MustCompile(`"created":"[^"]*"`).ReplaceAllLiteral(page, []byte(`"created":"$NOW"`))
	file := filepath.Join("testdata", "lanes_pages.golden")
	if *updateLanesGolden {
		if err := os.WriteFile(file, page, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Fatalf("the pages differ from %s:\n%s\nwant\n%s", file, page, want)
	}
}
