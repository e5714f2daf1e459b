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
	"testing"

	"sqalpel/internal/repository"
)

var updatePagesGolden = flag.Bool("update-pages-golden", false, "rewrite testdata/pool_page.golden and testdata/history_page.golden")

// hostile is the text the page fixture puts in every string a pool or
// history page shows: each byte html/template rewrites (+ ' " < > & NUL),
// invalid UTF-8, a line separator, a non-ASCII letter and a newline.
const hostile = "a+b 'q' \"d\" <script>alert(1)</script> & \x00 \xff\xfe\xc3 \u2028 é\nend"

// pagesFixture is a public project of two experiments whose names, titles,
// strategies and SQL carry hostile, with results on three targets — one of
// them a hostile label — that mix timed and failed runs, and a second,
// empty project.
func pagesFixture(t *testing.T) (srv *Server, pid, emptyPID int, eids [2]int) {
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
	p, err := store.CreateProject("martin", "pages "+hostile, "", true)
	must(err)
	empty, err := store.CreateProject("martin", "empty <&>", "", true)
	must(err)
	pools := [2][]repository.QueryRecord{
		{
			{ID: 1, SQL: "SELECT count(*) FROM lineitem WHERE l_comment = '" + hostile + "'", Strategy: "baseline", Components: 3},
			{ID: 2, SQL: "SELECT l_quantity + 1 FROM lineitem", Strategy: "alter", ParentID: 1, Components: 2},
			{ID: 3, SQL: "SELECT 1", Strategy: "expand " + hostile, ParentID: 2, Components: 1},
			{ID: 4, SQL: "", Strategy: "prune", ParentID: 0, Components: 0},
			{ID: 5, SQL: "SELECT \"x\" FROM t WHERE a < b && c > d", Strategy: "random", ParentID: 3, Components: 12},
		},
		{
			{ID: 1, SQL: "SELECT 2 " + hostile, Strategy: "baseline", Components: 1},
			{ID: 2, SQL: "SELECT 3", Strategy: "", ParentID: 1, Components: 1},
		},
	}
	for i, title := range []string{"title " + hostile, "second"} {
		e, err := store.AddExperiment("martin", p.ID, title, "SELECT 1", "")
		must(err)
		must(store.ReplaceQueries("martin", p.ID, e.ID, pools[i]))
		eids[i] = e.ID
	}
	key := p.Contributors[0].Key
	for _, r := range []struct {
		eid, qid       int
		dbms, platform string
		seconds        []float64
		err            string
	}{
		{eids[0], 1, "vektor-2.0", "laptop", []float64{0.5, 0.25, 0.75}, ""},
		{eids[0], 2, "vektor-2.0", "laptop", []float64{1e-7}, ""},
		{eids[0], 3, "vektor-2.0", "laptop", nil, "timeout " + hostile},
		{eids[0], 5, "vektor-2.0", "laptop", []float64{123456.123456789}, ""},
		{eids[1], 1, "vektor-2.0", "laptop", []float64{0.00005}, ""},
		{eids[1], 2, "vektor-2.0", "laptop", nil, ""},
		{eids[0], 1, "columba-1.0", "laptop", []float64{2}, ""},
		{eids[0], 2, "columba-1.0", "laptop", []float64{3}, "boom"},
		{eids[0], 4, "columba-1.0", "laptop", []float64{0.00004999}, ""},
		{eids[0], 1, "tuple<store>&", "cloud 'x' " + hostile, []float64{0.125}, ""},
		{eids[0], 5, "tuple<store>&", "cloud 'x' " + hostile, []float64{9.99995}, ""},
	} {
		_, err := store.AddResult(key, r.eid, r.qid, r.dbms, r.platform, r.seconds, r.err, nil)
		must(err)
	}
	return New(Options{Store: store}), p.ID, empty.ID, eids
}

// pagesGolden fetches each path anonymously and compares the pages, each
// under a header line naming its path and status, with the golden file.
func pagesGolden(t *testing.T, srv *Server, name string, paths []string) {
	t.Helper()
	var got bytes.Buffer
	for _, path := range paths {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		fmt.Fprintf(&got, "=== GET %s -> %d %s\n", path, w.Code, w.Header().Get("Content-Type"))
		got.Write(w.Body.Bytes())
		got.WriteString("\n")
	}
	file := filepath.Join("testdata", name)
	if *updatePagesGolden {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the pages differ from %s:\n%s\nwant\n%s", file, got.Bytes(), want)
	}
}

// TestPoolPageGolden pins the pool pages of the fixture, byte for byte, to
// testdata/pool_page.golden, which html/template wrote before the page was
// appended; regenerating it from the current code proves nothing.
func TestPoolPageGolden(t *testing.T) {
	srv, pid, _, eids := pagesFixture(t)
	pagesGolden(t, srv, "pool_page.golden", []string{
		fmt.Sprintf("/projects/%d/experiments/%d/pool", pid, eids[0]),
		fmt.Sprintf("/projects/%d/experiments/%d/pool", pid, eids[1]),
	})
}

// TestHistoryPageGolden pins the history pages of the fixture — the default
// target, explicit ones (a hostile label among them), a target without runs,
// a project without results and the second experiment's page — to
// testdata/history_page.golden, written by html/template before the page was
// appended; the second experiment's rows are the ones the page showed merged
// into the first's before it was scoped to one experiment.
func TestHistoryPageGolden(t *testing.T) {
	srv, pid, emptyPID, eids := pagesFixture(t)
	history := fmt.Sprintf("/projects/%d/history", pid)
	pagesGolden(t, srv, "history_page.golden", []string{
		history,
		history + "?target=vektor-2.0@laptop",
		history + "?target=" + url.QueryEscape("tuple<store>&@cloud 'x' "+hostile),
		history + "?target=" + url.QueryEscape("none+<b>"),
		fmt.Sprintf("/projects/%d/history", emptyPID),
		fmt.Sprintf("%s?experiment=%d&target=vektor-2.0@laptop", history, eids[1]),
	})
}

// TestPoolPageAllocsDoNotScaleWithQueries: serving the pool page of 1,000
// queries allocates as often as serving one of 10 — the head and foot are
// appended into a pooled buffer, and the rows kept since the first view are
// sent as they are.
func TestPoolPageAllocsDoNotScaleWithQueries(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{10, 1000} {
		srv, pool, _ := tpchPool(t, n)
		w := &discardResponse{h: http.Header{}}
		allocs[n] = testing.AllocsPerRun(100, func() { srv.ServeHTTP(w, pool) })
	}
	if allocs[1000] != allocs[10] {
		t.Fatalf("the pool page allocates %v times at 10 queries and %v at 1,000", allocs[10], allocs[1000])
	}
}

// TestPageIDsMustBeIntegers: the trace and diff pages take query ids as
// strconv.Atoi reads them and answer 400 for anything else — "12abc",
// "1 2" and "0x10" are not 12, 1 and 0.
func TestPageIDsMustBeIntegers(t *testing.T) {
	srv, pid, _, _ := pagesFixture(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"trace?query=1", http.StatusOK},
		{"trace?query=%2B1", http.StatusOK},
		{"trace?query=12abc", http.StatusBadRequest},
		{"trace?query=1%202", http.StatusBadRequest},
		{"trace?query=0x10", http.StatusBadRequest},
		{"trace?query=1.0", http.StatusBadRequest},
		{"trace?query=%201", http.StatusBadRequest},
		{"trace?query=", http.StatusBadRequest},
		{"trace", http.StatusBadRequest},
		{"trace?query=99999999999999999999", http.StatusBadRequest},
		{"diff?a=1&b=2", http.StatusOK},
		{"diff?a=1&b=2x", http.StatusBadRequest},
		{"diff?a=1abc&b=2", http.StatusBadRequest},
		{"diff?a=1%202&b=2", http.StatusBadRequest},
		{"diff?a=0x1&b=2", http.StatusBadRequest},
		{"diff?a=1", http.StatusBadRequest},
		{"diff?b=2", http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/%s", pid, tc.query), nil))
		if w.Code != tc.want {
			t.Errorf("GET /projects/%d/%s = %d, want %d", pid, tc.query, w.Code, tc.want)
		}
	}
}
