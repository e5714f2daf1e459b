package server

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sqalpel/internal/analytics"
	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

// linkRE finds a project page row's history or trace link.
var linkRE = regexp.MustCompile(`href="(/projects/[0-9]+/(?:history|trace)\?[^"]*)"`)

// TestAnalyticsScopedToOneExperiment: query ids are pool-local, so the
// analytics answers and the history, trace and diff pages show one
// experiment — the one ?experiment= names, the project's first without it
// — and never pair a query with another experiment's query of the same id.
// Experiment A measures SELECT a FROM t1 on x@laptop in 1 s, experiment B
// SELECT b FROM t2 on y@laptop in 0.1 s, both as query 1; merged, the
// speedup of y over x was a factor 10 between two different queries.
func TestAnalyticsScopedToOneExperiment(t *testing.T) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := store.CreateProject("martin", "two", "", true)
	if err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key
	var eids [2]int
	for i, table := range []string{"a FROM t1", "b FROM t2"} {
		e, err := store.AddExperiment("martin", p.ID, table, "SELECT "+table, "")
		if err != nil {
			t.Fatal(err)
		}
		eids[i] = e.ID
		pool := []repository.QueryRecord{
			{ID: 1, SQL: "SELECT " + table, Strategy: "baseline", Components: 2},
			{ID: 2, SQL: "SELECT " + table + " WHERE c > 1", Strategy: "expand", ParentID: 1, Components: 3},
		}
		if err := store.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
			t.Fatal(err)
		}
	}
	qt := &trace.QueryTrace{SchemaVersion: 1, Spans: []trace.Span{{OpID: "scan.0", Kind: "scan", WallNS: 100, Rows: 1}}}
	for _, r := range []struct {
		eid, qid int
		dbms     string
		seconds  float64
	}{
		{eids[0], 1, "x", 1},
		{eids[0], 2, "x", 2},
		{eids[1], 1, "y", 0.1},
		{eids[1], 2, "x", 0.5},
	} {
		if _, err := store.AddResultTraced(key, r.eid, r.qid, r.dbms, "laptop", []float64{r.seconds}, "", nil, qt); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Options{Store: store})
	page, api := fmt.Sprintf("/projects/%d", p.ID), fmt.Sprintf("/api/projects/%d/analytics", p.ID)
	get := func(path string, want int) string {
		t.Helper()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != want {
			t.Fatalf("GET %s = %d, want %d: %s", path, w.Code, want, w.Body)
		}
		return w.Body.String()
	}
	getJSON := func(path string, out any) {
		t.Helper()
		if err := json.Unmarshal([]byte(get(api+path, http.StatusOK)), out); err != nil {
			t.Fatal(err)
		}
	}
	first, second := "", fmt.Sprintf("experiment=%d&", eids[1])
	for _, scope := range []string{first, fmt.Sprintf("experiment=%d&", eids[0]), second} {
		var speedup analytics.SpeedupSummary
		getJSON("/speedup?"+scope+"base=x@laptop&other=y@laptop", &speedup)
		if len(speedup.Points) != 0 {
			t.Errorf("%s: x and y measured no query in common, yet speedup pairs %+v", scope, speedup.Points)
		}
	}
	for scope, want := range map[string][]float64{first: {1, 2}, second: {0.5}} {
		var points []analytics.HistoryPoint
		getJSON("/history?"+scope+"target=x@laptop", &points)
		var got []float64
		for _, pt := range points {
			got = append(got, pt.Seconds)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the history of x@laptop holds %v, want %v", scope, got, want)
		}
	}
	times := map[string]map[string][2]float64{
		first:  {"x@laptop": {1, 2}},
		second: {"x@laptop": {0, 0.5}, "y@laptop": {0.1, 0}},
	}
	for scope, want := range map[string]string{first: "a", second: "b"} {
		var d analytics.Differential
		getJSON("/diff?"+scope+"a=1&b=2", &d)
		if !reflect.DeepEqual(d.Times, times[scope]) || !reflect.DeepEqual(d.OnlyB, []string{"1", ">", "WHERE", "c"}) {
			t.Errorf("%s: the differential of queries 1 and 2 is %+v", scope, d)
		}
		diff := get(page+"/diff?"+scope+"a=1&b=2", http.StatusOK)
		if !strings.Contains(diff, "SELECT "+want+" FROM") || strings.Contains(diff, "SELECT "+map[string]string{"a": "b", "b": "a"}[want]+" FROM") {
			t.Errorf("%s: the diff page shows another experiment's SQL:\n%s", scope, diff)
		}
	}
	for scope, want := range map[string]string{first: "x@laptop", second: "y@laptop"} {
		traces := get(page+"/trace?"+scope+"query=1", http.StatusOK)
		other := map[string]string{"x@laptop": "y@laptop", "y@laptop": "x@laptop"}[want]
		if !strings.Contains(traces, want) || strings.Contains(traces, other) {
			t.Errorf("%s: the trace page of query 1 does not show %s alone:\n%s", scope, want, traces)
		}
	}
	if history := get(page+"/history", http.StatusOK); strings.Contains(history, "y@laptop") {
		t.Errorf("the first experiment's history offers a target it never measured:\n%s", history)
	}
	if history := get(page+"/history?"+second, http.StatusOK); !strings.Contains(history, "x@laptop y@laptop") {
		t.Errorf("the second experiment's history does not offer both its targets:\n%s", history)
	}
	// The project page's links carry their row's experiment: each result's
	// trace link shows its own experiment's SQL, and each experiment's
	// history link offers that experiment's targets.
	tables := map[string]string{strconv.Itoa(eids[0]): "a FROM t1", strconv.Itoa(eids[1]): "b FROM t2"}
	followed := map[string]int{}
	for _, row := range strings.Split(get(page, http.StatusOK), "<tr><td>")[1:] {
		href := linkRE.FindStringSubmatch(row)
		if href == nil {
			continue
		}
		link := html.UnescapeString(href[1])
		switch cells := strings.Split(row, "</td><td>"); {
		case strings.Contains(link, "/trace?"):
			eid, shown := cells[1], get(link, http.StatusOK)
			for e, table := range tables {
				if strings.Contains(shown, "SELECT "+table) != (e == eid) {
					t.Errorf("the trace link %s of a result of experiment %s does not show its query alone:\n%s", link, eid, shown)
				}
			}
			followed["trace "+eid]++
		case strings.Contains(link, "/history?"):
			eid, shown := cells[0], get(link, http.StatusOK)
			if both := strings.Contains(shown, "x@laptop y@laptop"); both != (eid == strconv.Itoa(eids[1])) {
				t.Errorf("the history link %s of experiment %s offers the wrong targets:\n%s", link, eid, shown)
			}
			followed["history "+eid]++
		}
	}
	if want := map[string]int{
		"trace " + strconv.Itoa(eids[0]): 2, "trace " + strconv.Itoa(eids[1]): 2,
		"history " + strconv.Itoa(eids[0]): 1, "history " + strconv.Itoa(eids[1]): 1,
	}; !reflect.DeepEqual(followed, want) {
		t.Errorf("followed the project page's links %v, want %v", followed, want)
	}
	get(page+"/history?experiment=99", http.StatusNotFound)
	get(page+"/trace?experiment=1x&query=1", http.StatusBadRequest)
	get(api+"/speedup?experiment=0", http.StatusNotFound)
}
