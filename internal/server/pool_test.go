package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sqalpel/internal/derive"
	"sqalpel/internal/pool"
	"sqalpel/internal/repository"
	"sqalpel/internal/workload"
)

// TestPoolRecordsRepeat: the records of one pool — and so the WAL bytes of
// ReplaceQueries and the pool page — are the same on every call; terms come
// in sorted class order, then injection order.
func TestPoolRecordsRepeat(t *testing.T) {
	q1, _ := workload.TPCHQuery("Q1")
	g, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pool.New(g, pool.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pl.Grow(40)
	first := poolRecords(pl)
	for i := 0; i < 20; i++ {
		if again := poolRecords(pl); !reflect.DeepEqual(first, again) {
			t.Fatalf("call %d of poolRecords differs from the first", i+2)
		}
	}
	base := pl.Baseline().Sentence()
	if len(base.Literals) < 3 {
		t.Fatalf("baseline draws from %d classes; the order is not exercised", len(base.Literals))
	}
	var want []string
	classes := make([]string, 0, len(base.Literals))
	for c := range base.Literals {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		for _, l := range base.Literals[c] {
			want = append(want, l.Text)
		}
	}
	if !reflect.DeepEqual(first[0].Terms, want) {
		t.Errorf("baseline terms = %q, want sorted class order %q", first[0].Terms, want)
	}
}

// q1Experiments creates a project with n experiments on TPC-H Q1, then a
// second server over the same store: it has no live pools and rebuilds them
// from the stored grammars. Sessions live in the server, the owner in the
// store, so the owner logs in again.
func q1Experiments(t *testing.T, n int) (c, restarted *testClient, s *Server, pid int, eids []int) {
	c, s = newTestClient(t)
	c.token = c.register("owner", "owner@example.org")
	status, resp := c.do("POST", "/api/projects", map[string]any{"name": "q1-space", "public": true})
	if status != http.StatusCreated {
		t.Fatalf("create project = %d %v", status, resp)
	}
	pid = int(resp["project"].(map[string]any)["id"].(float64))
	q1, _ := workload.TPCHQuery("Q1")
	for i := 0; i < n; i++ {
		status, resp = c.do("POST", fmt.Sprintf("/api/projects/%d/experiments", pid), map[string]any{
			"title": "q1", "baseline_sql": q1.SQL,
		})
		if status != http.StatusCreated {
			t.Fatalf("create experiment = %d %v", status, resp)
		}
		eids = append(eids, int(resp["experiment_id"].(float64)))
	}
	restarted = &testClient{t: t, srv: httptest.NewServer(New(Options{Store: s.Store()}))}
	t.Cleanup(restarted.srv.Close)
	status, resp = restarted.do("POST", "/api/login", map[string]string{"nickname": "owner", "email": "owner@example.org"})
	if status != http.StatusOK {
		t.Fatalf("login on the restarted server = %d %v", status, resp)
	}
	restarted.token = resp["token"].(string)
	return c, restarted, s, pid, eids
}

// TestConcurrentGrowRequests: grow requests on one experiment arriving
// together are serialised — each is steering + growth + ReplaceQueries on a
// pool that is not safe for concurrent mutation — both on the pool the
// experiment was created with and on the one a restarted server rebuilds
// (for an experiment never grown, so the rebuilt pool is the stored one).
// Run under -race; the stored pool must end gap-free and duplicate-free.
func TestConcurrentGrowRequests(t *testing.T) {
	c, restarted, s, pid, eids := q1Experiments(t, 2)
	for _, side := range []struct {
		name   string
		client *testClient
		eid    int
	}{{"created", c, eids[0]}, {"rebuilt", restarted, eids[1]}} {
		name, url, token, eid := side.name, side.client.srv.URL, side.client.token, side.eid
		bodies := []map[string]any{
			{"count": 25},
			{"count": 25, "exclude": []string{"avg_price"}},
			{"count": 10, "random": 5, "strategies": []string{"alter", "prune"}},
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		largest := 0 // the largest query_count a request reported
		for _, body := range bodies {
			payload, _ := json.Marshal(body)
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest("POST", fmt.Sprintf("%s/api/projects/%d/experiments/%d/grow", url, pid, eid), bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Sqalpel-Token", token)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var out struct {
					QueryCount int `json:"query_count"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: grow = %d, %v", name, resp.StatusCode, err)
				}
				mu.Lock()
				largest = max(largest, out.QueryCount)
				mu.Unlock()
			}()
		}
		wg.Wait()

		queries := s.Store().Project(pid).Experiment(eid).Queries
		// The request that ran last stored the whole pool; the unrestricted
		// one alone adds 25 (what the steered ones add depends on their turn).
		if len(queries) != largest || largest < 1+25 {
			t.Errorf("%s: %d queries stored, the requests reported up to %d", name, len(queries), largest)
		}
		seen := map[string]bool{}
		for i, q := range queries {
			if q.ID != i+1 {
				t.Fatalf("%s: query %d has id %d; the sequence has a gap or a repeat", name, i, q.ID)
			}
			if seen[q.SQL] {
				t.Fatalf("%s: duplicate query %q", name, q.SQL)
			}
			seen[q.SQL] = true
		}
	}
}

// TestRebuiltPoolDoesNotOverwriteGrownPool: a restarted server rebuilds a
// pool from the grammar alone. For an experiment grown before the restart
// that pool binds the stored ids to other SQL, so a grow answers 409 and the
// stored queries stay as they were.
func TestRebuiltPoolDoesNotOverwriteGrownPool(t *testing.T) {
	c, restarted, s, pid, eids := q1Experiments(t, 1)
	growURL := fmt.Sprintf("/api/projects/%d/experiments/%d/grow", pid, eids[0])
	if status, resp := c.do("POST", growURL, map[string]any{"count": 20}); status != http.StatusOK {
		t.Fatalf("grow before the restart = %d %v", status, resp)
	}
	before := slices.Clone(s.Store().Project(pid).Experiment(eids[0]).Queries)
	if len(before) < 2 {
		t.Fatalf("the grow stored %d queries", len(before))
	}
	for i := 0; i < 2; i++ {
		if status, resp := restarted.do("POST", growURL, map[string]any{"count": 5}); status != http.StatusConflict {
			t.Fatalf("grow %d after the restart = %d %v, want 409", i+1, status, resp)
		}
	}
	if after := s.Store().Project(pid).Experiment(eids[0]).Queries; !reflect.DeepEqual(after, before) {
		t.Errorf("the refused grow changed the stored pool: %d queries, had %d", len(after), len(before))
	}
}

// TestPoolPagesBesideGrows reads the pool page and the queries API of an
// experiment from two readers while its owner grows the pool: 20 grows
// beside 200 reads. A page must never read the project the store is
// changing, nor the rows another reader keeps — run under -race — and must
// show as many rows as its header counts queries, the last of them the
// query of that number: one pool's header never heads another pool's rows.
func TestPoolPagesBesideGrows(t *testing.T) {
	c, _, s, pid, eids := q1Experiments(t, 1)
	growURL := fmt.Sprintf("/api/projects/%d/experiments/%d/grow", pid, eids[0])
	counted := regexp.MustCompile(`<p>(\d+) queries\.`)
	read := func(reader, i int) {
		path := fmt.Sprintf("/projects/%d/experiments/%d/pool", pid, eids[0])
		if i%2 == 1 {
			path = fmt.Sprintf("/api/projects/%d/experiments/%d/queries", pid, eids[0])
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("reader %d: GET %s = %d", reader, path, w.Code)
			return
		}
		if i%2 == 1 {
			return
		}
		page := w.Body.String()
		m := counted.FindStringSubmatch(page)
		if m == nil {
			t.Errorf("reader %d, read %d: the pool page has no query count", reader, i)
			return
		}
		n, _ := strconv.Atoi(m[1])
		rows := strings.Count(page, "<tr><td>")
		last := strings.LastIndex(page, "<tr><td>")
		if rows != n || !strings.HasPrefix(page[last:], fmt.Sprintf("<tr><td>%d</td>", n)) {
			t.Errorf("reader %d, read %d: the page counts %d queries and shows %d rows, the last %.20q", reader, i, n, rows, page[last:])
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			req := httptest.NewRequest(http.MethodPost, growURL, bytes.NewReader([]byte(`{"count":2}`)))
			req.Header.Set("X-Sqalpel-Token", c.token)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Errorf("grow %d = %d %s", i+1, w.Code, w.Body)
				return
			}
		}
	}()
	for reader := 0; reader < 2; reader++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				read(reader, i)
			}
		}()
	}
	wg.Wait()
}

// poolPage serves an experiment's pool page on srv.
func poolPage(t *testing.T, srv http.Handler, pid, eid int) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/experiments/%d/pool", pid, eid), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("pool page = %d %s", w.Code, w.Body)
	}
	return w.Body.String()
}

// TestPoolPageFollowsPool: a server that has served an experiment's pool
// page serves what a fresh server over the same store serves after the
// pool is grown, replaced by as many queries with other SQL, and replaced
// by one more query after the store is closed and opened — each a new
// page. A live store no longer appends to a pool: only replaying an old
// log does.
func TestPoolPageFollowsPool(t *testing.T) {
	dir := t.TempDir()
	store, err := repository.Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s := New(Options{Store: store})
	c := &testClient{t: t, srv: httptest.NewServer(s)}
	t.Cleanup(c.srv.Close)
	c.token = c.register("owner", "owner@example.org")
	status, resp := c.do("POST", "/api/projects", map[string]any{"name": "q1-space", "public": true})
	if status != http.StatusCreated {
		t.Fatalf("create project = %d %v", status, resp)
	}
	pid := int(resp["project"].(map[string]any)["id"].(float64))
	q1, _ := workload.TPCHQuery("Q1")
	status, resp = c.do("POST", fmt.Sprintf("/api/projects/%d/experiments", pid), map[string]any{"title": "q1", "baseline_sql": q1.SQL})
	if status != http.StatusCreated {
		t.Fatalf("create experiment = %d %v", status, resp)
	}
	eid := int(resp["experiment_id"].(float64))

	page := poolPage(t, s, pid, eid)
	check := func(step string) {
		t.Helper()
		got := poolPage(t, s, pid, eid)
		if want := poolPage(t, New(Options{Store: store}), pid, eid); got != want {
			t.Fatalf("after %s the page differs from a fresh server's:\n%s\nwant\n%s", step, got, want)
		}
		if got == page {
			t.Fatalf("after %s the page did not change", step)
		}
		page = got
	}
	if status, resp := c.do("POST", fmt.Sprintf("/api/projects/%d/experiments/%d/grow", pid, eid), map[string]any{"count": 5}); status != http.StatusOK {
		t.Fatalf("grow = %d %v", status, resp)
	}
	check("a grow")

	replaced := slices.Clone(store.Project(pid).Experiment(eid).Queries)
	for i := range replaced {
		replaced[i].SQL += " -- replaced"
	}
	if err := store.ReplaceQueries("owner", pid, eid, replaced); err != nil {
		t.Fatal(err)
	}
	check("a replacement by as many queries")

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = repository.Open(dir, 2); err != nil {
		t.Fatal(err)
	}
	s = New(Options{Store: store})
	if got := poolPage(t, s, pid, eid); got != page {
		t.Fatalf("after a restart the page differs from the one before:\n%s\nwant\n%s", got, page)
	}
	replaced = append(slices.Clone(store.Project(pid).Experiment(eid).Queries), repository.QueryRecord{ID: len(replaced) + 1, SQL: "SELECT 1", Strategy: "alter", ParentID: 1})
	if err := store.ReplaceQueries("owner", pid, eid, replaced); err != nil {
		t.Fatal(err)
	}
	check("a replacement by one more query after a restart")
}
