package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
	"sqalpel/internal/workload"
)

// discardResponse is a ResponseWriter that keeps nothing of the body, so a
// page's allocations are the handler's own.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// tpchPool is a public project whose one experiment holds n queries, the
// 22 TPC-H texts in turn, each measured on two targets, every seventh
// failing on the second. It returns the server and the pool and history
// page requests.
func tpchPool(tb testing.TB, n int) (srv *Server, pool, history *http.Request) {
	return tpchPoolOn(tb, n, twoTargets)
}

// tpchPoolOn is tpchPool measured on the given targets, every seventh
// query failing on all but the first.
func tpchPoolOn(tb testing.TB, n int, targets [][2]string) (srv *Server, pool, history *http.Request) {
	tb.Helper()
	store := repository.NewStore()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	_, err := store.RegisterUser("martin", "martin@example.org")
	must(err)
	p, err := store.CreateProject("martin", "tpch", "", true)
	must(err)
	e, err := store.AddExperiment("martin", p.ID, "tpch", "SELECT 1", "")
	must(err)
	queries := make([]repository.QueryRecord, n)
	for i := range queries {
		q, err := workload.TPCHQuery(fmt.Sprintf("Q%d", i%22+1))
		must(err)
		queries[i] = repository.QueryRecord{ID: i + 1, SQL: q.SQL, Strategy: []string{"alter", "expand", "prune"}[i%3], ParentID: i, Components: 3 + i%9}
	}
	must(store.ReplaceQueries("martin", p.ID, e.ID, queries))
	key := p.Contributors[0].Key
	for _, q := range queries {
		for i, target := range targets {
			seconds, errMsg := []float64{0.002, 0.001 * float64(q.ID%5+1)}, ""
			if i > 0 {
				seconds = []float64{0.003}
				if q.ID%7 == 0 {
					errMsg = "timeout"
				}
			}
			_, err := store.AddResult(key, e.ID, q.ID, target[0], target[1], seconds, errMsg, nil)
			must(err)
		}
	}
	return New(Options{Store: store}),
		httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/experiments/%d/pool", p.ID, e.ID), nil),
		httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/history", p.ID), nil)
}

// twoTargets are the pages' usual targets; manyTargets are 3 DBMS on 6
// platforms, as many targets as a drained project's history offers.
var (
	twoTargets  = [][2]string{{"vektor-2.0", "laptop"}, {"fusil-1.0", "laptop"}}
	manyTargets = func() (out [][2]string) {
		for _, dbms := range []string{"vektor-2.0", "fusil-1.0", "columba-2.0"} {
			for i := 0; i < 6; i++ {
				out = append(out, [2]string{dbms, fmt.Sprintf("host-%d", i)})
			}
		}
		return out
	}()
)

// serve serves req on srv b.N times into a response that keeps nothing.
func serve(b *testing.B, srv *Server, req *http.Request) {
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkPoolPage serves the pool page of 22 and of 401 TPC-H queries.
func BenchmarkPoolPage(b *testing.B) {
	for _, n := range []int{22, 401} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			srv, pool, _ := tpchPool(b, n)
			serve(b, srv, pool)
		})
	}
}

// BenchmarkHistoryPage serves the history page of the same pools, one
// point per query on the default target, and of 106 queries measured on
// 18 targets: 1,908 rows, of which the page shows 106.
func BenchmarkHistoryPage(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		targets [][2]string
	}{{"queries=22", 22, twoTargets}, {"queries=401", 401, twoTargets}, {"queries=106/targets=18", 106, manyTargets}} {
		b.Run(c.name, func(b *testing.B) {
			srv, _, history := tpchPoolOn(b, c.n, c.targets)
			serve(b, srv, history)
		})
	}
}

// BenchmarkResultsPage serves the results page of a project of 400 and of
// 2,000 traced rows shaped like a driver's: 23 extra indicators and a span
// tree of 22 operators.
func BenchmarkResultsPage(b *testing.B) {
	for _, n := range []int{400, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			store := repository.NewStore()
			if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
				b.Fatal(err)
			}
			p, err := store.CreateProject("martin", "drained", "", true)
			if err != nil {
				b.Fatal(err)
			}
			e, err := store.AddExperiment("martin", p.ID, "q6", "SELECT 1", "")
			if err != nil {
				b.Fatal(err)
			}
			queries := make([]repository.QueryRecord, n)
			for i := range queries {
				queries[i] = repository.QueryRecord{ID: i + 1, SQL: "SELECT 1"}
			}
			if err := store.ReplaceQueries("martin", p.ID, e.ID, queries); err != nil {
				b.Fatal(err)
			}
			for _, q := range queries {
				extra := map[string]string{}
				for k := 0; k < 23; k++ {
					extra[fmt.Sprintf("indicator_%02d", k)] = fmt.Sprint(q.ID*31 + k)
				}
				qt := &trace.QueryTrace{SchemaVersion: trace.SchemaVersion, Engine: "vektor-2.0"}
				for k := 0; k < 22; k++ {
					kind := []string{trace.KindScan, trace.KindFilter, trace.KindHashJoin, trace.KindAgg}[k%4]
					qt.Spans = append(qt.Spans, trace.Span{OpID: fmt.Sprintf("%s.%d", kind, k), Kind: kind, WallNS: int64(q.ID*1000 + k), Rows: int64(k * 97), Batches: int64(k % 3)})
				}
				if _, err := store.AddResultTraced(p.Contributors[0].Key, e.ID, q.ID, "vektor-2.0", "laptop", []float64{0.0011, 0.0009}, "", extra, qt); err != nil {
					b.Fatal(err)
				}
			}
			serve(b, New(Options{Store: store}), httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/projects/%d/results", p.ID), nil))
		})
	}
}

// BenchmarkTracePage serves the trace page of one query: of a project of
// 2,000 rows none of which is traced, and of one of 106 queries measured on
// 18 targets, each of which also traced the query with 16 spans.
func BenchmarkTracePage(b *testing.B) {
	for _, c := range []struct {
		name    string
		n       int
		targets [][2]string
		traced  bool
	}{{"rows=2000/traced=0", 1000, twoTargets, false}, {"targets=18/spans=16", 106, manyTargets, true}} {
		b.Run(c.name, func(b *testing.B) {
			srv, pool, _ := tpchPoolOn(b, c.n, c.targets)
			var pid, eid int
			if _, err := fmt.Sscanf(pool.URL.Path, "/projects/%d/experiments/%d/pool", &pid, &eid); err != nil {
				b.Fatal(err)
			}
			key := srv.store.Project(pid).Contributors[0].Key
			for i, target := range c.targets {
				if !c.traced {
					break
				}
				qt := &trace.QueryTrace{SchemaVersion: trace.SchemaVersion, Engine: target[0]}
				for k := 0; k < 16; k++ {
					kind := []string{trace.KindScan, trace.KindFilter, trace.KindHashJoin, trace.KindAgg}[k%4]
					qt.Spans = append(qt.Spans, trace.Span{OpID: fmt.Sprintf("%s.%d", kind, k), Kind: kind, WallNS: int64((i + 1) * (k + 1) * 1000), Rows: int64(k * 97), BlocksSkipped: int64(k % 3)})
				}
				if _, err := srv.store.AddResultTraced(key, eid, 1, target[0], target[1], []float64{0.001}, "", nil, qt); err != nil {
					b.Fatal(err)
				}
			}
			serve(b, srv, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/trace?query=1", pid), nil))
		})
	}
}
