package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sqalpel/internal/repository"
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
		_, err := store.AddResult(key, e.ID, q.ID, "vektor-2.0", "laptop", []float64{0.002, 0.001 * float64(q.ID%5+1)}, "", nil)
		must(err)
		errMsg := ""
		if q.ID%7 == 0 {
			errMsg = "timeout"
		}
		_, err = store.AddResult(key, e.ID, q.ID, "fusil-1.0", "laptop", []float64{0.003}, errMsg, nil)
		must(err)
	}
	return New(Options{Store: store}),
		httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/experiments/%d/pool", p.ID, e.ID), nil),
		httptest.NewRequest(http.MethodGet, fmt.Sprintf("/projects/%d/history", p.ID), nil)
}

func benchmarkPage(b *testing.B, page func(pool, history *http.Request) *http.Request) {
	for _, n := range []int{22, 401} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			srv, pool, history := tpchPool(b, n)
			req, w := page(pool, history), &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ServeHTTP(w, req)
			}
		})
	}
}

// BenchmarkPoolPage serves the pool page of 22 and of 401 TPC-H queries.
func BenchmarkPoolPage(b *testing.B) {
	benchmarkPage(b, func(pool, _ *http.Request) *http.Request { return pool })
}

// BenchmarkHistoryPage serves the history page of the same pools, one
// point per query on the default target.
func BenchmarkHistoryPage(b *testing.B) {
	benchmarkPage(b, func(_, history *http.Request) *http.Request { return history })
}
