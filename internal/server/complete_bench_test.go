package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

// BenchmarkTracedCompletion leases four tasks and reports them in one batch
// body, each with a 16-span trace as a traced driver sends it, on an
// in-memory store: one op is a lease and a POST /api/task/complete. The
// file is self-contained, so it runs on a parent checkout too.
func BenchmarkTracedCompletion(b *testing.B) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		b.Fatal(err)
	}
	p, err := store.CreateProject("martin", "bench", "", true)
	if err != nil {
		b.Fatal(err)
	}
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]repository.QueryRecord, 4*b.N)
	for i := range pool {
		pool[i] = repository.QueryRecord{ID: i + 1, SQL: fmt.Sprintf("SELECT %d", i+1)}
	}
	if err := store.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
		b.Fatal(err)
	}
	qt := trace.QueryTrace{SchemaVersion: trace.SchemaVersion, Engine: "vektor-2.0"}
	for s, kind := range []string{trace.KindScan, trace.KindFilter, trace.KindHashJoin, trace.KindAgg} {
		for j := 0; j < 4; j++ {
			qt.Spans = append(qt.Spans, trace.Span{OpID: fmt.Sprintf("%s.%d", kind, j), Kind: kind,
				WallNS: int64(1000 + s*100 + j), Rows: int64(7 + j), Batches: int64(j), Calls: int64(s)})
		}
	}
	spans, err := json.Marshal(qt)
	if err != nil {
		b.Fatal(err)
	}
	srv, key := New(Options{Store: store}), p.Contributors[0].Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks, err := store.RequestTasks(key, e.ID, "vektor-2.0", "laptop", 4)
		if err != nil || len(tasks) != 4 {
			b.Fatalf("lease: %d tasks, %v", len(tasks), err)
		}
		items := make([]string, len(tasks))
		for j, task := range tasks {
			items[j] = fmt.Sprintf(`{"task_id":%d,"seconds":[0.0011],"extra":{"batches":"59","rows_out":"114"},"trace":%s}`, task.ID, spans)
		}
		body := fmt.Sprintf(`{"key":%q,"tasks":[%s]}`, key, strings.Join(items, ","))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/task/complete", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("complete = %d %s", w.Code, w.Body)
		}
	}
}
