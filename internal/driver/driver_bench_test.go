package driver

import (
	"net/http/httptest"
	"testing"
	"time"

	"sqalpel/internal/core"
	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/repository"
	"sqalpel/internal/server"
)

// BenchmarkDriverTask measures one measured task of the experiment driver,
// every layer in one process: a single-task lease, one traced repetition of
// a small query on vektor-2.0 and the report of its times, load, extras and
// span tree, over loopback HTTP to a server on an in-memory store. What it
// costs beyond BenchmarkMeasureTraced (internal/core) is the protocol's.
func BenchmarkDriverTask(b *testing.B) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("bench", "bench@example.org"); err != nil {
		b.Fatal(err)
	}
	p, err := store.CreateProject("bench", "driver", "", true)
	if err != nil {
		b.Fatal(err)
	}
	e, err := store.AddExperiment("bench", p.ID, "nation", "SELECT 1", "")
	if err != nil {
		b.Fatal(err)
	}
	pool := make([]repository.QueryRecord, b.N)
	for i := range pool {
		pool[i] = repository.QueryRecord{ID: i + 1, SQL: "SELECT n_name, count(*) FROM nation GROUP BY n_name"}
	}
	if err := store.ReplaceQueries("bench", p.ID, e.ID, pool); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Options{Store: store}))
	defer ts.Close()
	c, err := NewClient(Config{Server: ts.URL, Key: p.Contributors[0].Key, DBMS: "vektor-2.0", Platform: "bench",
		Experiment: e.ID, Runs: 1, Timeout: 30 * time.Second, Workers: 1, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	target := &core.EngineTarget{Engine: engine.NewRegistry().Get("vektor-2.0"),
		DB: datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.0005, Seed: 3}), Timeout: 30 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	if n, err := c.RunAll(target, b.N); err != nil || n != b.N {
		b.Fatalf("RunAll(%d) = %d, %v", b.N, n, err)
	}
}
