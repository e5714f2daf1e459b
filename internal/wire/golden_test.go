package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sqalpel/internal/driver"
	"sqalpel/internal/metrics"
	"sqalpel/internal/repository"
	"sqalpel/internal/server"
	"sqalpel/internal/trace"
)

// goldenTraces are the span trees the golden's target hands the driver: one
// as json.Marshal writes a trace whose strings are plain, one whose operator
// id json.Marshal escapes.
var goldenTraces = map[string]string{
	"traced":  `{"schema_version":1,"engine":"vektor-2.0","spans":[{"op":"agg.0","kind":"aggregate","wall_ns":81234,"rows":4,"calls":1},{"op":"filter.0","kind":"filter","wall_ns":40021,"rows":5916,"batches":3},{"op":"scan.0","kind":"scan","wall_ns":120977,"rows":12059,"batches":3,"blocks_skipped":2}]}`,
	"escaped": `{"schema_version":1,"engine":"vektor-2.0","spans":[{"op":"scan\u003c1\u003e\u0026","kind":"scan","wall_ns":7,"rows":1,"batches":1}]}`,
}

// goldenPool is the experiment's pool, leased in this order.
var goldenPool = []string{
	"SELECT 1 /* plain */",
	"SELECT 2 /* traced */",
	"SELECT '<a>&b' AS \"x\"\n\tFROM t WHERE c <> 'd' /* plain */",
	"SELECT 4 /* fail */",
	"SELECT 5 /* escaped */",
	"SELECT 6 /* lost */",
	"SELECT 7 /* plain */",
	"SELECT 8 /* plain */",
}

// TestProtocolGolden pins the driver protocol's bytes: every body the driver
// posts and every answer the server writes, over a real socket, from the
// single and batch lease through untraced, traced and failed completions to
// an answer that carries a 201 and a 409 and the 204 of a drained pool. The
// golden was written by the encoding/json driver and server the codec
// replaced; contributor keys, clock times and load samples, which differ
// per run, are replaced by placeholders. A diff is a protocol change.
func TestProtocolGolden(t *testing.T) {
	store := repository.NewStore()
	if _, err := store.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := store.CreateProject("martin", "wire", "", true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := store.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]repository.QueryRecord, len(goldenPool))
	for i, sql := range goldenPool {
		pool[i] = repository.QueryRecord{ID: i + 1, SQL: sql}
	}
	if err := store.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key

	type exchange struct {
		method, path string
		body, answer []byte
		status       int
	}
	var mu sync.Mutex
	var log []exchange
	srv := server.New(server.Options{Store: store})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		mu.Lock()
		log = append(log, exchange{r.Method, r.URL.Path, body, rec.Body.Bytes(), rec.Code})
		mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer hs.Close()

	target := metrics.TargetFunc(func(sql string) (int, map[string]string, error) {
		extra := map[string]string{"batches": "3", "rows_scanned": "120", metrics.SimulatedDurationKey: "1500000"}
		switch {
		case strings.Contains(sql, "fail"):
			return 0, nil, errors.New(`engine <refused> & "gave up"`)
		case strings.Contains(sql, "lost"):
			// Another driver completes the task first: its lease is lost.
			for _, task := range store.Tasks("martin", p.ID) {
				if task.SQL == sql && task.Status == repository.TaskRunning {
					store.CompleteTasks(key, []repository.Completion{{TaskID: task.ID, Seconds: []float64{1}}})
				}
			}
		}
		for k, tr := range goldenTraces {
			if strings.Contains(sql, k) {
				extra[trace.MeasurementExtraKey] = tr
			}
		}
		return 1, extra, nil
	})
	client := func(workers, batch int) *driver.Client {
		c, err := driver.NewClient(driver.Config{Server: hs.URL, Key: key, DBMS: "vektor-2.0", Platform: `lap "top" <1>&`,
			Experiment: e.ID, Runs: 2, Timeout: 10 * time.Second, Workers: workers, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run := func(c *driver.Client, max, want int) {
		t.Helper()
		if n, err := c.RunAll(target, max); err != nil || n != want {
			t.Fatalf("RunAll(%d) = %d, %v; want %d", max, n, err, want)
		}
	}
	run(client(1, 0), 2, 2) // two single leases: untraced, traced
	run(client(3, 3), 3, 3) // a batch of three, one failed
	run(client(2, 2), 2, 2) // a batch of two, one 201 and one 409, then the last task singly
	run(client(1, 0), 0, 0) // a single lease on a drained pool: 204
	run(client(2, 2), 0, 0) // a batch lease on a drained pool: 204

	var b strings.Builder
	for _, x := range log {
		fmt.Fprintf(&b, "%s %s\n> %s\n< %d %s\n", x.method, x.path,
			strconv.Quote(normalise(string(x.body), key)), x.status, strconv.Quote(normalise(string(x.answer), key)))
	}
	got := b.String()
	path := filepath.Join("testdata", "protocol.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("protocol differs from %s:\n%s", path, got)
	}
}

var (
	clockTime  = regexp.MustCompile(`"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?(Z|[+-]\d\d:\d\d)"`)
	loadSample = regexp.MustCompile(`("(?:before|after)_load_avg_(?:1|5|15)":)"[^"]*"`)
)

// normalise replaces what differs per run: the contributor key, the times
// the store's clock wrote (a zero time is kept) and the load samples.
func normalise(s, key string) string {
	s = strings.ReplaceAll(s, key, "KEY")
	s = clockTime.ReplaceAllStringFunc(s, func(m string) string {
		if m == `"0001-01-01T00:00:00Z"` {
			return m
		}
		return `"TIME"`
	})
	return loadSample.ReplaceAllString(s, `$1"L"`)
}
