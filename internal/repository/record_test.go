package repository

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRecordsGolden holds the record types to the log format:
// testdata/records.golden has one record per op as the log wrote it before
// the ops had types, timestamps from the production clock. Decoded and
// logged again through walWriter.log, each must be the same bytes — the
// encoding is unchanged, and decoding then encoding is a fixpoint.
func TestRecordsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "records.golden"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		seen[rec.Op] = true
		r, err := decodeRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", rec.Op, err)
		}
		sink := &memSink{}
		w := &walWriter{sink: sink, lsn: rec.LSN - 1}
		if err := w.log(rec.Op, r); err != nil {
			t.Fatalf("%s: %v", rec.Op, err)
		}
		if body, problem := frameAt(sink.buf); problem != "" || !bytes.Equal(body, line) {
			t.Errorf("%s logged again as\n%s\nwant\n%s", rec.Op, body, line)
		}
	}
	if len(seen) != len(recordTypes) {
		t.Fatalf("the golden records cover the ops %v, want all %d", seen, len(recordTypes))
	}
}

// TestRecordsOwnTheirData pins that the live path, which applies the values
// the mutators logged, keeps nothing a caller can still change: after the
// calls return, the caller changes its extra map and its seconds, rewrites
// its pool and appends into the pool's spare capacity — where the store's
// own append went — and changes its trace, and the store must be unchanged
// and deep-equal to what Load rebuilds from disk. The row holds the trace's
// encoding, taken when the call was made.
func TestRecordsOwnTheirData(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return fixed }
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := s.CreateProject("martin", "owned", "", true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]QueryRecord, 2, 4)
	pool[0] = QueryRecord{ID: 1, SQL: "SELECT 1", Terms: []string{"a"}}
	pool[1] = QueryRecord{ID: 2, SQL: "SELECT 2"}
	if err := s.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 3, SQL: "SELECT 3"}}); err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key
	extra, seconds, qt := map[string]string{"rows": "1"}, []float64{0.1}, sampleTrace(1)
	direct, err := s.AddResultTraced(key, e.ID, 1, "vektor", "cloud", seconds, "", extra, qt)
	if err != nil {
		t.Fatal(err)
	}
	task, err := s.RequestTask(key, e.ID, "vektor", "laptop")
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	out := s.CompleteTasks(key, []Completion{{TaskID: task.ID, Seconds: seconds, Extra: EncodeExtras(extra)}})[0]
	if out.Err != nil {
		t.Fatal(out.Err)
	}

	pool[0].SQL = "SELECT 'changed'"
	pool = append(pool, QueryRecord{ID: 9, SQL: "SELECT 9"})
	extra["rows"], extra["more"], seconds[0] = "changed", "x", 9
	qt.Spans[0].Rows, qt.Engine = -1, "changed"

	want := []QueryRecord{{ID: 1, SQL: "SELECT 1", Terms: []string{"a"}}, {ID: 2, SQL: "SELECT 2"}, {ID: 3, SQL: "SELECT 3"}}
	if got := s.Project(p.ID).Experiment(e.ID).Queries; !reflect.DeepEqual(got, want) {
		t.Fatalf("the pool after the caller changed its slice: %+v, want %+v", got, want)
	}
	for _, r := range []*Result{direct, out.Result} {
		if !reflect.DeepEqual(r.Extra.Map(), map[string]string{"rows": "1"}) || r.Seconds[0] != 0.1 {
			t.Fatalf("result %d after the caller changed its extra and seconds: %v, %v", r.ID, r.Extra, r.Seconds)
		}
	}
	if got := direct.Trace.Decode(); !reflect.DeepEqual(got, sampleTrace(1)) {
		t.Fatalf("the result's trace after the caller changed it: %+v", got)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := persistedImage(loaded), persistedImage(s); !sameImage(got, want) {
		t.Fatalf("loaded from disk:\n%+v\nlive:\n%+v", got, want)
	}
}

// TestDeletedIDsAreNotReissued pins the id high-water marks across
// recovery: a result and a comment are created after the last checkpoint,
// and the result, the highest-id one, is deleted. After a restart, and
// after a second one from the snapshots the first wrote, the next result
// and comment ids must still be above them.
func TestDeletedIDsAreNotReissued(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	key, expID := drainFixture(t, s, 4)
	p, _, err := s.FindContributor(key)
	if err != nil {
		t.Fatal(err)
	}
	leaseAndComplete(t, s, key, expID)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lastResult, lastComment := 0, 0
	addAndDelete := func(restart int) {
		t.Helper()
		r, err := s.AddResult(key, expID, 2, "vektor", "cloud", []float64{0.1}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.AddComment("martin", p.ID, "after the checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		if r.ID <= lastResult || c.ID <= lastComment {
			t.Fatalf("restart %d: result id %d after %d, comment id %d after %d", restart, r.ID, lastResult, c.ID, lastComment)
		}
		if err := s.DeleteResult("martin", r.ID); err != nil {
			t.Fatal(err)
		}
		lastResult, lastComment = r.ID, c.ID
	}
	addAndDelete(0)
	for restart := 1; restart <= 2; restart++ {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = open(dir, 2, quietLogf, nosyncFactory); err != nil {
			t.Fatal(err)
		}
		addAndDelete(restart)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplayRecord appends one record — an arbitrary op and data, framed
// with a valid CRC and the next LSN — behind the log of the golden crash
// workload and recovers the store. Open must neither panic nor fail, and it
// must recover a prefix of the log: every record of the workload, then the
// appended one or nothing of it. A record whose data does not decode — a
// null where a row or an object must be included — stops the replay with a
// warning, like a torn record. The seeds are three such nulls, which
// recovery used to dereference, a record that applies, and results whose
// extras are not in the canonical form (unsorted, duplicated, spaced,
// escaped, not strings).
func FuzzReplayRecord(f *testing.F) {
	rec := newSinkRecorder()
	s, err := open(f.TempDir(), 1, quietLogf, rec.factory)
	if err != nil {
		f.Fatal(err)
	}
	runGoldenWorkload(f, s)
	sh := s.shards[0]
	var tasks, results []int
	for id := range sh.tasks {
		tasks = append(tasks, id)
	}
	for _, r := range sh.results {
		results = append(results, r.ID)
	}
	metaLog, shardLog := rec.sinks["meta.wal"].buf, slices.Clip(rec.sinks["s000.wal"].buf)
	next := sh.wal.lsn + 1

	f.Add(opTaskLease, []byte(`[null]`))
	f.Add(opExperiment, []byte(`{"project_id":1,"experiment":null}`))
	f.Add(opInvite, []byte(`{"project_id":1,"contributor":null}`))
	f.Add(opComment, []byte(`{"id":99,"project_id":1,"author":"ying","text":"late","created":"2026-01-01T00:00:00Z"}`))
	f.Add(opResult, []byte(`{"id":99,"project_id":1,"experiment_id":1,"query_id":1,"dbms_key":"mariadb","platform_key":"jetson","seconds":[0.1],"extra":{ "b":"2", "a":"\u003c", "a":"\ud800"},"created":"2026-01-01T00:00:00Z"}`))
	f.Add(opResult, []byte(`{"id":99,"project_id":1,"experiment_id":1,"query_id":1,"extra":{"a":1},"created":"2026-01-01T00:00:00Z"}`))
	f.Add(opTaskComplete, []byte(`[{"task_id":1,"status":"done","finished":"2026-01-01T00:00:00Z","result":{"id":99,"project_id":1,"experiment_id":1,"query_id":7,"extra":{"z":"\n","a":"<"},"extra":{}}}]`))
	f.Fuzz(func(t *testing.T, op string, data []byte) {
		quoted, _ := json.Marshal(op)
		frame := fmt.Appendf(make([]byte, walHeaderSize), `{"lsn":%d,"op":%s,"data":%s}`, next, quoted, data)
		putFrameHeader(frame)
		logs := &logCollector{}
		recovered, err := open(materializeCrash(t, metaLog, append(shardLog, frame...)), 1, logs.logf, nosyncFactory)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer recovered.Close()
		for _, line := range logs.lines {
			if !strings.Contains(line, fmt.Sprintf("lsn %d", next)) && !strings.Contains(line, fmt.Sprintf("offset %d", len(shardLog))) {
				t.Fatalf("recovery stopped before the appended record: %s", line)
			}
		}
		// No record removes a task, and only a delete removes a result.
		got := recovered.shards[0]
		for _, id := range tasks {
			if got.tasks[id] == nil {
				t.Fatalf("task %d of the workload was not recovered", id)
			}
		}
		missing := 0
		for _, id := range results {
			if got.resultPos(id) < 0 {
				missing++
			}
		}
		if missing > 1 {
			t.Fatalf("%d results of the workload were not recovered", missing)
		}
	})
}
