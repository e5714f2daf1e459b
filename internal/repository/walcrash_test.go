package repository

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The crash-point fault-injection harness: a golden workload runs against a
// durable store whose WAL sinks record every byte and every record
// boundary. Each prefix of the recorded log — cut at every record boundary
// AND inside every record — is then materialised as the on-disk state a
// kill -9 at that instant would have left behind, recovered with Open, and
// checked against the durability contract:
//
//  1. every mutation acknowledged before the crash point is present
//     (in particular, no completed measurement is ever lost),
//  2. nothing that was not acknowledged is present,
//  3. no query slot is double-leased: recovery plus a full drain of the
//     queue measures every slot exactly once.

// memSink is an in-memory walSink recording the byte stream and the offset
// after every Sync — the instants at which the WAL contract says the prefix
// must be recoverable.
type memSink struct {
	mu         sync.Mutex
	buf        []byte
	boundaries []int
}

func (m *memSink) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memSink) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.boundaries = append(m.boundaries, len(m.buf))
	return nil
}

func (m *memSink) Close() error { return nil }

// sinkRecorder hands out memSinks keyed by log file base name.
type sinkRecorder struct {
	mu    sync.Mutex
	sinks map[string]*memSink
}

func newSinkRecorder() *sinkRecorder { return &sinkRecorder{sinks: map[string]*memSink{}} }

func (r *sinkRecorder) factory(path string) (walSink, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &memSink{}
	r.sinks[filepath.Base(path)] = s
	return s, nil
}

// nosyncFactory opens real append-only files but skips fsync — recovery
// opens in the harness re-read the files in-process, so durability of the
// recovered store itself is irrelevant and the fsyncs would dominate the
// test's runtime.
type nosyncSink struct{ f *os.File }

func (n nosyncSink) Write(p []byte) (int, error) { return n.f.Write(p) }
func (n nosyncSink) Sync() error                 { return nil }
func (n nosyncSink) Close() error                { return n.f.Close() }

func nosyncFactory(path string) (walSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return nosyncSink{f: f}, nil
}

func quietLogf(string, ...any) {}

// goldenRun captures the golden workload's identifiers and, per WAL-record
// count k, the exact set of result ids that had been acknowledged when the
// k-th record became durable.
type goldenRun struct {
	owner     string
	ownerKey  string
	projectID int
	expID     int
	dbms      string
	platform  string
	queryIDs  []int
	// resultsAt[k] = acknowledged result ids after k shard-WAL records.
	resultsAt [][]int
	// readyAt is the record count from which project+experiment+queries
	// exist, i.e. from which the queue can be drained.
	readyAt int
	// batch holds the result ids of the reported batch, logged as record
	// number batchRecord.
	batch       []int
	batchRecord int
}

// runGoldenWorkload drives one project through its life cycle on a durable
// single-shard store: catalog edits, batch leases, completions (successful
// and failed, single and a reported batch with a lost lease in it),
// moderation, a kill, and a lease still in flight at the end. Every step is
// exactly one shard-WAL record.
func runGoldenWorkload(t testing.TB, s *Store) *goldenRun {
	t.Helper()
	g := &goldenRun{owner: "martin", dbms: "mariadb", platform: "jetson"}
	var acked []int
	step := func(newResult *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if newResult != nil {
			acked = append(acked, newResult.ID)
		}
		g.resultsAt = append(g.resultsAt, append([]int(nil), acked...))
	}
	must := func(err error) { step(nil, err) }

	// Meta partition: users (not counted as shard records).
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterUser("ying", "ying@example.org"); err != nil {
		t.Fatal(err)
	}

	p, err := s.CreateProject("martin", "crash-proof", "durability harness", true)
	step(nil, err) // record 1
	g.projectID = p.ID
	g.ownerKey = p.Contributors[0].Key
	e, err := s.AddExperiment("martin", p.ID, "Q1 space", "SELECT count(*) FROM nation", "")
	step(nil, err) // record 2
	g.expID = e.ID
	must(s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{ // record 3
		{ID: 1, SQL: "SELECT 1"}, {ID: 2, SQL: "SELECT 2"},
		{ID: 3, SQL: "SELECT 3"}, {ID: 4, SQL: "SELECT 4"},
	}))
	g.readyAt = len(g.resultsAt)
	must(s.AppendQueries("martin", p.ID, e.ID, []QueryRecord{ // record 4
		{ID: 5, SQL: "SELECT 5"}, {ID: 6, SQL: "SELECT 6"}, {ID: 7, SQL: "SELECT 7"},
	}))
	g.queryIDs = []int{1, 2, 3, 4, 5, 6, 7}
	driverKey, err := s.Invite("martin", p.ID, "ying")
	step(nil, err)                                                                    // record 5
	must(s.ReferenceCatalogs("martin", p.ID, []string{g.dbms}, []string{g.platform})) // record 6

	lease := func(max int) []*Task { // one record per batch
		t.Helper()
		tasks, err := s.RequestTasks(driverKey, g.expID, g.dbms, g.platform, max)
		step(nil, err)
		return tasks
	}
	complete := func(task *Task, errMsg string) *Result {
		t.Helper()
		r, err := s.CompleteTask(task.ID, driverKey, []float64{0.25, 0.24}, errMsg, nil)
		step(r, err)
		return r
	}

	batch := lease(2) // record 7: queries 1,2
	if len(batch) != 2 {
		t.Fatalf("leased %d tasks, want 2", len(batch))
	}
	first := complete(batch[0], "") // record 8: result for query 1
	c, err := s.AddComment("ying", p.ID, "first measurement in")
	step(nil, err) // record 9
	_ = c
	complete(batch[1], "syntax error near FROM") // record 10: failed result, still covers query 2
	r3, err := s.AddResult(g.ownerKey, g.expID, 1, g.dbms, "cloud", []float64{0.5}, "", nil)
	step(r3, err) // record 11: direct result on another platform slot

	batch = lease(2) // record 12: queries 3,4
	if len(batch) != 2 {
		t.Fatalf("leased %d tasks, want 2", len(batch))
	}
	complete(batch[0], "")                       // record 13: result for query 3
	must(s.HideResult("martin", first.ID, true)) // record 14
	must(s.KillTask("martin", batch[1].ID))      // record 15: query 4 slot free again
	batch = lease(10)                            // record 16: queries 4,5,6,7
	if len(batch) != 4 {
		t.Fatalf("leased %d tasks, want 4", len(batch))
	}
	complete(batch[1], "") // record 17: result for query 5

	// Record 18: one reported batch — queries 4 and 6, and query 5 again,
	// whose lease the completion above spent. The record carries the two
	// valid completions; the lease on query 7 is still running at the end.
	var reported []Completion
	for _, task := range batch[:3] {
		reported = append(reported, Completion{TaskID: task.ID, Seconds: []float64{0.3}})
	}
	outs := s.CompleteTasks(driverKey, reported)
	for i, out := range outs {
		if lost := i == 1; lost != errors.Is(out.Err, ErrLeaseLost) || lost != (out.Result == nil) {
			t.Fatalf("batch item %d: %v, %v", i, out.Result, out.Err)
		}
	}
	g.batch = []int{outs[0].Result.ID, outs[2].Result.ID}
	acked = append(acked, g.batch...)
	g.batchRecord = len(g.resultsAt) + 1
	g.resultsAt = append(g.resultsAt, append([]int(nil), acked...))
	return g
}

// materializeCrash writes the on-disk image a crash would leave behind: the
// full meta log and a prefix of the shard log, no snapshots (the crash
// happened before any checkpoint).
func materializeCrash(t *testing.T, metaWAL, shardPrefix []byte) string {
	t.Helper()
	dir := t.TempDir()
	gen := filepath.Join(dir, "gen-000001")
	if err := os.MkdirAll(gen, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		filepath.Join(gen, "meta.wal"):  metaWAL,
		filepath.Join(gen, "s000.wal"):  shardPrefix,
		filepath.Join(dir, currentFile): []byte("gen-000001\n"),
	} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// resultIDs extracts the sorted ids of every result the owner can see.
func resultIDs(s *Store, g *goldenRun) []int {
	var ids []int
	for _, r := range s.Results(g.owner, g.projectID) {
		ids = append(ids, r.ID)
	}
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[int]bool{}
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}

// countIDs counts the ids of want that occur in got.
func countIDs(got, want []int) int {
	n := 0
	for _, id := range want {
		for _, g := range got {
			if g == id {
				n++
				break
			}
		}
	}
	return n
}

// assertNoDoubleLease checks the direct invariant on the recovered state:
// at most one running task per query slot, and no running task for a slot
// that already has a result.
func assertNoDoubleLease(t *testing.T, s *Store, g *goldenRun) {
	t.Helper()
	type slot struct {
		query          int
		dbms, platform string
	}
	covered := map[slot]string{}
	for _, r := range s.Results(g.owner, g.projectID) {
		covered[slot{r.QueryID, r.DBMSKey, r.PlatformKey}] = "result"
	}
	for _, task := range s.Tasks(g.owner, g.projectID) {
		if task.Status != TaskRunning {
			continue
		}
		k := slot{task.QueryID, task.DBMSKey, task.PlatformKey}
		if prev := covered[k]; prev != "" {
			t.Fatalf("query %d on %s/%s double-covered: running task after %s", k.query, k.dbms, k.platform, prev)
		}
		covered[k] = "running task"
	}
}

// drainQueue advances time beyond every lease deadline and measures what is
// left, then asserts every query slot ended up measured exactly once.
func drainQueue(t *testing.T, s *Store, g *goldenRun) {
	t.Helper()
	s.now = func() time.Time { return time.Now().Add(48 * time.Hour) }
	for rounds := 0; ; rounds++ {
		if rounds > len(g.queryIDs)+1 {
			t.Fatal("queue drain does not terminate")
		}
		tasks, err := s.RequestTasks(g.ownerKey, g.expID, g.dbms, g.platform, len(g.queryIDs))
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) == 0 {
			break
		}
		for _, task := range tasks {
			if _, err := s.CompleteTask(task.ID, g.ownerKey, []float64{0.1}, "", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	perSlot := map[int]int{}
	for _, r := range s.Results(g.owner, g.projectID) {
		if r.DBMSKey == g.dbms && r.PlatformKey == g.platform {
			perSlot[r.QueryID]++
		}
	}
	p := s.Project(g.projectID)
	if p == nil {
		t.Fatal("project lost")
	}
	e := p.Experiment(g.expID)
	if e == nil {
		t.Fatal("experiment lost")
	}
	for _, q := range e.Queries {
		if perSlot[q.ID] != 1 {
			t.Fatalf("query %d measured %d times after drain, want exactly 1", q.ID, perSlot[q.ID])
		}
	}
}

// TestCrashAtEveryWALRecordBoundary is the property test over ALL crash
// points of the golden workload: for every record boundary and for two cuts
// inside every record (mid-header and one byte short of complete), recovery
// must restore exactly the acknowledged prefix and a subsequent drain must
// measure every slot exactly once.
func TestCrashAtEveryWALRecordBoundary(t *testing.T) {
	rec := newSinkRecorder()
	s, err := open(t.TempDir(), 1, quietLogf, rec.factory)
	if err != nil {
		t.Fatal(err)
	}
	g := runGoldenWorkload(t, s)

	shardLog := rec.sinks["s000.wal"]
	metaLog := rec.sinks["meta.wal"]
	if shardLog == nil || metaLog == nil {
		t.Fatalf("recorded sinks: %v", rec.sinks)
	}
	offs := append([]int{0}, shardLog.boundaries...)
	n := len(offs) - 1
	if n != len(g.resultsAt) {
		t.Fatalf("golden run produced %d WAL records for %d steps — the 1 step = 1 record accounting drifted", n, len(g.resultsAt))
	}

	expectAt := func(k int) []int {
		if k == 0 {
			return nil
		}
		return g.resultsAt[k-1]
	}

	crashPoints := 0
	for k := 0; k <= n; k++ {
		// The clean cut after k records, plus torn cuts inside record k+1:
		// mid-header and one byte short of the full frame. A torn record was
		// never acknowledged, so both must recover to the same state as the
		// boundary before it.
		cuts := []int{offs[k]}
		if k < n {
			cuts = append(cuts, offs[k]+3)
			if offs[k+1]-1 > offs[k]+3 {
				cuts = append(cuts, offs[k+1]-1)
			}
		}
		for _, cut := range cuts {
			crashPoints++
			dir := materializeCrash(t, metaLog.buf, shardLog.buf[:cut])
			recovered, err := open(dir, 1, quietLogf, nosyncFactory)
			if err != nil {
				t.Fatalf("crash point %d bytes (record %d): recovery failed: %v", cut, k, err)
			}
			want := expectAt(k)
			got := resultIDs(recovered, g)
			if !sameIDs(got, want) {
				t.Fatalf("crash point %d bytes (record %d): recovered results %v, want %v", cut, k, got, want)
			}
			// The reported batch is all or nothing: no cut inside its record
			// recovers part of it.
			wantBatch := 0
			if k >= g.batchRecord {
				wantBatch = len(g.batch)
			}
			if n := countIDs(got, g.batch); n != wantBatch {
				t.Fatalf("crash point %d bytes (record %d): %d of the reported batch's results recovered, want %d", cut, k, n, wantBatch)
			}
			assertNoDoubleLease(t, recovered, g)
			if k >= g.readyAt {
				drainQueue(t, recovered, g)
			}
			if err := recovered.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if crashPoints < 3*n {
		t.Fatalf("only %d crash points exercised for %d records", crashPoints, n)
	}
	t.Logf("%d crash points over %d WAL records: no acknowledged result lost, no slot double-leased", crashPoints, n)
}

// walFrameOffsets walks the physical frames of a log image and returns the
// byte offset after every complete frame — independently of decodeWAL, so
// the harness does not rely on the code under test for its cut points.
func walFrameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off+walHeaderSize <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if length <= 0 || off+walHeaderSize+length > len(data) {
			break
		}
		off += walHeaderSize + length
		offs = append(offs, off)
	}
	return offs
}

// copyTree duplicates a directory tree (regular files only).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(to, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, from, to)
			continue
		}
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashAfterCheckpoint cuts the WAL written after a checkpoint: the
// recovered state must combine the snapshot with the replayed tail, an
// acknowledged-results prefix must survive every cut, and the untouched
// second shard must stay complete.
func TestCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	type proj struct {
		id, exp int
		key     string
		acked   []int
	}
	mkProject := func(name string) *proj {
		t.Helper()
		p, err := s.CreateProject("martin", name, "", true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{
			{ID: 1, SQL: "SELECT 1"}, {ID: 2, SQL: "SELECT 2"}, {ID: 3, SQL: "SELECT 3"},
		}); err != nil {
			t.Fatal(err)
		}
		return &proj{id: p.ID, exp: e.ID, key: p.Contributors[0].Key}
	}
	measure := func(pr *proj, queryID int) {
		t.Helper()
		r, err := s.AddResult(pr.key, pr.exp, queryID, "duckdb", "laptop", []float64{0.1}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		pr.acked = append(pr.acked, r.ID)
	}
	// Projects 1 and 2 land on different shards of the 2-shard store.
	p1, p2 := mkProject("alpha"), mkProject("beta")
	if s.shardFor(p1.id) == s.shardFor(p2.id) {
		t.Fatal("test projects collapsed onto one shard")
	}
	measure(p1, 1)
	measure(p2, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	measure(p1, 2)
	measure(p2, 2)
	measure(p1, 3)
	measure(p2, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	part := shardPartName(s.shardFor(p1.id).idx)
	genDir := s.gen
	full, err := os.ReadFile(walPath(genDir, part))
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, walHeaderSize - 1}
	for _, b := range walFrameOffsets(t, full) {
		cuts = append(cuts, b, b-1, b+3)
	}
	for _, cut := range cuts {
		if cut < 0 || cut > len(full) {
			continue
		}
		// Crash-copy the whole store directory, then truncate p1's log.
		crashDir := t.TempDir()
		copyTree(t, dir, crashDir)
		crashGen := filepath.Join(crashDir, filepath.Base(genDir))
		if err := os.WriteFile(walPath(crashGen, part), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered, err := open(crashDir, 2, quietLogf, nosyncFactory)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		// The acknowledged results of the cut shard form a prefix of the
		// golden sequence; the other shard is complete.
		got := map[int]bool{}
		for _, r := range recovered.Results("martin", p1.id) {
			got[r.ID] = true
		}
		prefixLen := 0
		for i, id := range p1.acked {
			if !got[id] {
				break
			}
			prefixLen = i + 1
		}
		if len(got) != prefixLen {
			t.Fatalf("cut %d: recovered results of shard %s are not a prefix of the acknowledged sequence %v", cut, part, p1.acked)
		}
		// The snapshot covers everything acknowledged before the checkpoint.
		if prefixLen < 1 {
			t.Fatalf("cut %d: checkpointed result lost (recovered %d of %v)", cut, prefixLen, p1.acked)
		}
		if other := recovered.Results("martin", p2.id); len(other) != len(p2.acked) {
			t.Fatalf("cut %d: untouched shard lost results: %d of %d", cut, len(other), len(p2.acked))
		}
		if err := recovered.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// stepSink reports each successful Sync of a file persistence writes whole.
type stepSink struct {
	walSink
	synced func()
}

func (s stepSink) Sync() error {
	err := s.walSink.Sync()
	if err == nil {
		s.synced()
	}
	return err
}

// frameSink is a stepSink that also reports each write: on a shard's
// history, a frame.
type frameSink struct {
	stepSink
	wrote func(p []byte)
}

func (s frameSink) Write(p []byte) (int, error) {
	n, err := s.walSink.Write(p)
	if err == nil {
		s.wrote(p)
	}
	return n, err
}

// TestCrashInsideCheckpoint cuts the checkpoint sequence of a shard at every
// step that changes the disk — history frame appended (and torn halfway),
// synced; snapshot temporary created, written, renamed; compacted log
// temporary written; tail appended; log renamed; sink reopened — with
// acknowledged mutations landing on the same shard while the checkpoint is
// between its two lock holds (the snapshot is being encoded; the bulk of
// the log is already copied, so the record must travel in the tail). Every
// image must recover to exactly what was acknowledged when it was taken,
// with no slot double-leased, and drain to one measurement a slot.
func TestCrashInsideCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	g := runGoldenWorkload(t, s)
	acked := append([]int(nil), g.resultsAt[len(g.resultsAt)-1]...)
	extra := 0
	ack := func() { // one more acknowledged result, off the drained lane
		t.Helper()
		extra++
		r, err := s.AddResult(g.ownerKey, g.expID, 1, g.dbms, fmt.Sprintf("cloud-%d", extra), []float64{0.5}, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, r.ID)
	}

	type image struct {
		step  string
		dir   string
		acked []int
	}
	var images []image
	cut := func(step string) string {
		crashDir := t.TempDir()
		copyTree(t, dir, crashDir)
		images = append(images, image{step, crashDir, append([]int(nil), acked...)})
		return crashDir
	}
	shardFile := func(path string) bool { return strings.HasPrefix(filepath.Base(path), shardPartName(0)+".") }
	armed, walSyncs := false, 0
	s.create = func(path string) (walSink, error) {
		f, err := createFile(path)
		if err != nil || !shardFile(path) {
			return f, err
		}
		if strings.Contains(path, ".hist.") {
			// The workload's moderation makes the first checkpoint below start
			// the history file the armed one appends to.
			synced := func() {
				if armed {
					cut("history frame synced, snapshot not written")
				}
			}
			return frameSink{stepSink{f, synced}, func(p []byte) {
				if !armed {
					return
				}
				cut("history frame appended, not synced")
				torn := cut("history frame torn")
				info, err := os.Stat(path)
				if err == nil {
					err = os.Truncate(filepath.Join(torn, strings.TrimPrefix(path, dir)), info.Size()-int64(len(p)/2))
				}
				if err != nil {
					t.Fatal(err)
				}
			}}, nil
		}
		if !armed {
			return f, err
		}
		if strings.Contains(path, ".snap.") {
			cut("snapshot temporary created")
			ack() // lands while the image is being encoded: beyond the snapshot, in the log
			return stepSink{f, func() { cut("snapshot temporary written") }}, nil
		}
		cut("snapshot renamed, old one pruned")
		return stepSink{f, func() {
			if walSyncs++; walSyncs == 1 {
				cut("compacted log temporary written")
				ack() // lands in the old log behind what was copied: must travel in the tail
				return
			}
			cut("tail appended") // the shard is locked from here on
		}}, nil
	}
	// A first checkpoint, then more work: the second one has a snapshot to
	// retire and a log prefix to drop, and the third a frame to append.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ack()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ack()

	armed = true
	s.sinks = func(path string) (walSink, error) {
		if shardFile(path) {
			cut("log renamed")
		}
		return nosyncFactory(path)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cut("sink reopened")
	ack() // the new sink takes appends
	cut("appended to the swapped log")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(images) != 11 {
		t.Fatalf("%d crash images, want 11: the checkpoint sequence changed", len(images))
	}
	for _, img := range images {
		recovered, err := open(img.dir, 1, quietLogf, nosyncFactory)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", img.step, err)
		}
		if got := resultIDs(recovered, g); !sameIDs(got, img.acked) {
			t.Fatalf("%s: recovered results %v, want %v", img.step, got, img.acked)
		}
		assertNoDoubleLease(t, recovered, g)
		drainQueue(t, recovered, g)
		if err := recovered.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
