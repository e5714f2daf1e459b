package repository

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// Corruption-recovery suite: beyond clean kill -9 prefixes, the store must
// also boot from media-level damage — truncated tails, flipped bits in
// payload or checksum, empty files — and fall back across a corrupt
// snapshot to the previous one plus a longer replay. Corruption never
// costs more than the unacknowledged tail, and never the boot.

// logCollector captures recovery warnings so tests can assert that damage
// is reported, not silently swallowed.
type logCollector struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCollector) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logCollector) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// corruptibleStore builds a durable store with a few acknowledged results
// and returns its directory, the shard WAL path and the acknowledged ids in
// order.
func corruptibleStore(t *testing.T) (dir, wal string, g *goldenRun) {
	t.Helper()
	dir = t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	g = runGoldenWorkload(t, s)
	wal = walPath(s.gen, shardPartName(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, wal, g
}

// reopenAndCount boots the damaged store and returns the recovered result
// ids.
func reopenAndCount(t *testing.T, dir string, g *goldenRun, logf func(string, ...any)) []int {
	t.Helper()
	s, err := open(dir, 1, logf, nosyncFactory)
	if err != nil {
		t.Fatalf("recovery from damaged store failed: %v", err)
	}
	defer s.Close()
	assertNoDoubleLease(t, s, g)
	return resultIDs(s, g)
}

func TestRecoveryFromTruncatedTail(t *testing.T) {
	dir, wal, g := corruptibleStore(t)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	logs := &logCollector{}
	got := reopenAndCount(t, dir, g, logs.logf)
	// The truncated final record was a completion: exactly its result is
	// gone, everything before it survives.
	want := g.resultsAt[len(g.resultsAt)-2]
	if !sameIDs(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if !logs.contains("torn wal") {
		t.Fatalf("truncated tail not reported; warnings: %v", logs.lines)
	}
}

func TestRecoveryFromBitFlippedPayload(t *testing.T) {
	dir, wal, g := corruptibleStore(t)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	offs := walFrameOffsets(t, data)
	// Flip one payload bit inside the last record.
	start := offs[len(offs)-2]
	data[start+walHeaderSize+4] ^= 0x40
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	logs := &logCollector{}
	got := reopenAndCount(t, dir, g, logs.logf)
	want := g.resultsAt[len(g.resultsAt)-2]
	if !sameIDs(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if !logs.contains("checksum mismatch") {
		t.Fatalf("bit flip not reported as checksum mismatch; warnings: %v", logs.lines)
	}
}

func TestRecoveryFromBitFlippedChecksum(t *testing.T) {
	dir, wal, g := corruptibleStore(t)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	offs := walFrameOffsets(t, data)
	// Flip a bit in the CRC field of a mid-log record: that record and
	// everything after it are dropped — the log has no way to tell whether
	// the payload or the checksum is the damaged half.
	k := len(offs) / 2
	start := offs[k-1]
	data[start+5] ^= 0x01
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	logs := &logCollector{}
	got := reopenAndCount(t, dir, g, logs.logf)
	want := g.resultsAt[k-1]
	if !sameIDs(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if !logs.contains("checksum mismatch") {
		t.Fatalf("flipped CRC not reported; warnings: %v", logs.lines)
	}
}

func TestRecoveryFromZeroLengthWAL(t *testing.T) {
	dir, wal, g := corruptibleStore(t)
	if err := os.WriteFile(wal, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got := reopenAndCount(t, dir, g, quietLogf)
	if len(got) != 0 {
		t.Fatalf("zero-length wal recovered %v results, want none (no snapshot was ever taken)", got)
	}
	// The meta partition is intact: users survive, the store is usable.
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.User(g.owner) == nil {
		t.Fatal("user table lost")
	}
	if _, err := s.CreateProject(g.owner, "fresh-start", "", true); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFallsBackToPrevious damages the newest snapshot of a
// twice-checkpointed partition: recovery must adopt the previous snapshot
// and replay the longer log tail, ending at the exact same state.
func TestCorruptSnapshotFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	g := runGoldenWorkload(t, s)
	if err := s.Checkpoint(); err != nil { // snapshot 1 (covers the workload)
		t.Fatal(err)
	}
	// More acknowledged work after the first checkpoint.
	r, err := s.AddResult(g.ownerKey, g.expID, 2, g.dbms, "cloud", []float64{0.9}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // snapshot 2 (covers everything)
		t.Fatal(err)
	}
	want := append(append([]int(nil), g.resultsAt[len(g.resultsAt)-1]...), r.ID)
	genDir := s.gen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	part := shardPartName(0)
	lsns := partSnapshots(genDir, part)
	if len(lsns) < 2 {
		t.Fatalf("expected two retained snapshots, have %v", lsns)
	}
	if err := os.WriteFile(snapPath(genDir, part, lsns[0]), []byte("{ corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	logs := &logCollector{}
	got := reopenAndCount(t, dir, g, logs.logf)
	if !sameIDs(got, want) {
		t.Fatalf("fallback recovery got results %v, want %v", got, want)
	}
	if !logs.contains("falling back to the previous snapshot") {
		t.Fatalf("snapshot fallback not reported; warnings: %v", logs.lines)
	}
}

// TestAllSnapshotsCorruptReplaysFullLog destroys every snapshot of the
// partition: as long as the log retains the full history, recovery replays
// it from scratch.
func TestAllSnapshotsCorruptReplaysFullLog(t *testing.T) {
	dir, _, g := corruptibleStore(t)
	// Locate the generation via CURRENT; no checkpoint ran, so the log holds
	// the complete history and snapshots only the (empty) boot state.
	cur, err := os.ReadFile(dir + "/" + currentFile)
	if err != nil {
		t.Fatal(err)
	}
	genDir := dir + "/" + strings.TrimSpace(string(cur))
	for _, lsn := range partSnapshots(genDir, shardPartName(0)) {
		if err := os.WriteFile(snapPath(genDir, shardPartName(0), lsn), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	logs := &logCollector{}
	got := reopenAndCount(t, dir, g, logs.logf)
	want := g.resultsAt[len(g.resultsAt)-1]
	if !sameIDs(got, want) {
		t.Fatalf("full-log replay got results %v, want %v", got, want)
	}
	if !logs.contains("replaying the full log") {
		t.Fatalf("full replay not reported; warnings: %v", logs.lines)
	}
}

// failingSink starts failing writes on demand; the partition must reject
// the mutation, leave memory untouched, and refuse further appends until a
// checkpoint rewrites the log.
type failingSink struct {
	fail *bool
}

func (f failingSink) Write(p []byte) (int, error) {
	if *f.fail {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}
func (f failingSink) Sync() error  { return nil }
func (f failingSink) Close() error { return nil }

func TestFailedAppendRejectsMutationAndLatches(t *testing.T) {
	dir := t.TempDir()
	fail := false
	factory := func(path string) (walSink, error) {
		if strings.HasSuffix(path, shardPartName(0)+".wal") {
			return failingSink{fail: &fail}, nil
		}
		return nosyncFactory(path)
	}
	s, err := open(dir, 1, quietLogf, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := s.CreateProject("martin", "flaky-disk", "", true)
	if err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key
	e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 1, SQL: "SELECT 1"}, {ID: 2, SQL: "SELECT 2"}, {ID: 3, SQL: "SELECT 3"}}); err != nil {
		t.Fatal(err)
	}
	tasks, err := s.RequestTasks(key, e.ID, "vektor", "laptop", 3)
	if err != nil || len(tasks) != 3 {
		t.Fatalf("lease: %v %v", tasks, err)
	}
	var batch []Completion
	for _, task := range tasks {
		batch = append(batch, Completion{TaskID: task.ID, Seconds: []float64{0.1}})
	}
	running := func() int {
		n := 0
		for _, task := range s.Tasks("martin", p.ID) {
			if task.Status == TaskRunning {
				n++
			}
		}
		return n
	}

	fail = true
	// A failed batch append fails every completion of the batch and leaves
	// memory untouched: no result, every lease still running.
	for i, out := range s.CompleteTasks(key, batch) {
		if out.Err == nil || out.Result != nil {
			t.Fatalf("completion %d on a failing disk: %v, %v", i, out.Result, out.Err)
		}
	}
	if len(s.Results("martin", p.ID)) != 0 || running() != 3 {
		t.Fatal("failed batch append leaked into memory")
	}
	if _, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", ""); err == nil {
		t.Fatal("append on failing disk must surface an error")
	}
	if got := s.Project(p.ID); len(got.Experiments) != 1 {
		t.Fatal("failed append leaked into memory")
	}
	fail = false
	// The partition stays latched even after the disk recovers: the file may
	// end in garbage, so appending past it would strand the new records.
	if _, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", ""); err == nil ||
		!strings.Contains(err.Error(), "wal unavailable") {
		t.Fatalf("latched partition accepted a mutation: %v", err)
	}
	// A checkpoint rewrites the log from the provably intact records and
	// heals the partition; the leases the failed batch left running can be
	// completed now.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", ""); err != nil {
		t.Fatalf("checkpoint did not heal the partition: %v", err)
	}
	for i, out := range s.CompleteTasks(key, batch) {
		if out.Err != nil {
			t.Fatalf("completion %d after the heal: %v", i, out.Err)
		}
	}
	if len(s.Results("martin", p.ID)) != 3 || running() != 0 {
		t.Fatal("the healed partition did not record the batch")
	}
}
