package repository

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqalpel/internal/trace"
)

// sampleTrace builds a small but representative QueryTrace for persistence
// tests.
func sampleTrace(i int) *trace.QueryTrace {
	return &trace.QueryTrace{
		SchemaVersion: trace.SchemaVersion,
		Engine:        "vektor-1.0",
		Spans: []trace.Span{
			{OpID: "scan.0", Kind: trace.KindScan, WallNS: int64(1000 + i), Rows: 59986, Batches: 59},
			{OpID: "filter.0", Kind: trace.KindFilter, WallNS: int64(500 + i), Rows: 114, Batches: 59},
			{OpID: "aggregate", Kind: trace.KindAgg, WallNS: 200, Rows: 4, Calls: 1, AllocBytes: 2048},
		},
	}
}

// TestSaveConcurrentWithMutators hammers Save against the mutators that
// write through the shared *Project/*Task/*Result pointers the snapshot
// holds. Before Save marshalled under the read lock, json.MarshalIndent ran
// after RUnlock and raced with AppendQueries/AddResult/RequestTask; run
// with -race this test pins the fix.
func TestSaveConcurrentWithMutators(t *testing.T) {
	s, pub, _ := fixture(t)
	ownerKey := s.Project(pub.ID).Contributors[0].Key
	dir := t.TempDir()

	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(5)

	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.Save(dir); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			err := s.AppendQueries("martin", pub.ID, 1, []QueryRecord{
				{ID: 100 + i, SQL: fmt.Sprintf("SELECT %d FROM nation", i), Strategy: "random", Components: 2},
			})
			if err != nil {
				t.Errorf("AppendQueries: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.AddResult(ownerKey, 1, 1, "columba-1.0", "laptop", []float64{0.1}, "", map[string]string{"i": fmt.Sprint(i)}); err != nil {
				t.Errorf("AddResult: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Trace-bearing submissions walk the same shared *Result pointers the
		// snapshot marshals; appending them during Save exercises the
		// trace field under -race too.
		for i := 0; i < rounds; i++ {
			if _, err := s.AddResultTraced(ownerKey, 1, 1, "vektor-1.0", "laptop", []float64{0.05}, "", nil, sampleTrace(i)); err != nil {
				t.Errorf("AddResultTraced: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Task leasing mutates *Task fields (status, lease deadline)
			// reachable from the snapshot too.
			task, err := s.RequestTask(ownerKey, 1, "columba-1.0", "laptop")
			if err != nil {
				t.Errorf("RequestTask: %v", err)
				return
			}
			if task == nil {
				continue
			}
			if _, err := s.CompleteTask(task.ID, ownerKey, []float64{0.2}, "", nil); err != nil && err != ErrLeaseLost {
				t.Errorf("CompleteTask: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// The store must still round-trip cleanly after the stampede.
	if err := s.Save(dir); err != nil {
		t.Fatalf("final Save: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after concurrent saves: %v", err)
	}
	if loaded.Project(pub.ID) == nil {
		t.Error("loaded store lost the project")
	}
}

// TestTraceSurvivesSaveLoad pins the persistence of operator traces: a
// trace-bearing result must come back span for span after a Save/Load round
// trip, and untraced results must stay untraced.
func TestTraceSurvivesSaveLoad(t *testing.T) {
	s, pub, _ := fixture(t)
	ownerKey := s.Project(pub.ID).Contributors[0].Key
	dir := t.TempDir()

	want := sampleTrace(7)
	traced, err := s.AddResultTraced(ownerKey, 1, 1, "vektor-1.0", "laptop", []float64{0.05, 0.04}, "", nil, want)
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := s.AddResult(ownerKey, 1, 1, "columba-1.0", "laptop", []float64{0.2}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gotTraced, gotUntraced *Result
	for _, r := range loaded.Results("martin", pub.ID) {
		switch r.ID {
		case traced.ID:
			gotTraced = r
		case untraced.ID:
			gotUntraced = r
		}
	}
	if gotTraced == nil || gotUntraced == nil {
		t.Fatal("results lost in the round trip")
	}
	if gotTraced.Trace == nil {
		t.Fatal("trace lost in the round trip")
	}
	if got := gotTraced.Trace.Decode(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace changed in the round trip:\n got %+v\nwant %+v", got, want)
	}
	if gotUntraced.Trace != nil {
		t.Errorf("untraced result grew a trace: %s", gotUntraced.Trace)
	}
}

// TestCheckpointConcurrentWithMutators is the sharded-durable-store version
// of the stampede above: drivers hammer several projects (hence several
// shards and several WALs) while checkpoints snapshot and compact each
// partition in place, encoding each image with the partition's lock
// released. Run with -race this pins that the image a checkpoint captures
// shares nothing a mutator writes — results hidden and unhidden, leases
// granted, completed and expired while the encoder runs — and that the WAL
// append path does not race with compaction's sink swap. The store must
// recover completely afterwards.
func TestCheckpointConcurrentWithMutators(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 4, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	type target struct {
		projectID, expID int
		key              string
	}
	var targets []target
	for i := 0; i < 4; i++ {
		p, err := s.CreateProject("martin", fmt.Sprintf("stampede-%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		var qs []QueryRecord
		for q := 1; q <= 64; q++ {
			qs = append(qs, QueryRecord{ID: q, SQL: fmt.Sprintf("SELECT %d", q)})
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, qs); err != nil {
			t.Fatal(err)
		}
		// Something to moderate from the first checkpoint on.
		if _, err := s.AddResult(p.Contributors[0].Key, e.ID, 1, "vektor-1.0", "seeded", []float64{0.05}, "", nil); err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{p.ID, e.ID, p.Contributors[0].Key})
	}

	// The clock can jump past every lease's deadline, from any goroutine.
	var skew atomic.Int64
	s.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(len(targets) + 4)
	checkpointsDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(checkpointsDone)
		for i := 0; i < rounds; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Moderation, for as long as checkpoints run: it flips a flag on
		// rows the encoder may be reading.
		for i := 0; ; i++ {
			select {
			case <-checkpointsDone:
				return
			default:
			}
			tg := targets[i%len(targets)]
			r := s.Results("martin", tg.projectID)[0]
			if err := s.HideResult("martin", r.ID, !r.Hidden); err != nil {
				t.Errorf("HideResult: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Leases nobody completes, expired by a jump of the clock: expiry
		// rewrites tasks in place, the one kind of row a capture must copy.
		for i := 0; i < rounds; i++ {
			tg := targets[i%len(targets)]
			if _, err := s.RequestTasks(tg.key, tg.expID, "vektor-1.0", "abandoned", 2); err != nil {
				t.Errorf("RequestTasks: %v", err)
				return
			}
			skew.Add(int64(s.TaskTimeout + time.Second))
			s.ExpireTasks()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tg := targets[i%len(targets)]
			if _, err := s.AddResultTraced(tg.key, tg.expID, 1, "vektor-1.0", "cloud", []float64{0.05}, "", nil, sampleTrace(i)); err != nil {
				t.Errorf("AddResultTraced: %v", err)
				return
			}
		}
	}()
	for _, tg := range targets {
		go func(tg target) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tasks, err := s.RequestTasks(tg.key, tg.expID, "columba-1.0", "laptop", 2)
				if err != nil {
					t.Errorf("RequestTasks: %v", err)
					return
				}
				for _, task := range tasks {
					// The jumping clock may have expired the lease meanwhile.
					if _, err := s.CompleteTask(task.ID, tg.key, []float64{0.2}, "", nil); err != nil && !errors.Is(err, ErrLeaseLost) {
						t.Errorf("CompleteTask: %v", err)
						return
					}
				}
			}
		}(tg)
	}
	wg.Wait()

	// Every acknowledged mutation must come back after a reopen.
	wantResults := map[int]int{}
	for _, tg := range targets {
		wantResults[tg.projectID] = len(s.Results("martin", tg.projectID))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := open(dir, 4, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for _, tg := range targets {
		if got := len(recovered.Results("martin", tg.projectID)); got != wantResults[tg.projectID] {
			t.Errorf("project %d: recovered %d results, want %d", tg.projectID, got, wantResults[tg.projectID])
		}
	}
}

// blockingSink holds every Write until released, and says when the first one
// arrived.
type blockingSink struct {
	walSink
	arrived chan<- struct{}
	release <-chan struct{}
	once    *sync.Once
}

func (b blockingSink) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.arrived) })
	<-b.release
	return b.walSink.Write(p)
}

// TestShardAvailableWhileItsSnapshotIsWritten pins that a checkpoint holds
// a shard's lock to capture the image and to swap the log, not while the
// image is encoded and written: with the snapshot's file blocked mid-write,
// a lease and a completion on that very shard still finish — and are
// recovered, from the log the checkpoint then compacts.
func TestShardAvailableWhileItsSnapshotIsWritten(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	key, expID := drainFixture(t, s, 8)
	leaseAndComplete(t, s, key, expID)

	arrived, release := make(chan struct{}), make(chan struct{})
	s.create = func(path string) (walSink, error) {
		f, err := createFile(path)
		if err != nil || !strings.Contains(path, shardPartName(0)+".snap.") {
			return f, err
		}
		return blockingSink{f, arrived, release, new(sync.Once)}, nil
	}
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- s.Checkpoint() }()
	select {
	case <-arrived:
	case err := <-checkpointed:
		t.Fatalf("the checkpoint finished without writing the shard's snapshot: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- tryLeaseAndComplete(s, key, expID) }()
	var servedErr error
	select {
	case servedErr = <-served:
		close(release)
	case <-time.After(10 * time.Second):
		close(release)
		<-served
		servedErr = errors.New("a lease and a completion wait for the shard's snapshot to be written")
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if n := len(recovered.Results("martin", 1)); n != 2 {
		t.Fatalf("recovered %d results, want the one before and the one during the checkpoint", n)
	}
}

// TestSnapshotsAreByteIdentical pins the order of what a snapshot lists: a
// shard keeps its projects and tasks in maps, and two checkpoints of one
// state used to write them in two orders.
func TestSnapshotsAreByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return fixed }
	for _, nick := range []string{"martin", "ying", "pedro", "stefan"} {
		if _, err := s.RegisterUser(nick, nick+"@example.org"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		p, err := s.CreateProject("martin", fmt.Sprintf("ordered-%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 1, SQL: "SELECT 1"}, {ID: 2, SQL: "SELECT 2"}, {ID: 3, SQL: "SELECT 3"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RequestTasks(p.Contributors[0].Key, e.ID, "vektor", "laptop", 3); err != nil {
			t.Fatal(err)
		}
	}
	images := func() map[string][]byte {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, part := range []string{partMeta, shardPartName(0)} {
			data, err := os.ReadFile(snapPath(s.gen, part, partSnapshots(s.gen, part)[0]))
			if err != nil {
				t.Fatal(err)
			}
			out[part] = data
		}
		return out
	}
	first := images()
	for round := 0; round < 5; round++ {
		for part, data := range images() {
			if !bytes.Equal(data, first[part]) {
				t.Fatalf("checkpoint %d of an unchanged store wrote a different %s snapshot", round+2, part)
			}
		}
	}
}
