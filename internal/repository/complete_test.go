package repository

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// countingSink counts the writes and syncs of one log file.
type countingSink struct {
	walSink
	n *[2]int // writes, syncs
}

func (s countingSink) Write(p []byte) (int, error) {
	s.n[0]++
	return s.walSink.Write(p)
}

func (s countingSink) Sync() error {
	s.n[1]++
	return s.walSink.Sync()
}

// TestCompleteTasksOneRecordPerShard pins the cost of a reported batch on
// the log: one write and one sync on the shard of the reporting key's
// project, nothing on any other, and nothing at all when no completion of
// the batch is valid.
func TestCompleteTasksOneRecordPerShard(t *testing.T) {
	counts := map[string]*[2]int{} // by log file base name
	s, err := open(t.TempDir(), 2, quietLogf, func(path string) (walSink, error) {
		f, err := nosyncFactory(path)
		counts[filepath.Base(path)] = &[2]int{}
		return countingSink{f, counts[filepath.Base(path)]}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	type project struct {
		key   string
		exp   int
		shard int
	}
	var projects []project
	for i := 0; i < 2; i++ {
		p, err := s.CreateProject("martin", fmt.Sprintf("p%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		var pool []QueryRecord
		for q := 1; q <= 8; q++ {
			pool = append(pool, QueryRecord{ID: q, SQL: fmt.Sprintf("SELECT %d", q)})
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, pool); err != nil {
			t.Fatal(err)
		}
		projects = append(projects, project{p.Contributors[0].Key, e.ID, s.shardFor(p.ID).idx})
	}
	if projects[0].shard == projects[1].shard {
		t.Fatal("the two projects share a shard")
	}
	lease := func(p project, n int) []Completion {
		t.Helper()
		tasks, err := s.RequestTasks(p.key, p.exp, "vektor", "laptop", n)
		if err != nil || len(tasks) != n {
			t.Fatalf("lease of %d: %v, %v", n, tasks, err)
		}
		var batch []Completion
		for _, task := range tasks {
			batch = append(batch, Completion{TaskID: task.ID, Seconds: []float64{0.1}})
		}
		return batch
	}
	// report completes a batch and returns the writes and syncs it cost
	// each shard's log.
	report := func(key string, batch []Completion) ([2][2]int, []CompletionOutcome) {
		t.Helper()
		var cost [2][2]int
		for i := range cost {
			cost[i] = *counts[shardPartName(i)+".wal"]
		}
		outs := s.CompleteTasks(key, batch)
		for i := range cost {
			after := *counts[shardPartName(i)+".wal"]
			cost[i] = [2]int{after[0] - cost[i][0], after[1] - cost[i][1]}
		}
		return cost, outs
	}
	one := func(shard int) (cost [2][2]int) {
		cost[shard] = [2]int{1, 1}
		return cost
	}

	// A batch of 4 on one shard: one write, one sync.
	first := lease(projects[0], 4)
	cost, outs := report(projects[0].key, first)
	if cost != one(projects[0].shard) {
		t.Errorf("a batch of 4 cost the shards %v (writes, syncs), want %v", cost, one(projects[0].shard))
	}
	for i, out := range outs {
		if out.Err != nil || out.Result == nil {
			t.Fatalf("completion %d: %v", i, out.Err)
		}
	}

	// Two projects on two shards: one record on each.
	for _, p := range projects {
		if cost, _ := report(p.key, lease(p, 2)); cost != one(p.shard) {
			t.Errorf("a batch of 2 on shard %d cost %v, want %v", p.shard, cost, one(p.shard))
		}
	}

	// Nothing valid — two spent leases, an unknown task, the other project's
	// task — writes nothing anywhere.
	invalid := append(first[:2:2], Completion{TaskID: 9999}, lease(projects[1], 1)[0])
	cost, outs = report(projects[0].key, invalid)
	if cost != ([2][2]int{}) {
		t.Errorf("an all-invalid batch cost %v, want nothing", cost)
	}
	for i, out := range outs {
		if lost := i < 2; out.Err == nil || errors.Is(out.Err, ErrLeaseLost) != lost {
			t.Errorf("invalid completion %d: %v", i, out.Err)
		}
	}

	// A task reported twice in one batch lands once; the second report is a
	// lost lease.
	twice := lease(projects[0], 1)
	cost, outs = report(projects[0].key, append(twice, twice[0]))
	if cost != one(projects[0].shard) || outs[0].Err != nil || !errors.Is(outs[1].Err, ErrLeaseLost) {
		t.Errorf("a task reported twice: cost %v, outcomes %v, %v", cost, outs[0].Err, outs[1].Err)
	}
}

// TestSingleCompletionRecordStillReplays pins the log format of the parent:
// a task-complete record holding one object, not a list, replays into the
// result and the settled task.
func TestSingleCompletionRecordStillReplays(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	key, expID := drainFixture(t, s, 2)
	task, err := leaseOne(s, key, expID, "vektor", "laptop")
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	sh := s.shards[0]
	sh.mu.Lock()
	rec, err := sh.completionLocked(key, Completion{TaskID: task.ID, Seconds: []float64{0.5}}, false)
	if err == nil {
		err = sh.wal.log(opTaskComplete, rec) // the single object, as logs before batched completions hold it
	}
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = open(dir, 1, quietLogf, nosyncFactory); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	results := s.Results("", task.ProjectID)
	if len(results) != 1 || results[0].ID != rec.Result.ID || results[0].Seconds[0] != 0.5 {
		t.Fatalf("recovered results %v, want the one of record %v", results, rec.Result)
	}
	if got := s.Tasks("", task.ProjectID); len(got) != 1 || got[0].Status != TaskDone || !got[0].Finished.Equal(rec.Finished) {
		t.Fatalf("recovered tasks %+v, want task %d done", got, task.ID)
	}
}

// TestOversizedRecordIsRefused pins the bound of a log record: a completion
// whose record is longer than recovery reads back (maxWALRecord) would be
// dropped at the next start as a corrupt tail, and every record behind it
// with it. So it fails before anything is written, applied or acknowledged,
// and the log stays open for the next mutation, which survives a restart.
func TestOversizedRecordIsRefused(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	s, err := open(dir, 1, logf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	key, expID := drainFixture(t, s, 2)
	tasks, err := s.RequestTasks(key, expID, "vektor", "laptop", 2)
	if err != nil || len(tasks) != 2 {
		t.Fatalf("lease: %v %v", tasks, err)
	}
	big := make([]byte, maxWALRecord+16)
	for i := range big {
		big[i] = 'x'
	}
	copy(big, `{"k":"`)
	copy(big[len(big)-2:], `"}`)
	out := s.CompleteTasks(key, []Completion{{TaskID: tasks[0].ID, Seconds: []float64{1}, Extra: Extras(big)}})
	big = nil
	if out[0].Err == nil {
		t.Fatal("a completion whose record exceeds the log's bound was acknowledged")
	}
	if n := len(s.Results("", tasks[0].ProjectID)); n != 0 {
		t.Fatalf("the refused completion left %d results", n)
	}
	out = s.CompleteTasks(key, []Completion{{TaskID: tasks[1].ID, Seconds: []float64{0.5}}})
	if out[0].Err != nil {
		t.Fatalf("the completion after a refused one: %v", out[0].Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = open(dir, 1, logf, nosyncFactory); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	results := s.Results("", tasks[0].ProjectID)
	if len(results) != 1 || results[0].Seconds[0] != 0.5 {
		t.Fatalf("recovered %d results, want the acknowledged one; log: %q", len(results), logged)
	}
	for _, task := range s.Tasks("", tasks[0].ProjectID) {
		if task.ID == tasks[0].ID && task.Status != TaskRunning {
			t.Fatalf("the refused completion's task is %s after recovery", task.Status)
		}
	}
}
