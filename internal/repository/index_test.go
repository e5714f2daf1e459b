package repository

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// The oracle: what RequestTasks and expireTasksLocked computed before the
// shard kept indexes (index.go) — a scan over every result and every task of
// the shard per lease, a range over every task per expiry sweep. The tests
// below hold the indexes to it after every step of random histories.

// oracleLease returns the query ids a lease of up to max at time now would
// grant on a lane, by the scan: a lease expires the overdue tasks first, so a
// running task past its deadline holds no slot. The zero time is before
// every deadline.
func oracleLease(sh *shard, projectID, experimentID int, dbms, platform string, max int, now time.Time) []int {
	covered := map[int]bool{}
	for _, r := range sh.results {
		if r.ProjectID == projectID && r.ExperimentID == experimentID && r.DBMSKey == dbms && r.PlatformKey == platform {
			covered[r.QueryID] = true
		}
	}
	for _, t := range sh.tasks {
		overdue := t.Status == TaskRunning && now.After(t.Deadline)
		if t.ProjectID == projectID && t.ExperimentID == experimentID && t.DBMSKey == dbms && t.PlatformKey == platform && t.Active() && !overdue {
			covered[t.QueryID] = true
		}
	}
	var ids []int
	for _, q := range sh.projects[projectID].Experiment(experimentID).Queries {
		if len(ids) >= max {
			break
		}
		if !covered[q.ID] {
			ids = append(ids, q.ID)
		}
	}
	return ids
}

// oracleOverdue returns the sorted ids of the running tasks whose deadline
// passed, by the range over every task.
func oracleOverdue(sh *shard, now time.Time) []int {
	var ids []int
	for _, t := range sh.tasks {
		if t.Status == TaskRunning && now.After(t.Deadline) {
			ids = append(ids, t.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// checkIndexes compares every index of the store with what the scans derive
// from the rows: covered sets, cursors, the running sets, both routes, the
// lanes' rows and where the rows stand in their arenas — and that no slot
// has two leases running at time now (a restart brings an expired lease back
// as running until the next sweep: expiry is not logged).
func checkIndexes(t *testing.T, s *Store, lanes []laneKey, now time.Time) {
	t.Helper()
	for _, sh := range s.shards {
		running := map[int]bool{}
		type slot struct {
			exp   expKey
			lane  laneKey
			query int
		}
		leased := map[slot]int{}
		for id, task := range sh.tasks {
			if s.shardWithTask(id) != sh {
				t.Fatalf("task %d routes to the wrong shard", id)
			}
			if task.Status != TaskRunning {
				continue
			}
			running[id] = true
			if now.After(task.Deadline) {
				continue
			}
			k := slot{expKey{task.ProjectID, task.ExperimentID}, laneKey{task.DBMSKey, task.PlatformKey}, task.QueryID}
			if other, twice := leased[k]; twice {
				t.Fatalf("slot %+v is leased twice: tasks %d and %d are both running", k, other, id)
			}
			leased[k] = id
		}
		if len(running) != len(sh.running) {
			t.Fatalf("shard %d: %d leases in the running set, %d running tasks", sh.idx, len(sh.running), len(running))
		}
		for id := range sh.running {
			if !running[id] {
				t.Fatalf("shard %d: task %d is in the running set but is %s", sh.idx, id, sh.tasks[id].Status)
			}
		}
		// Every lane lists the shard's rows of its experiment, DBMS and
		// platform in shard order, and every row's sealed bytes are
		// followed by rowSep in its arena block.
		laneRows := map[*lane][]*Result{}
		for _, r := range sh.results {
			var ln *lane
			if x := sh.exps[expKey{r.ProjectID, r.ExperimentID}]; x != nil {
				ln = x.lanes[laneKey{r.DBMSKey, r.PlatformKey}]
			}
			if ln == nil {
				t.Fatalf("shard %d: result %d has no lane", sh.idx, r.ID)
			}
			laneRows[ln] = append(laneRows[ln], r)
			if end := r.end + len(rowSep); end > len(r.blk.buf) || string(r.blk.buf[r.end:end]) != rowSep {
				t.Fatalf("shard %d: result %d is not followed by %q in its block", sh.idx, r.ID, rowSep)
			}
		}
		for k, x := range sh.exps {
			for lk, ln := range x.lanes {
				if !slices.Equal(ln.rows, laneRows[ln]) {
					t.Fatalf("shard %d: lane %v %v lists %d rows, the shard holds %d of it (or in another order)", sh.idx, k, lk, len(ln.rows), len(laneRows[ln]))
				}
			}
		}
		for _, p := range sh.projects {
			for _, c := range p.Contributors {
				if got, nick, err := s.FindContributor(c.Key); err != nil || got != p || nick != c.Nickname {
					t.Fatalf("key of %s in project %d routes to %v, %q, %v", c.Nickname, p.ID, got, nick, err)
				}
			}
			for _, e := range p.Experiments {
				x := sh.exps[expKey{p.ID, e.ID}]
				if x == nil || x.exp != e {
					t.Fatalf("experiment %d/%d is not indexed", p.ID, e.ID)
				}
				for _, lk := range lanes {
					want := oracleLease(sh, p.ID, e.ID, lk.dbms, lk.platform, len(e.Queries), time.Time{})
					free := map[int]bool{}
					for _, id := range want {
						free[id] = true
					}
					ln := x.lanes[lk]
					for i, q := range e.Queries {
						covered := ln != nil && ln.cover[q.ID] > 0
						if covered == free[q.ID] {
							t.Fatalf("%d/%d %v query %d: index says covered=%v, the scan says free=%v", p.ID, e.ID, lk, q.ID, covered, free[q.ID])
						}
						if ln != nil && i < ln.cursor && !covered {
							t.Fatalf("%d/%d %v: free query %d at position %d lies before the cursor %d", p.ID, e.ID, lk, q.ID, i, ln.cursor)
						}
					}
				}
			}
		}
	}
}

// persistedImage is imageOf with expiry undone: a timeout is derived from
// the persisted deadline, never logged, so the log knows the lease as
// running.
func persistedImage(s *Store) storeImage {
	img := imageOf(s)
	for i, task := range img.Tasks {
		if task.Status == TaskTimeout {
			running := *task
			running.Status, running.Finished = TaskRunning, time.Time{}
			img.Tasks[i] = &running
		}
	}
	return img
}

// TestIndexMatchesScanOracle drives seeded random histories — leases,
// completions (ok and failed), kills, expiry under a fake clock, direct
// results, moderation, pool replacement and growth, checkpoints, restarts —
// over a durable two-shard store. After every step the indexes must equal
// what the scans derive, every lease must grant exactly what the scan would,
// every expiry sweep must time out exactly the overdue leases, and the live
// state must deep-equal what recovery rebuilds from the snapshots and logs
// on disk.
func TestIndexMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runIndexHistory(t, seed, 350) })
	}
}

func runIndexHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	reopen := func() *Store {
		s, err := open(dir, 2, quietLogf, nosyncFactory)
		if err != nil {
			t.Fatal(err)
		}
		s.now = func() time.Time { return clock }
		s.TaskTimeout = time.Minute
		return s
	}
	s := reopen()
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	type target struct {
		project, exp int
		key          string
	}
	var targets []target
	nextQuery := 1
	newQueries := func(n int) []QueryRecord {
		var qs []QueryRecord
		for i := 0; i < n; i++ {
			qs = append(qs, QueryRecord{ID: nextQuery, SQL: fmt.Sprintf("SELECT %d FROM nation", nextQuery)})
			nextQuery++
		}
		return qs
	}
	for i := 0; i < 3; i++ { // projects 1 and 3 share a shard, 2 has the other
		p, err := s.CreateProject("martin", fmt.Sprintf("history-%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ReplaceQueries("martin", p.ID, e.ID, newQueries(10)); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, target{p.ID, e.ID, p.Contributors[0].Key})
		}
	}
	lanes := []laneKey{{"vektor", "laptop"}, {"vektor", "cloud"}, {"columba", "laptop"}}

	var leased []*Task // handed out and not yet settled by this driver
	for step := 0; step < steps; step++ {
		tg := targets[rng.Intn(len(targets))]
		lk := lanes[rng.Intn(len(lanes))]
		sh := s.shardFor(tg.project)
		pool := s.Project(tg.project).Experiment(tg.exp).Queries
		switch op := rng.Intn(100); {
		case op < 30: // lease
			overdue := oracleOverdue(sh, clock)
			max := 1 + rng.Intn(4)
			want := oracleLease(sh, tg.project, tg.exp, lk.dbms, lk.platform, max, clock)
			tasks, err := s.RequestTasks(tg.key, tg.exp, lk.dbms, lk.platform, max)
			if err != nil {
				t.Fatalf("step %d: lease: %v", step, err)
			}
			for _, id := range overdue {
				if sh.tasks[id].Status != TaskTimeout {
					t.Fatalf("step %d: overdue task %d was not expired by the lease", step, id)
				}
			}
			var got []int
			for _, task := range tasks {
				got = append(got, task.QueryID)
				leased = append(leased, task)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: lease of %d on %d/%d %v granted queries %v, the scan grants %v", step, max, tg.project, tg.exp, lk, got, want)
			}
		case op < 55 && len(leased) > 0: // complete a batch of one to three leases of one key, one in four failed
			key, size := leased[rng.Intn(len(leased))].ContributorKey, 1+rng.Intn(3)
			var batch, rest []*Task
			for _, task := range leased {
				if task.ContributorKey == key && len(batch) < size {
					batch = append(batch, task)
				} else {
					rest = append(rest, task)
				}
			}
			leased = rest
			completions := make([]Completion, len(batch))
			lands := make([]bool, len(batch))
			for j, task := range batch {
				completions[j] = Completion{TaskID: task.ID, Seconds: []float64{0.1}, Extra: EncodeExtras(map[string]string{"step": fmt.Sprint(step)})}
				if rng.Intn(4) == 0 {
					completions[j].Error = "simulated failure"
				}
				stored := s.shardWithTask(task.ID).tasks[task.ID]
				// A completion lands when its lease is still running in time
				// and its query was not dropped from the pool meanwhile.
				lands[j] = stored.Status == TaskRunning && !clock.After(stored.Deadline) &&
					s.Project(stored.ProjectID).Experiment(stored.ExperimentID).Query(stored.QueryID) != nil
			}
			for j, out := range s.CompleteTasks(key, completions) {
				if lands[j] != (out.Err == nil) {
					t.Fatalf("step %d: completing task %d (should land: %v): %v", step, batch[j].ID, lands[j], out.Err)
				}
			}
		case op < 60 && len(leased) > 0: // kill
			i := rng.Intn(len(leased))
			task := leased[i]
			leased = append(leased[:i], leased[i+1:]...)
			stored := s.shardWithTask(task.ID).tasks[task.ID]
			wasRunning := stored.Status == TaskRunning
			if err := s.KillTask("martin", task.ID); wasRunning != (err == nil) {
				t.Fatalf("step %d: killing task %d (running: %v): %v", step, task.ID, wasRunning, err)
			}
		case op < 68: // time passes, sometimes past the lease timeout
			clock = clock.Add(time.Duration(rng.Intn(50)) * time.Second)
			if rng.Intn(2) == 0 {
				want := 0
				for _, each := range s.shards {
					want += len(oracleOverdue(each, clock))
				}
				if got := s.ExpireTasks(); got != want {
					t.Fatalf("step %d: ExpireTasks expired %d leases, the scan finds %d overdue", step, got, want)
				}
			}
		case op < 76 && len(pool) > 0: // a result reported without a lease
			q := pool[rng.Intn(len(pool))]
			if _, err := s.AddResult(tg.key, tg.exp, q.ID, lk.dbms, lk.platform, []float64{0.2}, "", nil); err != nil {
				t.Fatalf("step %d: AddResult: %v", step, err)
			}
		case op < 84: // moderation
			results := s.Results("martin", tg.project)
			if len(results) == 0 {
				continue
			}
			r := results[rng.Intn(len(results))]
			if rng.Intn(2) == 0 {
				if err := s.DeleteResult("martin", r.ID); err != nil {
					t.Fatalf("step %d: DeleteResult: %v", step, err)
				}
			} else if err := s.HideResult("martin", r.ID, !r.Hidden); err != nil {
				t.Fatalf("step %d: HideResult: %v", step, err)
			}
		case op < 88: // the pool is replaced: some queries kept, in a new order, some new
			kept := append([]QueryRecord(nil), pool...)
			rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
			kept = append(kept[:len(kept)*2/3], newQueries(rng.Intn(4))...)
			if err := s.ReplaceQueries("martin", tg.project, tg.exp, kept); err != nil {
				t.Fatalf("step %d: ReplaceQueries: %v", step, err)
			}
		case op < 92:
			if err := s.AppendQueries("martin", tg.project, tg.exp, newQueries(1+rng.Intn(3))); err != nil {
				t.Fatalf("step %d: AppendQueries: %v", step, err)
			}
		case op < 96:
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("step %d: Checkpoint: %v", step, err)
			}
		default: // restart
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = reopen()
		}
		checkIndexes(t, s, lanes, clock)
		replayed, err := Load(dir)
		if err != nil {
			t.Fatalf("step %d: replaying the store from disk: %v", step, err)
		}
		checkIndexes(t, replayed, lanes, clock)
		if got, want := persistedImage(replayed), persistedImage(s); !sameImage(got, want) {
			t.Fatalf("step %d: the state replayed from snapshots and logs differs from the live state:\n got %+v\nwant %+v", step, got, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedRowsShareStrings pins the interning of what JSON decoding
// duplicates: on the live path and after recovery, a task's SQL is its
// query record's string, and the keys of a task and of its result are one
// string each.
func TestDecodedRowsShareStrings(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	p, err := s.CreateProject("martin", "interned", "", true)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 1, SQL: "SELECT 1 FROM nation"}, {ID: 2, SQL: "SELECT 2 FROM nation"}}); err != nil {
		t.Fatal(err)
	}
	key := p.Contributors[0].Key
	for i := 0; i < 2; i++ {
		task, err := s.RequestTask(key, e.ID, "vektor", "laptop")
		if err != nil || task == nil {
			t.Fatalf("lease: %v %v", task, err)
		}
		if _, err := s.CompleteTask(task.ID, key, []float64{0.1}, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	check := func(s *Store, path string) {
		t.Helper()
		sh := s.shardFor(p.ID)
		project := sh.projects[p.ID]
		if len(sh.tasks) != 2 || len(sh.results) != 2 {
			t.Fatalf("%s: %d tasks, %d results", path, len(sh.tasks), len(sh.results))
		}
		var first *Task
		for _, task := range sh.tasks {
			if q := project.Experiments[0].Query(task.QueryID); !same(task.SQL, q.SQL) {
				t.Errorf("%s: the SQL of task %d is a copy of its query record's", path, task.ID)
			}
			if !same(task.ContributorKey, project.Contributors[0].Key) {
				t.Errorf("%s: the contributor key of task %d is a copy", path, task.ID)
			}
			if first == nil {
				first = task
			}
			if !same(task.DBMSKey, first.DBMSKey) || !same(task.PlatformKey, first.PlatformKey) {
				t.Errorf("%s: tasks of one lane hold copies of its keys", path)
			}
		}
		for _, r := range sh.results {
			if !same(r.DBMSKey, first.DBMSKey) || !same(r.PlatformKey, first.PlatformKey) || !same(r.ContributorKey, first.ContributorKey) {
				t.Errorf("%s: the keys of result %d are copies of its task's", path, r.ID)
			}
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := open(dir, 2, quietLogf, nosyncFactory) // from the logs
	if err != nil {
		t.Fatal(err)
	}
	check(replayed, "replayed")
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := open(dir, 2, quietLogf, nosyncFactory) // from the snapshots the last Open wrote
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	check(loaded, "loaded")
}

// drainFixture is a one-shard store with one experiment of n queries.
func drainFixture(tb testing.TB, s *Store, n int) (key string, expID int) {
	tb.Helper()
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		tb.Fatal(err)
	}
	p, err := s.CreateProject("martin", "flat", "", true)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
	if err != nil {
		tb.Fatal(err)
	}
	qs := make([]QueryRecord, n)
	for i := range qs {
		qs[i] = QueryRecord{ID: i + 1, SQL: "SELECT count(*) FROM nation"}
	}
	if err := s.ReplaceQueries("martin", p.ID, e.ID, qs); err != nil {
		tb.Fatal(err)
	}
	return p.Contributors[0].Key, e.ID
}

// tryLeaseAndComplete leases one task on the lane and completes it.
func tryLeaseAndComplete(s *Store, key string, expID int) error {
	task, err := s.RequestTask(key, expID, "vektor", "laptop")
	if err != nil || task == nil {
		return fmt.Errorf("lease: %v %v", task, err)
	}
	_, err = s.CompleteTask(task.ID, key, []float64{0.1}, "", nil)
	return err
}

func leaseAndComplete(tb testing.TB, s *Store, key string, expID int) {
	tb.Helper()
	if err := tryLeaseAndComplete(s, key, expID); err != nil {
		tb.Fatal(err)
	}
}

// TestLeaseAndCompletionCostIsFlat pins that one lease plus one completion
// looks at as many items, and allocates as often, when the shard holds
// 20,000 completed tasks as when it holds 100. Before the indexes both grew
// with every task: the lease scanned all results and tasks, the expiry
// sweep in lease and completion ranged over all tasks.
func TestLeaseAndCompletionCostIsFlat(t *testing.T) {
	s := NewStoreShards(1)
	key, expID := drainFixture(t, s, 20500)
	sh := s.shards[0]
	measure := func() (scanned uint64, allocs float64) {
		const runs = 200
		before := sh.scanned
		allocs = testing.AllocsPerRun(runs, func() { leaseAndComplete(t, s, key, expID) })
		return (sh.scanned - before) / (runs + 1), allocs // AllocsPerRun warms up with one extra run
	}
	completed := 0
	fill := func(n int) {
		for ; completed < n; completed++ {
			leaseAndComplete(t, s, key, expID)
		}
	}
	fill(100)
	scannedSmall, allocsSmall := measure()
	completed += 201
	fill(20000)
	scannedLarge, allocsLarge := measure()
	if scannedSmall != scannedLarge {
		t.Errorf("items looked at per lease + completion: %d at 100 completed tasks, %d at 20,000", scannedSmall, scannedLarge)
	}
	// AllocsPerRun truncates an average that carries the amortised growth of
	// the results slice and the id maps and what encoding/json reallocates
	// after a collection emptied its pools, so the two may differ by one or
	// two; the scan's covered map alone cost dozens more at 20,000.
	if d := allocsLarge - allocsSmall; d > 2 || d < -2 {
		t.Errorf("allocations per lease + completion: %v at 100 completed tasks, %v at 20,000", allocsSmall, allocsLarge)
	}
	t.Logf("per lease + completion: %d items looked at, %v allocations", scannedLarge, allocsLarge)
}

// BenchmarkLeaseCompleteAtShardSize measures one lease plus one completion
// on a durable shard (fsync skipped, as in BenchmarkRepositoryShards) that
// already holds the given number of completed tasks.
func BenchmarkLeaseCompleteAtShardSize(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"32k", 32000}} {
		b.Run(size.name, func(b *testing.B) {
			s, err := open(b.TempDir(), 1, quietLogf, nosyncFactory)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			key, expID := drainFixture(b, s, size.n+b.N)
			for i := 0; i < size.n; i++ {
				leaseAndComplete(b, s, key, expID)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leaseAndComplete(b, s, key, expID)
			}
		})
	}
}

// TestQueueTouchesNoOtherShardsLock pins the routes: while another shard is
// write-locked — a mutator of some other project, the log swap of a
// checkpoint — a lease and a completion on this shard go through. The
// lookups they start with (FindContributor, shardWithTask) used to probe
// every shard in index order under its read lock, so a locked shard stalled
// the queue of every shard behind it.
func TestQueueTouchesNoOtherShardsLock(t *testing.T) {
	s := NewStoreShards(4)
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	var key string
	var expID int
	for i := 0; i < 2; i++ { // project 1 on shard 1, project 2 on shard 2
		p, err := s.CreateProject("martin", fmt.Sprintf("routed-%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 1, SQL: "SELECT 1"}}); err != nil {
			t.Fatal(err)
		}
		key, expID = p.Contributors[0].Key, e.ID
	}
	locked, free := s.shardFor(1), s.shardFor(2)
	if locked.idx >= free.idx {
		t.Fatalf("the locked shard %d must come before the queue's shard %d", locked.idx, free.idx)
	}
	locked.mu.Lock()
	defer locked.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		task, err := s.RequestTask(key, expID, "vektor", "laptop")
		if err == nil && task == nil {
			err = fmt.Errorf("nothing leased")
		}
		if err == nil {
			_, err = s.CompleteTask(task.ID, key, []float64{0.1}, "", nil)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lease and a completion on shard 2 wait for the lock of shard 1")
	}
}

// TestModerationLocksOnlyItsOwnShard pins that hiding or deleting a result
// write-locks the result's shard alone: while a reader holds another shard —
// a page being rendered, a checkpoint capturing its image — the owner still
// moderates. Both used to write-lock every shard in turn while they looked
// for the result id.
func TestModerationLocksOnlyItsOwnShard(t *testing.T) {
	s := NewStoreShards(4)
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for i := 0; i < 2; i++ { // project 1 on shard 1, project 2 on shard 2
		p, err := s.CreateProject("martin", fmt.Sprintf("moderated-%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 1, SQL: "SELECT 1"}, {ID: 2, SQL: "SELECT 2"}}); err != nil {
			t.Fatal(err)
		}
		for q := 1; q <= 2; q++ {
			r, err := s.AddResult(p.Contributors[0].Key, e.ID, q, "vektor", "laptop", []float64{0.1}, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
	}
	read, locked, owner := s.shardFor(1), s.shardFor(3), s.shardFor(2)
	if read.idx >= owner.idx || locked.idx <= owner.idx {
		t.Fatalf("want the read shard %d before and the locked shard %d after the owner's shard %d", read.idx, locked.idx, owner.idx)
	}
	read.mu.RLock()
	defer read.mu.RUnlock()
	locked.mu.Lock()
	defer locked.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		err := s.HideResult("martin", results[2].ID, true)
		if err == nil {
			err = s.DeleteResult("martin", results[3].ID)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("moderating a result of shard 2 waits for a reader of shard 1 or the writer of shard 3")
	}
	got := owner.results
	if len(got) != 1 || got[0].ID != results[2].ID || !got[0].Hidden {
		t.Fatalf("shard 2 holds %v after hiding result %d and deleting %d", got, results[2].ID, results[3].ID)
	}
}

// TestRoutesSurviveRecovery pins that recovery rebuilds both routes — from
// the log, from snapshots, and into a different shard count: every
// contributor key (the owner's and an invited one) still leads to its
// project, and a lease handed out before the restart can still be completed.
func TestRoutesSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, nick := range []string{"martin", "ying"} {
		if _, err := s.RegisterUser(nick, nick+"@example.org"); err != nil {
			t.Fatal(err)
		}
	}
	type lease struct {
		key  string
		task *Task
	}
	keys := map[string]int{} // contributor key → project id
	var leases []lease
	for i := 0; i < 3; i++ {
		p, err := s.CreateProject("martin", fmt.Sprintf("routed-%d", i), "", true)
		if err != nil {
			t.Fatal(err)
		}
		invited, err := s.Invite("martin", p.ID, "ying")
		if err != nil {
			t.Fatal(err)
		}
		keys[p.Contributors[0].Key], keys[invited] = p.ID, p.ID
		e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReplaceQueries("martin", p.ID, e.ID, []QueryRecord{{ID: 1, SQL: "SELECT 1"}, {ID: 2, SQL: "SELECT 2"}, {ID: 3, SQL: "SELECT 3"}}); err != nil {
			t.Fatal(err)
		}
		tasks, err := s.RequestTasks(invited, e.ID, "vektor", "laptop", 3)
		if err != nil || len(tasks) != 3 {
			t.Fatalf("lease: %v %v", tasks, err)
		}
		for _, task := range tasks {
			leases = append(leases, lease{invited, task})
		}
	}
	// Restart 1 replays the logs into 3 shards, restart 2 loads the
	// snapshots restart 1 wrote into 5, restart 3 goes back to 2.
	for round, shards := range []int{3, 5, 2} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = open(dir, shards, quietLogf, nosyncFactory); err != nil {
			t.Fatal(err)
		}
		for key, projectID := range keys {
			if p, _, err := s.FindContributor(key); err != nil || p.ID != projectID || p != s.shardFor(projectID).projects[projectID] {
				t.Fatalf("restart %d: a key of project %d leads to %v, %v", round+1, projectID, p, err)
			}
		}
		for _, l := range leases[round*3:] {
			if sh := s.shardWithTask(l.task.ID); sh != s.shardFor(l.task.ProjectID) {
				t.Fatalf("restart %d: task %d of project %d routes to %v", round+1, l.task.ID, l.task.ProjectID, sh)
			}
		}
		// One lease per project is completed after each restart.
		for i := 0; i < 3; i++ {
			l := leases[round+3*i]
			if _, err := s.CompleteTask(l.task.ID, l.key, []float64{0.1}, "", nil); err != nil {
				t.Fatalf("restart %d: completing task %d leased before it: %v", round+1, l.task.ID, err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
