package repository

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sqalpel/internal/trace"
)

// ErrLeaseLost marks completions that arrive after the task's lease is no
// longer valid — expired, killed or already re-queued. The work itself was
// fine, the slot has just moved on; drivers treat this as "skip and carry
// on" rather than a fatal error, and the server maps it to 409 Conflict.
var ErrLeaseLost = errors.New("task lease no longer valid")

// TaskStatus tracks the execution status of a queued query.
type TaskStatus string

// Task statuses.
const (
	TaskRunning TaskStatus = "running"
	TaskDone    TaskStatus = "done"
	TaskFailed  TaskStatus = "failed"
	TaskTimeout TaskStatus = "timeout"
	TaskKilled  TaskStatus = "killed"
)

// Task is one entry of the execution queue: a query handed to a contributor
// for a specific DBMS + platform combination. The queue lets the owner kill
// stuck queries and automatically requeues tasks whose results were not
// delivered within the timeout interval. Tasks live on the shard of their
// project, and a batch lease is made durable as a single WAL record before
// any task of the batch is handed out — so a recovered store either knows
// the whole lease or never granted it, and a query slot can never be
// double-leased across a crash.
type Task struct {
	ID             int        `json:"id"`
	ProjectID      int        `json:"project_id"`
	ExperimentID   int        `json:"experiment_id"`
	QueryID        int        `json:"query_id"`
	SQL            string     `json:"sql"`
	ContributorKey string     `json:"contributor_key"`
	DBMSKey        string     `json:"dbms_key"`
	PlatformKey    string     `json:"platform_key"`
	Status         TaskStatus `json:"status"`
	Assigned       time.Time  `json:"assigned"`
	Deadline       time.Time  `json:"deadline"`
	Finished       time.Time  `json:"finished,omitempty"`
}

// Active reports whether the task still occupies its query/dbms/platform
// slot.
func (t *Task) Active() bool { return t.Status == TaskRunning || t.Status == TaskDone }

// RequestTasks leases up to max unmeasured queries of the experiment to the
// contributor for the given DBMS + platform combination in one round trip —
// the batch protocol concurrent drivers use to keep their worker pools fed.
// Every leased task carries a deadline; leases that are not completed in
// time expire and their queries are handed out again (see ExpireTasks).
// Leasing holds the project's shard lock for the whole batch, so two
// concurrent drivers draining the same experiment never receive the same
// query — while drivers on other shards proceed unblocked. What a lease
// costs does not depend on what the shard holds: the contributor key routes
// to its project without touching another shard, overdue leases are looked
// for among the running ones only, and the pool is entered at the lane's
// cursor, behind which every query is covered (index.go). An empty slice
// (and no error) means nothing is left to do.
func (s *Store) RequestTasks(contributorKey string, experimentID int, dbmsKey, platformKey string, max int) ([]*Task, error) {
	if max < 1 {
		max = 1
	}
	p, _, err := s.FindContributor(contributorKey)
	if err != nil {
		return nil, err
	}
	sh := s.shardFor(p.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.expireTasksLocked()
	x := sh.exps[expKey{p.ID, experimentID}]
	if x == nil || x.exp == nil {
		return nil, fmt.Errorf("unknown experiment %d in project %q", experimentID, p.Name)
	}
	ln := x.lanes[laneKey{dbmsKey, platformKey}]
	if ln == nil {
		// The lane is entered by its first lease or result (indexTask,
		// indexResult); until then nothing is covered.
		ln = &lane{}
	}
	var batch []*Task
	for i := ln.cursor; i < len(x.exp.Queries) && len(batch) < max; i++ {
		sh.scanned++
		q := &x.exp.Queries[i]
		if ln.cover[q.ID] > 0 {
			if i == ln.cursor {
				ln.cursor++
			}
			continue
		}
		batch = append(batch, &Task{
			ID:             int(s.nextTaskID.Add(1)),
			ProjectID:      p.ID,
			ExperimentID:   experimentID,
			QueryID:        q.ID,
			SQL:            q.SQL,
			ContributorKey: contributorKey,
			DBMSKey:        dbmsKey,
			PlatformKey:    platformKey,
			Status:         TaskRunning,
			Assigned:       s.now(),
			Deadline:       s.now().Add(s.TaskTimeout),
		})
	}
	if len(batch) == 0 {
		//lint:acked empty lease: nothing was assigned, so there is nothing a crash could erase
		return nil, nil
	}
	// One WAL record per batch: the lease is durable before any task is
	// handed out, so a crash either forgets the whole batch (the driver
	// never saw it either — the request did not return) or remembers every
	// lease in it.
	if err := sh.logApply(opTaskLease, leaseRecord(batch)); err != nil {
		return nil, err
	}
	// Hand out copies: the stored tasks keep mutating under the shard lock
	// (completion, expiry) while the caller serialises its lease.
	leased := make([]*Task, len(batch))
	for i, t := range batch {
		clone := *t
		leased[i] = &clone
	}
	return leased, nil
}

// Completion is one finished task as a driver reports it: the wall-clock
// times of the repetitions, the error when the query failed, the extra
// indicators and, optionally, the per-operator trace. The store copies
// Seconds and keeps Extra and Trace, neither of which is changed in place.
type Completion struct {
	TaskID  int
	Seconds []float64
	Error   string
	Extra   Extras
	Trace   TraceJSON
}

// CompletionOutcome is what became of one Completion: the recorded result
// row, or the reason it was rejected.
type CompletionOutcome struct {
	Result *Result
	Err    error
}

// CompleteTaskTraced reports one task as a batch of one (CompleteTasks),
// with an optional per-operator trace attached to the recorded result; nil
// records an untraced result.
func (s *Store) CompleteTaskTraced(taskID int, contributorKey string, seconds []float64, errMsg string, extra map[string]string, qt *trace.QueryTrace) (*Result, error) {
	out := s.CompleteTasks(contributorKey, []Completion{{TaskID: taskID, Seconds: seconds, Error: errMsg, Extra: EncodeExtras(extra), Trace: EncodeTrace(qt)}})[0]
	return out.Result, out.Err
}

// CompleteTasks records a reported batch of completions — typically the
// tasks of one lease — and returns one outcome per completion, in order.
// A completion into a lease that is no longer running — expired (expiry is
// evaluated here too, not only on request, so a single stalled driver
// cannot sneak a stale result in), killed, already completed, or reported
// earlier in the same batch — is rejected with an error wrapping
// ErrLeaseLost. A contributor
// key belongs to one project, so the batch is recorded the way a lease is:
// under one lock of the project's shard, as one WAL record appended and
// synced once. The record carries, per accepted completion, the status flip
// and the result row, so recovery knows all of the batch or none of it and
// can never observe a completed lease without its measurement — which is
// what makes "a crash loses no acknowledged result" provable.
func (s *Store) CompleteTasks(contributorKey string, batch []Completion) []CompletionOutcome {
	out := make([]CompletionOutcome, len(batch))
	p, _, err := s.FindContributor(contributorKey)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	sh := s.shardFor(p.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.expireTasksLocked()
	recs := make([]walTaskComplete, 0, len(batch))
	var accepted []int // positions in batch of the recorded completions
	seen := map[int]bool{}
	for i, c := range batch {
		rec, err := sh.completionLocked(contributorKey, c, seen[c.TaskID])
		if err != nil {
			out[i].Err = err
			continue
		}
		seen[c.TaskID] = true
		recs = append(recs, rec)
		accepted = append(accepted, i)
	}
	if len(recs) == 0 {
		return out
	}
	if err := sh.logApply(opTaskComplete, completeRecord(recs)); err != nil {
		for _, i := range accepted {
			out[i].Err = err
		}
		return out
	}
	for j, i := range accepted {
		out[i].Result = recs[j].Result
	}
	return out
}

// completionLocked checks one completion against the shard and builds its
// record; the shard lock is held. reported says the task was already
// accepted earlier in the same batch.
func (sh *shard) completionLocked(contributorKey string, c Completion, reported bool) (walTaskComplete, error) {
	task := sh.tasks[c.TaskID]
	switch {
	case task == nil:
		return walTaskComplete{}, fmt.Errorf("unknown task %d", c.TaskID)
	case task.ContributorKey != contributorKey:
		return walTaskComplete{}, fmt.Errorf("task %d belongs to a different contributor", c.TaskID)
	case reported:
		return walTaskComplete{}, fmt.Errorf("task %d is reported twice in one batch: %w", c.TaskID, ErrLeaseLost)
	case task.Status != TaskRunning:
		return walTaskComplete{}, fmt.Errorf("task %d is %s, not running: %w", c.TaskID, task.Status, ErrLeaseLost)
	}
	p := sh.projects[task.ProjectID]
	if p == nil {
		return walTaskComplete{}, fmt.Errorf("unknown project %d", task.ProjectID)
	}
	r, err := sh.store.buildResultLocked(sh, p, contributorKey, task.ExperimentID, task.QueryID, task.DBMSKey, task.PlatformKey, c.Seconds, c.Error, c.Extra, c.Trace)
	if err != nil {
		return walTaskComplete{}, err
	}
	status := TaskDone
	if c.Error != "" {
		status = TaskFailed
	}
	return walTaskComplete{TaskID: c.TaskID, Status: status, Finished: sh.store.now(), Result: r}, nil
}

// shardWithTask returns the shard holding the task, or nil. The route is
// entered when the lease is applied (indexTask), so looking a task up takes
// no shard lock at all.
func (s *Store) shardWithTask(taskID int) *shard {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	return s.taskRoutes[taskID]
}

// ExpireTasks requeues every running task whose deadline passed; it returns
// the number of tasks expired.
func (s *Store) ExpireTasks() int {
	expired := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		expired += sh.expireTasksLocked()
		sh.mu.Unlock()
	}
	return expired
}

// expireTasksLocked requeues the shard's overdue running tasks; the caller
// holds the shard lock. Only the leases still running are looked at, however
// many tasks the shard has seen. Expiry is derived state — deadlines are
// persisted with the lease, so a recovered store re-expires overdue leases on
// the next request without needing expiry records in the log.
func (sh *shard) expireTasksLocked() int {
	now := sh.store.now()
	expired := 0
	//lint:ordered every overdue lease gets the same timestamp and frees its own slot; no order can be observed
	for _, t := range sh.running {
		sh.scanned++
		if now.After(t.Deadline) {
			sh.settleTask(t, TaskTimeout, now)
			expired++
		}
	}
	return expired
}

// Tasks returns the tasks of a project visible to the viewer, sorted by id.
func (s *Store) Tasks(viewer string, projectID int) []*Task {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.roleOfLocked(viewer, projectID) == RoleNone {
		return nil
	}
	var out []*Task
	//lint:ordered filtered collect; the result is sorted by id below
	for _, t := range sh.tasks {
		if t.ProjectID == projectID {
			clone := *t
			out = append(out, &clone)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
