package repository

import (
	"slices"
	"sync/atomic"
	"time"
)

// The queue's indexes. A lease, a completion and an expiry sweep used to
// re-derive what they needed from everything the shard held — every result
// and every task for the covered slots, every task for the overdue leases,
// every shard for the owner of a task id or a contributor key. The state
// below is maintained instead at the seams that already mutate the shard:
// the records' apply methods (record.go), which the live and the replay path
// share, expireTasksLocked, and mergeSnapshot when recovery loads a
// snapshot. None of it is persisted; it is a function of the projects,
// results and tasks, and the scan it replaced lives on in index_test.go as
// the oracle it is checked against. The id counters are raised here too, as
// the rows enter, so recovery never reissues an id it has seen.

type expKey struct{ project, experiment int }

type laneKey struct{ dbms, platform string }

// expIndex is the queue's view of one experiment: where each query sits in
// the pool, and one lane per DBMS + platform combination measured so far.
type expIndex struct {
	// exp is nil when rows reference an experiment the project does not
	// have; such rows are still counted, nothing can be leased.
	exp *Experiment
	// pos maps a query id to its first position in exp.Queries.
	pos   map[int]int
	lanes map[laneKey]*lane
}

// lane is the covered set of one (experiment, DBMS, platform) combination,
// and its result rows.
type lane struct {
	// dbms and platform are the copies of the keys that the lane's tasks and
	// results alias: decoding a record allocates each string anew.
	dbms, platform string
	// label is the lane's target label, "dbms@platform"; two lanes of an
	// experiment may have one (DBMS "a@b" on "c", DBMS "a" on "b@c").
	label string
	// rows are the lane's results in the order of the shard's results,
	// kept in step with them by indexResult and moderation. The slice is
	// the lane's own: the read methods hand out copies.
	rows []*Result
	// cover counts, per query id, the results and the active (running or
	// done) tasks that occupy the slot; a query is free at zero.
	cover map[int]int32
	// cursor is a position of the pool before which every query is covered,
	// so a lease starts there instead of at the first query.
	cursor int
}

// expIndexFor returns the index of an experiment, creating it on first use.
func (sh *shard) expIndexFor(projectID, experimentID int) *expIndex {
	k := expKey{projectID, experimentID}
	x := sh.exps[k]
	if x == nil {
		x = &expIndex{pos: map[int]int{}, lanes: map[laneKey]*lane{}}
		sh.exps[k] = x
	}
	return x
}

func (x *expIndex) lane(dbms, platform string) *lane {
	k := laneKey{dbms, platform}
	ln := x.lanes[k]
	if ln == nil {
		ln = &lane{dbms: dbms, platform: platform, label: dbms + "@" + platform, cover: map[int]int32{}}
		x.lanes[k] = ln
	}
	return ln
}

// uncover releases one claim on a query's slot. A slot that becomes free
// pulls the lane's cursor back to its position.
func (sh *shard) uncover(projectID, experimentID int, dbms, platform string, queryID int) {
	x := sh.expIndexFor(projectID, experimentID)
	ln := x.lane(dbms, platform)
	if n := ln.cover[queryID]; n > 1 {
		ln.cover[queryID] = n - 1
		return
	}
	delete(ln.cover, queryID)
	if i, ok := x.pos[queryID]; ok && i < ln.cursor {
		ln.cursor = i
	}
}

// indexProject registers a project that just entered the shard: the routes
// of its contributor keys and the pools of its experiments.
func (sh *shard) indexProject(p *Project) {
	for _, c := range p.Contributors {
		sh.store.routeContributor(p, c)
	}
	for _, e := range p.Experiments {
		sh.indexQueries(p.ID, e)
	}
}

// indexQueries indexes the pool of an experiment after it was set or
// replaced: every lane is rewound, the positions it had passed are gone. A
// lane's cursor is only a hint, so rewinding it leases nothing twice.
func (sh *shard) indexQueries(projectID int, e *Experiment) {
	x := sh.expIndexFor(projectID, e.ID)
	x.exp = e
	x.pos = make(map[int]int, len(e.Queries))
	//lint:ordered every lane is rewound; no order can be observed
	for _, ln := range x.lanes {
		ln.cursor = 0
	}
	for i, q := range e.Queries {
		if _, dup := x.pos[q.ID]; !dup {
			x.pos[q.ID] = i
		}
	}
}

// indexResult adds a result row to the shard, sealed into its project's
// arena, and counts and lists it on its lane.
func (sh *shard) indexResult(r *Result) {
	ln := sh.expIndexFor(r.ProjectID, r.ExperimentID).lane(r.DBMSKey, r.PlatformKey)
	r.DBMSKey, r.PlatformKey = ln.dbms, ln.platform
	r.ContributorKey = sh.store.canonicalKey(r.ContributorKey)
	r.seal(sh.arenaFor(r.ProjectID))
	ln.cover[r.QueryID]++
	ln.rows = append(ln.rows, r)
	sh.results = append(sh.results, r)
	raise(&sh.store.nextResultID, r.ID)
}

// arenaFor returns the arena of a project's rows, creating it on first use.
func (sh *shard) arenaFor(projectID int) *arena {
	a := sh.arenas[projectID]
	if a == nil {
		a = new(arena)
		sh.arenas[projectID] = a
	}
	return a
}

// laneRow returns the lane of a stored row and the row's position in the
// lane's rows.
func (sh *shard) laneRow(r *Result) (*lane, int) {
	ln := sh.expIndexFor(r.ProjectID, r.ExperimentID).lane(r.DBMSKey, r.PlatformKey)
	return ln, slices.Index(ln.rows, r)
}

// indexTask adds a task to the shard: its route, its claim on the slot while
// it is active, and its place among the leases expiry has to watch.
func (sh *shard) indexTask(t *Task) {
	x := sh.expIndexFor(t.ProjectID, t.ExperimentID)
	ln := x.lane(t.DBMSKey, t.PlatformKey)
	t.DBMSKey, t.PlatformKey = ln.dbms, ln.platform
	t.ContributorKey = sh.store.canonicalKey(t.ContributorKey)
	if i, ok := x.pos[t.QueryID]; ok && x.exp.Queries[i].SQL == t.SQL {
		t.SQL = x.exp.Queries[i].SQL
	}
	if t.Active() {
		ln.cover[t.QueryID]++
	}
	if t.Status == TaskRunning {
		sh.running[t.ID] = t
	} else {
		sh.settled = append(sh.settled, t)
	}
	sh.tasks[t.ID] = t
	sh.store.routeTask(t.ID, sh)
	raise(&sh.store.nextTaskID, t.ID)
}

// settleTask ends a lease — completed, failed, killed or timed out — and
// keeps its lane, the running set and the settled list in step. A task that
// already ended is left as it is: settled rows are never touched again, a
// checkpoint may be encoding them.
func (sh *shard) settleTask(t *Task, status TaskStatus, finished time.Time) {
	if t.Status != TaskRunning {
		return
	}
	t.Status, t.Finished = status, finished
	delete(sh.running, t.ID)
	sh.settled = append(sh.settled, t)
	if !t.Active() {
		sh.uncover(t.ProjectID, t.ExperimentID, t.DBMSKey, t.PlatformKey, t.QueryID)
	}
}

// --- store-level routes -------------------------------------------------------

// contributorRoute is where a contributor key leads.
type contributorRoute struct {
	project     *Project
	contributor *Contributor
}

func (s *Store) routeContributor(p *Project, c *Contributor) {
	s.routeMu.Lock()
	s.keyRoutes[c.Key] = contributorRoute{p, c}
	s.routeMu.Unlock()
}

func (s *Store) routeTask(taskID int, sh *shard) {
	s.routeMu.Lock()
	s.taskRoutes[taskID] = sh
	s.routeMu.Unlock()
}

// canonicalKey returns the stored copy of a contributor key, so rows decoded
// from a record share one string with the contributor they name.
func (s *Store) canonicalKey(key string) string {
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	if rt, ok := s.keyRoutes[key]; ok {
		return rt.contributor.Key
	}
	return key
}

// raise lifts an id counter, the last id assigned, to at least id.
func raise(counter *atomic.Int64, id int) {
	for {
		last := counter.Load()
		if int64(id) <= last || counter.CompareAndSwap(last, int64(id)) {
			return
		}
	}
}
