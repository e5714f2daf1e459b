package repository

import (
	"sort"
	"strings"
	"sync"
)

// shard is one partition of the store: every project whose id hashes to the
// shard lives here together with all of its experiments, results, comments
// and tasks, guarded by the shard's own lock and logged to the shard's own
// write-ahead log. Task leasing, result appends and persistence of
// different shards therefore never contend on a shared lock.
type shard struct {
	store *Store
	idx   int

	mu       sync.RWMutex
	projects map[int]*Project
	// results and comments are append-only, and a *Result or *Comment never
	// changes once it is in: hiding or deleting a result builds a new slice
	// (and a new row). A prefix of either slice is therefore an immutable
	// view a checkpoint can encode without the lock (captureLocked).
	results  []*Result
	comments []*Comment
	tasks    map[int]*Task
	// settled lists the tasks that ended — done, failed, timed out or
	// killed — in the order they did; a settled task is never touched again,
	// so a prefix is an immutable view like one of results.
	settled []*Task
	// rewrites counts the moderations, each of which replaced or dropped a
	// row inside results: a history file holding the old rows is stale.
	rewrites uint64
	// hist is where the shard's history file stands (history.go); only
	// checkpoints use it, under the store's persistMu.
	hist history

	// arenas hold each project's rows as the results page serves them
	// (row.go), keyed by project id.
	arenas map[int]*arena

	// The queue's indexes (index.go): the experiments' pools and lanes, and
	// the leases that can still expire. A lane also lists its rows, which
	// the history and trace pages read.
	exps    map[expKey]*expIndex
	running map[int]*Task
	// scanned counts the pool positions a lease walked and the leases an
	// expiry sweep looked at; tests pin that it does not grow with the shard.
	scanned uint64

	// wal is nil for purely in-memory stores (NewStore); durable stores
	// (Open) append+fsync every mutation record here before applying it.
	wal *walWriter
}

func newShard(s *Store, idx int) *shard {
	return &shard{
		store:    s,
		idx:      idx,
		projects: map[int]*Project{},
		tasks:    map[int]*Task{},
		arenas:   map[int]*arena{},
		exps:     map[expKey]*expIndex{},
		running:  map[int]*Task{},
	}
}

// shardFor routes a project id to its shard.
func (s *Store) shardFor(projectID int) *shard {
	idx := projectID % len(s.shards)
	if idx < 0 {
		idx += len(s.shards)
	}
	return s.shards[idx]
}

// logApply is the write path contract: make the record durable (when a WAL
// is attached), then apply the very value the mutator built — through the
// apply recovery calls on what it decodes, so the two paths cannot drift
// apart. Callers hold the shard lock and have fully validated the mutation,
// so apply cannot fail; a failed append leaves memory untouched and surfaces
// the error.
func (sh *shard) logApply(op string, r shardRecord) error {
	if sh.wal != nil {
		if err := sh.wal.log(op, r); err != nil {
			return err
		}
	}
	r.apply(sh)
	return nil
}

// experiment returns an experiment of one of the shard's projects, or nil.
func (sh *shard) experiment(projectID, experimentID int) *Experiment {
	if p := sh.projects[projectID]; p != nil {
		return p.Experiment(experimentID)
	}
	return nil
}

// roleOfLocked computes the viewer's role for a project of this shard; the
// caller holds the shard lock.
func (sh *shard) roleOfLocked(nickname string, projectID int) Role {
	p := sh.projects[projectID]
	if p == nil {
		return RoleNone
	}
	if nickname != "" && p.Owner == nickname {
		return RoleOwner
	}
	if nickname != "" && p.contributor(nickname) != nil {
		return RoleContributor
	}
	if p.Public {
		return RoleReader
	}
	return RoleNone
}

// projectByNameLocked returns the shard's project with the given name, or
// nil; the caller holds the shard lock.
func (sh *shard) projectByNameLocked(name string) *Project {
	//lint:ordered names are unique across the platform (CreateProject), so at most one project matches
	for _, p := range sh.projects {
		if strings.EqualFold(p.Name, name) {
			return p
		}
	}
	return nil
}

// shardWithResult returns the shard holding the result, or nil. Each shard
// is searched under its read lock only: a result never leaves the shard of
// its project, so the owner found stays the owner.
func (s *Store) shardWithResult(resultID int) *shard {
	for _, sh := range s.shards {
		sh.mu.RLock()
		found := sh.resultPos(resultID) >= 0
		sh.mu.RUnlock()
		if found {
			return sh
		}
	}
	return nil
}

// resultPos returns the position of the result with the given id in the
// shard's results, or -1; the caller holds the shard lock, shared or
// exclusive.
func (sh *shard) resultPos(resultID int) int {
	for i, r := range sh.results {
		if r.ID == resultID {
			return i
		}
	}
	return -1
}

// spliceResults returns a copy of results with the row at position i
// replaced by r, or removed when r is nil. Moderation copies on write — the
// row and the slice — so readers and a checkpoint's capture keep what they
// hold.
func spliceResults(results []*Result, i int, r *Result) []*Result {
	out := make([]*Result, 0, len(results))
	out = append(out, results[:i]...)
	if r != nil {
		out = append(out, r)
	}
	return append(out, results[i+1:]...)
}

// captureLocked builds the shard's persistent image; the caller holds the
// shard lock, shared or exclusive. The image shares nothing with the shard
// that a later mutation can reach, so it is encoded and written after the
// lock is released: results, settled tasks and comments are prefixes of
// append-only slices of immutable rows, projects are copied down to the
// slice headers of their append-only lists (captured), and the running
// tasks — the one kind of row that changes in place — are copied by value.
// The snapshot lists the projects, the comments and the running tasks; the
// results and settled tasks go to the history (history.go), which already
// holds all but the newest. Projects and running tasks are emitted in id
// order, so two images of one state are the same bytes.
func (sh *shard) captureLocked() image {
	img := image{
		snap: snapshot{
			Comments: sh.comments[:len(sh.comments):len(sh.comments)],
			SavedAt:  sh.store.now(),
		},
		results:  sh.results[:len(sh.results):len(sh.results)],
		settled:  sh.settled[:len(sh.settled):len(sh.settled)],
		rewrites: sh.rewrites,
	}
	snap := &img.snap
	if sh.wal != nil {
		snap.WALLSN = sh.wal.lsn
	}
	for _, p := range sh.projects {
		snap.Projects = append(snap.Projects, p)
	}
	sort.Slice(snap.Projects, func(i, j int) bool { return snap.Projects[i].ID < snap.Projects[j].ID })
	for i, p := range snap.Projects {
		snap.Projects[i] = p.captured()
	}
	running := make([]Task, 0, len(sh.running))
	for _, t := range sh.running {
		running = append(running, *t)
	}
	sort.Slice(running, func(i, j int) bool { return running[i].ID < running[j].ID })
	for i := range running {
		snap.Tasks = append(snap.Tasks, &running[i])
	}
	return img
}

// captured returns a copy of the project that no mutation of the live one
// can reach. The scalar fields are copied; DBMSKeys, PlatformKeys and an
// experiment's Queries are only ever replaced whole (replaying an old log's
// queries-append grows a pool, but recovery runs before any checkpoint);
// Contributors and Experiments only grow by append, and the copied slice
// headers keep the length they had — an append writes beyond it or into a
// new array. Contributors and query records never change in place.
func (p *Project) captured() *Project {
	cp := *p
	cp.Experiments = nil
	for _, e := range p.Experiments {
		ce := *e
		cp.Experiments = append(cp.Experiments, &ce)
	}
	return &cp
}
