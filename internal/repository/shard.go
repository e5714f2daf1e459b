package repository

import (
	"encoding/json"
	"fmt"
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

	// The queue's indexes (index.go): the experiments' pools and lanes, and
	// the leases that can still expire.
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

// logApply is the write path contract: marshal the logical record, make it
// durable (when a WAL is attached), then apply it to memory via the same
// switch recovery uses. Callers hold the shard lock and have fully
// validated the mutation, so apply cannot fail for semantic reasons; a
// failed append leaves memory untouched and surfaces the error.
func (sh *shard) logApply(op string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("encoding %s record: %w", op, err)
	}
	rec := walRecord{Op: op, Data: data}
	if sh.wal != nil {
		rec.LSN = sh.wal.lsn + 1
		if err := sh.wal.append(rec); err != nil {
			return err
		}
	}
	return sh.apply(rec)
}

// apply mutates the shard from one decoded record. It runs with the shard
// lock held (or single-threaded during recovery) and performs no
// validation: records describe state changes that already happened.
func (sh *shard) apply(rec walRecord) error {
	switch rec.Op {
	case opProject:
		var p Project
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh.projects[p.ID] = &p
		sh.indexProject(&p)
	case opVisibility:
		var v walVisibility
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if p := sh.projects[v.ProjectID]; p != nil {
			p.Public = v.Public
		}
	case opSynopsis:
		var v walSynopsis
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if p := sh.projects[v.ProjectID]; p != nil {
			p.Synopsis = v.Synopsis
			p.Attribution = v.Attribution
		}
	case opCatalogs:
		var v walCatalogs
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if p := sh.projects[v.ProjectID]; p != nil {
			p.DBMSKeys = v.DBMSKeys
			p.PlatformKeys = v.PlatformKeys
		}
	case opInvite:
		var v walInvite
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if p := sh.projects[v.ProjectID]; p != nil && p.contributor(v.Contributor.Nickname) == nil {
			p.Contributors = append(p.Contributors, v.Contributor)
			sh.store.routeContributor(p, v.Contributor)
		}
	case opExperiment:
		var v walExperiment
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if p := sh.projects[v.ProjectID]; p != nil {
			p.Experiments = append(p.Experiments, v.Experiment)
			sh.indexQueries(p.ID, v.Experiment, 0)
		}
	case opQueriesReplace, opQueriesAppend:
		var v walQueries
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		p := sh.projects[v.ProjectID]
		if p == nil {
			return nil
		}
		e := p.Experiment(v.ExperimentID)
		if e == nil {
			return nil
		}
		from := 0
		if rec.Op == opQueriesReplace {
			e.Queries = v.Queries
		} else {
			from = len(e.Queries)
			e.Queries = append(e.Queries, v.Queries...)
		}
		sh.indexQueries(p.ID, e, from)
	case opResult:
		var r Result
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh.indexResult(&r)
	case opResultHide:
		var v walResultMod
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if i := sh.resultPos(v.ResultID); i >= 0 {
			flipped := *sh.results[i]
			flipped.Hidden = v.Hidden
			sh.results = spliceResults(sh.results, i, &flipped)
			sh.rewrites++
		}
	case opResultDelete:
		var v walResultMod
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if i := sh.resultPos(v.ResultID); i >= 0 {
			r := sh.results[i]
			sh.results = spliceResults(sh.results, i, nil)
			sh.rewrites++
			sh.uncover(r.ProjectID, r.ExperimentID, r.DBMSKey, r.PlatformKey, r.QueryID)
		}
	case opComment:
		var c Comment
		if err := json.Unmarshal(rec.Data, &c); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh.comments = append(sh.comments, &c)
	case opTaskLease:
		var ts []*Task
		if err := json.Unmarshal(rec.Data, &ts); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		for _, t := range ts {
			sh.indexTask(t)
		}
	case opTaskComplete:
		batch, err := decodeCompletions(rec.Data)
		if err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		for _, v := range batch {
			// The result first: a failed task gives its slot up, and the slot
			// must not look free in between.
			if v.Result != nil {
				sh.indexResult(v.Result)
			}
			if t := sh.tasks[v.TaskID]; t != nil {
				sh.settleTask(t, v.Status, v.Finished)
			}
		}
	case opTaskKill:
		var v walTaskKill
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if t := sh.tasks[v.TaskID]; t != nil {
			sh.settleTask(t, TaskKilled, v.Finished)
		}
	default:
		return fmt.Errorf("unknown wal op %q", rec.Op)
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
// can reach. The scalar fields are copied; DBMSKeys and PlatformKeys are only
// ever replaced whole; Contributors, Experiments and an experiment's Queries
// only grow by append (or, for Queries, are replaced whole), and the copied
// slice headers keep the length they had — an append writes beyond it or
// into a new array. Contributors and query records never change in place.
func (p *Project) captured() *Project {
	cp := *p
	cp.Experiments = nil
	for _, e := range p.Experiments {
		ce := *e
		cp.Experiments = append(cp.Experiments, &ce)
	}
	return &cp
}
