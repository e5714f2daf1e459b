package repository

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Every op of a log has one record type below, whose JSON is the data of the
// op's records. A mutator builds the record, shard.logApply logs it and then
// calls its apply on that very value; recovery decodes the data into the
// type (decodeRecord) and calls the same apply. apply runs with the shard
// lock held, or single-threaded during recovery, and validates nothing: a
// record describes a change that already happened. Since the live path
// keeps the mutator's values, a record owns what it references — the
// mutators copy what a caller could still change.
type shardRecord interface{ apply(sh *shard) }

// The ops that add rows log them as they are; the small changes have
// structs of their own.
type (
	projectRecord  Project // created fully formed
	resultRecord   Result  // a result reported without a lease
	commentRecord  Comment
	leaseRecord    []*Task           // one record per leased batch
	completeRecord []walTaskComplete // one record per reported batch: status flips + results, atomically
	userRecord     User              // the meta partition's only record
)

type walVisibility struct {
	ProjectID int  `json:"project_id"`
	Public    bool `json:"public"`
}

type walSynopsis struct {
	ProjectID   int    `json:"project_id"`
	Synopsis    string `json:"synopsis"`
	Attribution string `json:"attribution"`
}

type walCatalogs struct {
	ProjectID    int      `json:"project_id"`
	DBMSKeys     []string `json:"dbms_keys"`
	PlatformKeys []string `json:"platform_keys"`
}

type walInvite struct {
	ProjectID   int          `json:"project_id"`
	Contributor *Contributor `json:"contributor"`
}

type walExperiment struct {
	ProjectID  int         `json:"project_id"`
	Experiment *Experiment `json:"experiment"`
}

// walQueries replaces an experiment's pool; walQueriesAppend appends to it.
type walQueries struct {
	ProjectID    int           `json:"project_id"`
	ExperimentID int           `json:"experiment_id"`
	Queries      []QueryRecord `json:"queries"`
}

type walQueriesAppend walQueries

type walResultHide struct {
	ResultID int  `json:"result_id"`
	Hidden   bool `json:"hidden,omitempty"`
}

type walResultDelete struct {
	ResultID int `json:"result_id"`
}

type walTaskComplete struct {
	TaskID   int        `json:"task_id"`
	Status   TaskStatus `json:"status"`
	Finished time.Time  `json:"finished"`
	Result   *Result    `json:"result"`
}

type walTaskKill struct {
	TaskID   int       `json:"task_id"`
	Finished time.Time `json:"finished"`
}

// recordTypes maps each op to a new value of its record type: the one place
// an op becomes a type.
var recordTypes = map[string]func() any{
	opUser:           func() any { return new(userRecord) },
	opProject:        func() any { return new(projectRecord) },
	opVisibility:     func() any { return new(walVisibility) },
	opSynopsis:       func() any { return new(walSynopsis) },
	opCatalogs:       func() any { return new(walCatalogs) },
	opInvite:         func() any { return new(walInvite) },
	opExperiment:     func() any { return new(walExperiment) },
	opQueriesReplace: func() any { return new(walQueries) },
	opQueriesAppend:  func() any { return new(walQueriesAppend) },
	opResult:         func() any { return new(resultRecord) },
	opResultHide:     func() any { return new(walResultHide) },
	opResultDelete:   func() any { return new(walResultDelete) },
	opComment:        func() any { return new(commentRecord) },
	opTaskLease:      func() any { return new(leaseRecord) },
	opTaskComplete:   func() any { return new(completeRecord) },
	opTaskKill:       func() any { return new(walTaskKill) },
}

// decodeRecord decodes the data of a log record into a new value of its op's
// type; only recovery decodes. A null where a row or an object must be is
// refused like data that does not decode.
func decodeRecord(rec walRecord) (any, error) {
	newRecord, ok := recordTypes[rec.Op]
	if !ok {
		return nil, fmt.Errorf("unknown wal op %q", rec.Op)
	}
	r := newRecord()
	err := json.Unmarshal(rec.Data, r)
	if err == nil && (string(rec.Data) == "null" || !validRow(r)) {
		err = errNullRow
	}
	if err != nil {
		return nil, fmt.Errorf("decoding %s record: %w", rec.Op, err)
	}
	return r, nil
}

// errNullRow refuses a null where recovery would dereference a row.
var errNullRow = errors.New("null where a row or an object must be")

// validRow reports whether a decoded record or row holds no null its apply
// or merge would dereference.
func validRow(r any) bool {
	switch r := r.(type) {
	case *Project:
		return !slices.Contains(r.Contributors, nil) && !slices.Contains(r.Experiments, nil)
	case *projectRecord:
		return validRow((*Project)(r))
	case *walInvite:
		return r.Contributor != nil
	case *walExperiment:
		return r.Experiment != nil
	case *leaseRecord:
		return !slices.Contains(*r, nil)
	}
	return true
}

// UnmarshalJSON decodes the list one reported batch logs, or the single
// object of a log written before completions were reported in batches.
func (c *completeRecord) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '{' {
		*c = make(completeRecord, 1)
		return json.Unmarshal(data, &(*c)[0])
	}
	return json.Unmarshal(data, (*[]walTaskComplete)(c))
}

func (u *userRecord) apply(s *Store) { s.users[u.Nickname] = (*User)(u) }

func (r *projectRecord) apply(sh *shard) {
	p := (*Project)(r)
	sh.projects[p.ID] = p
	sh.indexProject(p)
	sh.store.nextProjectID = max(sh.store.nextProjectID, p.ID+1) // metaMu held
}

func (v walVisibility) apply(sh *shard) {
	if p := sh.projects[v.ProjectID]; p != nil {
		p.Public = v.Public
	}
}

func (v walSynopsis) apply(sh *shard) {
	if p := sh.projects[v.ProjectID]; p != nil {
		p.Synopsis = v.Synopsis
		p.Attribution = v.Attribution
	}
}

func (v walCatalogs) apply(sh *shard) {
	if p := sh.projects[v.ProjectID]; p != nil {
		p.DBMSKeys = v.DBMSKeys
		p.PlatformKeys = v.PlatformKeys
	}
}

func (v walInvite) apply(sh *shard) {
	if p := sh.projects[v.ProjectID]; p != nil && p.contributor(v.Contributor.Nickname) == nil {
		p.Contributors = append(p.Contributors, v.Contributor)
		sh.store.routeContributor(p, v.Contributor)
	}
}

func (v walExperiment) apply(sh *shard) {
	if p := sh.projects[v.ProjectID]; p != nil {
		p.Experiments = append(p.Experiments, v.Experiment)
		sh.indexQueries(p.ID, v.Experiment, 0)
	}
}

func (v walQueries) apply(sh *shard) {
	if e := sh.experiment(v.ProjectID, v.ExperimentID); e != nil {
		e.Queries = v.Queries
		sh.indexQueries(v.ProjectID, e, 0)
	}
}

func (v walQueriesAppend) apply(sh *shard) {
	if e := sh.experiment(v.ProjectID, v.ExperimentID); e != nil {
		from := len(e.Queries)
		e.Queries = append(e.Queries, v.Queries...)
		sh.indexQueries(v.ProjectID, e, from)
	}
}

func (r *resultRecord) apply(sh *shard) { sh.indexResult((*Result)(r)) }

func (v walResultHide) apply(sh *shard) {
	if i := sh.resultPos(v.ResultID); i >= 0 {
		r := sh.results[i]
		flipped := *r
		flipped.Hidden = v.Hidden
		flipped.seal(sh.arenaFor(r.ProjectID))
		sh.results = spliceResults(sh.results, i, &flipped)
		ln, j := sh.laneRow(r)
		ln.rows[j] = &flipped
		sh.rewrites++
	}
}

func (v walResultDelete) apply(sh *shard) {
	if i := sh.resultPos(v.ResultID); i >= 0 {
		r := sh.results[i]
		sh.results = spliceResults(sh.results, i, nil)
		ln, j := sh.laneRow(r)
		ln.rows = slices.Delete(ln.rows, j, j+1)
		sh.rewrites++
		sh.uncover(r.ProjectID, r.ExperimentID, r.DBMSKey, r.PlatformKey, r.QueryID)
	}
}

func (r *commentRecord) apply(sh *shard) {
	sh.comments = append(sh.comments, (*Comment)(r))
	raise(&sh.store.nextCommentID, r.ID)
}

func (l leaseRecord) apply(sh *shard) {
	for _, t := range l {
		sh.indexTask(t)
	}
}

func (c completeRecord) apply(sh *shard) {
	for _, v := range c {
		// The result first: a failed task gives its slot up, and the slot
		// must not look free in between.
		if v.Result != nil {
			sh.indexResult(v.Result)
		}
		if t := sh.tasks[v.TaskID]; t != nil {
			sh.settleTask(t, v.Status, v.Finished)
		}
	}
}

func (v walTaskKill) apply(sh *shard) {
	if t := sh.tasks[v.TaskID]; t != nil {
		sh.settleTask(t, TaskKilled, v.Finished)
	}
}
