// Package repository implements the data model of the sqalpel platform: the
// GitHub-like organisation of performance projects the paper describes.
//
// It covers user registration (nickname + email, with the email never
// exposed through the API), public and private projects with owner /
// contributor / reader roles, contributor keys that identify the source of
// results without disclosing the contributor's identity, experiments with
// their grammar and query pool, the task queue, the raw results table with
// owner moderation (hide / remove suspicious results), and project
// comments.
//
// The store is sharded by project id: every project — with its experiments,
// results, comments and tasks — lives on one of N shards with its own lock
// and its own write-ahead log, while a small meta partition holds the
// global user table. Task leasing, result appends and persistence on
// different shards never contend on a shared lock.
//
// Durability is write-ahead: a store opened with Open appends a
// CRC-checksummed record of every mutation to the owning partition's log
// and syncs it to disk before the mutation returns, so a crash — at any
// instant — loses at most mutations that were never acknowledged. Open
// recovers by loading the newest valid snapshot of each partition,
// replaying the log tail, dropping a torn or corrupt trailing record
// instead of refusing to boot, and migrating a legacy single-file
// sqalpel.json store transparently. Save snapshots and compacts the logs;
// NewStore builds a purely in-memory store with the same API.
//
// The task queue (queue.go) is the distributed half of the concurrent
// measurement plane: tasks are leased — singly or in batches — with a
// deadline per lease, expired leases re-queue their query automatically,
// and late completions into an expired lease are rejected. One query /
// DBMS / platform slot therefore yields exactly one result no matter how
// many concurrent drivers drain the experiment, or how often the platform
// crashes and recovers in between. The Store is safe for concurrent use.
package repository

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqalpel/internal/trace"
)

// Role is the relationship of a user to a project.
type Role string

// Roles.
const (
	RoleOwner       Role = "owner"
	RoleContributor Role = "contributor"
	RoleReader      Role = "reader"
	RoleNone        Role = "none"
)

// User is a registered platform user.
type User struct {
	// Nickname is the unique public identifier.
	Nickname string `json:"nickname"`
	// Email is used only for legal interaction with the registered user and
	// is never exposed in the interface.
	Email   string    `json:"email"`
	Created time.Time `json:"created"`
}

// Contributor is an invitation of a user into a project, carrying the
// anonymous key the experiment driver uses to submit results.
type Contributor struct {
	Nickname string    `json:"nickname"`
	Key      string    `json:"key"`
	Invited  time.Time `json:"invited"`
}

// QueryRecord is one query of an experiment's pool as stored by the
// platform.
type QueryRecord struct {
	ID         int      `json:"id"`
	SQL        string   `json:"sql"`
	Strategy   string   `json:"strategy"`
	ParentID   int      `json:"parent_id"`
	Components int      `json:"components"`
	Terms      []string `json:"terms,omitempty"`
}

// Experiment is one experiment of a project: a baseline query, the grammar
// derived from it and the query pool.
type Experiment struct {
	ID          int           `json:"id"`
	Title       string        `json:"title"`
	BaselineSQL string        `json:"baseline_sql"`
	GrammarText string        `json:"grammar_text"`
	Queries     []QueryRecord `json:"queries"`
	Created     time.Time     `json:"created"`
}

// Query returns the query with the given id, or nil. A pool numbers its
// queries 1..n, so the id's own slot is looked at first; a pool with gaps
// or in another order is scanned. Ids are unique within a pool.
func (e *Experiment) Query(id int) *QueryRecord {
	if id >= 1 && id <= len(e.Queries) && e.Queries[id-1].ID == id {
		return &e.Queries[id-1]
	}
	for i := range e.Queries {
		if e.Queries[i].ID == id {
			return &e.Queries[i]
		}
	}
	return nil
}

// Project is a performance project.
type Project struct {
	ID int `json:"id"`
	// Name is unique across the platform.
	Name     string `json:"name"`
	Synopsis string `json:"synopsis"`
	// Attribution credits the database generator developers, as the paper
	// requires of a project synopsis.
	Attribution string `json:"attribution"`
	Owner       string `json:"owner"`
	Public      bool   `json:"public"`
	// DBMSKeys and PlatformKeys reference the global catalogs.
	DBMSKeys     []string       `json:"dbms_keys"`
	PlatformKeys []string       `json:"platform_keys"`
	Contributors []*Contributor `json:"contributors"`
	Experiments  []*Experiment  `json:"experiments"`
	Created      time.Time      `json:"created"`
}

// Experiment returns the experiment with the given id, or nil.
func (p *Project) Experiment(id int) *Experiment {
	for _, e := range p.Experiments {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// contributor returns the contributor entry of a nickname, or nil.
func (p *Project) contributor(nickname string) *Contributor {
	for _, c := range p.Contributors {
		if c.Nickname == nickname {
			return c
		}
	}
	return nil
}

// Result is one row of the raw results table.
type Result struct {
	ID           int `json:"id"`
	ProjectID    int `json:"project_id"`
	ExperimentID int `json:"experiment_id"`
	QueryID      int `json:"query_id"`
	// ContributorKey identifies the source without disclosing the identity.
	ContributorKey string `json:"contributor_key"`
	DBMSKey        string `json:"dbms_key"`
	PlatformKey    string `json:"platform_key"`
	// Seconds are the wall-clock times of the individual repetitions.
	Seconds []float64 `json:"seconds,omitempty"`
	Error   string    `json:"error,omitempty"`
	Extra   Extras    `json:"extra,omitempty"`
	// Trace is the per-operator span tree the driver captured alongside the
	// timings, as canonical JSON; nil when the submission was measured
	// without tracing. It persists through the WAL and snapshots with the
	// rest of the result row.
	Trace TraceJSON `json:"trace,omitempty"`
	// Hidden results are only visible to the owner and contributors; the
	// owner uses this to keep dubious measurements private until clarified.
	Hidden  bool      `json:"hidden"`
	Created time.Time `json:"created"`
	// blk, off and end place the row as the results page serves it (JSON),
	// sealed once as the row enters a shard: blk.buf[off:end], in its
	// project's arena. Extra and Trace may point into those bytes.
	blk      *arenaBlock
	off, end int
}

// Failed reports whether the result captured an error.
func (r *Result) Failed() bool { return r.Error != "" }

// MinSeconds returns the fastest repetition or 0.
func (r *Result) MinSeconds() float64 {
	if len(r.Seconds) == 0 {
		return 0
	}
	min := r.Seconds[0]
	for _, s := range r.Seconds[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// Comment is a registered user's remark on a project.
type Comment struct {
	ID        int       `json:"id"`
	ProjectID int       `json:"project_id"`
	Author    string    `json:"author"`
	Text      string    `json:"text"`
	Created   time.Time `json:"created"`
}

// DefaultShards is the shard count used by NewStore and by Open when the
// caller does not request a specific one.
const DefaultShards = 8

// Store is the sharded repository; it is safe for concurrent use. Projects
// are distributed over shards by id, the user table lives on a meta
// partition, and result / comment / task ids come from global atomic
// counters so ids stay unique across shards without a shared lock.
type Store struct {
	// meta partition: the global user table and project-id allocation
	// (project creation is serialised on metaMu so project names stay
	// unique across the whole platform).
	metaMu        sync.RWMutex
	users         map[string]*User
	nextProjectID int
	metaWAL       *walWriter

	shards []*shard

	// Routes lead from a contributor key to its project and from a task id
	// to its shard, so the queue never probes a shard it does not own.
	// routeMu is a leaf lock: it is taken for the map access alone, with or
	// without a shard lock held, and nothing is acquired under it. Routes are
	// entered by the records' apply (project, invite, lease) and by recovery;
	// keys and tasks are never removed.
	routeMu    sync.RWMutex
	keyRoutes  map[string]contributorRoute
	taskRoutes map[int]*shard

	nextResultID  atomic.Int64 // last assigned result id
	nextCommentID atomic.Int64 // last assigned comment id
	nextTaskID    atomic.Int64 // last assigned task id

	// persistMu serialises Save/export/checkpoint runs against each other;
	// individual partitions stay writable while the others persist.
	persistMu sync.Mutex
	// dir is the data directory of a durable store ("" for in-memory).
	dir string
	// gen is the current generation directory of a durable store.
	gen string
	// sinks opens the WAL sink for a partition log file; tests inject
	// crash-simulating sinks here.
	sinks walSinkFactory
	// create opens (truncating) the files persistence writes whole: snapshot
	// and compaction temporaries and CURRENT. Tests inject sinks that block
	// or report the steps of a checkpoint.
	create walSinkFactory

	// TaskTimeout is the interval after which an assigned task that has not
	// reported back is considered stuck and requeued.
	TaskTimeout time.Duration

	// now allows tests to control time.
	now func() time.Time

	// logf reports recovery warnings (torn records, corrupt snapshots).
	logf func(format string, args ...any)
}

// NewStore returns an empty in-memory store with DefaultShards shards and
// no durability; use Open for a WAL-backed store.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards returns an empty in-memory store with the given shard
// count (minimum 1).
func NewStoreShards(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{
		users:         map[string]*User{},
		keyRoutes:     map[string]contributorRoute{},
		taskRoutes:    map[int]*shard{},
		nextProjectID: 1,
		TaskTimeout:   10 * time.Minute,
		now:           time.Now,
		logf:          defaultLogf,
		sinks:         openFileSink,
		create:        createFile,
	}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, newShard(s, i))
	}
	return s
}

// --- users ---------------------------------------------------------------

// RegisterUser adds a user with a unique nickname and a syntactically valid
// email address.
func (s *Store) RegisterUser(nickname, email string) (*User, error) {
	nickname = strings.TrimSpace(nickname)
	if nickname == "" {
		return nil, fmt.Errorf("nickname must not be empty")
	}
	if !validEmail(email) {
		return nil, fmt.Errorf("invalid email address %q", email)
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if _, exists := s.users[nickname]; exists {
		return nil, fmt.Errorf("nickname %q is already taken", nickname)
	}
	u := &User{Nickname: nickname, Email: email, Created: s.now()}
	if err := s.metaLogApply((*userRecord)(u)); err != nil {
		return nil, err
	}
	return u, nil
}

func validEmail(email string) bool {
	at := strings.Index(email, "@")
	if at <= 0 || at == len(email)-1 {
		return false
	}
	domain := email[at+1:]
	return strings.Contains(domain, ".") && !strings.ContainsAny(email, " \t\n")
}

// User returns the user with the given nickname, or nil.
func (s *Store) User(nickname string) *User {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	return s.users[nickname]
}

// Users returns all users sorted by nickname.
func (s *Store) Users() []*User {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	out := make([]*User, 0, len(s.users))
	for _, u := range s.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nickname < out[j].Nickname })
	return out
}

// --- projects and access control ------------------------------------------

// CreateProject creates a project owned by the given user. Creation is
// serialised on the meta partition so the platform-wide name-uniqueness
// check and the project-id allocation stay race-free across shards.
func (s *Store) CreateProject(owner, name, synopsis string, public bool) (*Project, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("project name must not be empty")
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if s.users[owner] == nil {
		return nil, fmt.Errorf("unknown user %q", owner)
	}
	// Lock order is always meta before shard, so scanning the shards while
	// holding metaMu cannot deadlock.
	for _, sh := range s.shards {
		sh.mu.RLock()
		dup := sh.projectByNameLocked(name)
		sh.mu.RUnlock()
		if dup != nil {
			return nil, fmt.Errorf("project name %q is already taken", name)
		}
	}
	p := &Project{
		ID:       s.nextProjectID,
		Name:     name,
		Synopsis: synopsis,
		Owner:    owner,
		Public:   public,
		Created:  s.now(),
	}
	// The owner is implicitly also a contributor with a key.
	p.Contributors = append(p.Contributors, &Contributor{Nickname: owner, Key: newKey(), Invited: s.now()})
	sh := s.shardFor(p.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.logApply(opProject, (*projectRecord)(p)); err != nil {
		return nil, err
	}
	return p, nil
}

// newKey generates a contributor key.
func newKey() string {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		// crypto/rand failing is unrecoverable for key generation.
		panic(err)
	}
	return hex.EncodeToString(buf)
}

// Project returns a copy of the project with the given id, or nil. The
// copy is the caller's to read while the store goes on changing the
// project.
func (s *Store) Project(id int) *Project {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.projects[id].clone()
}

// clone copies the project as a reader outside the shard lock may hold it:
// its own Contributors slice and Experiment structs, whose pools share the
// store's QueryRecord elements — a pool is replaced or appended to, never
// changed in place. The caller holds the shard lock; nil stays nil.
func (p *Project) clone() *Project {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Contributors = slices.Clone(p.Contributors)
	cp.Experiments = make([]*Experiment, len(p.Experiments))
	for i, e := range p.Experiments {
		ce := *e
		cp.Experiments[i] = &ce
	}
	return &cp
}

// ProjectByName returns a copy of the project with the given name, or nil.
func (s *Store) ProjectByName(name string) *Project {
	for _, sh := range s.shards {
		sh.mu.RLock()
		p := sh.projectByNameLocked(name).clone()
		sh.mu.RUnlock()
		if p != nil {
			return p
		}
	}
	return nil
}

// RoleOf returns the viewer's role for a project. Unregistered or unrelated
// users get RoleReader on public projects and RoleNone on private ones.
func (s *Store) RoleOf(nickname string, projectID int) Role {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.roleOfLocked(nickname, projectID)
}

// CanView reports whether the viewer may read the project description and
// visible results.
func (s *Store) CanView(nickname string, projectID int) bool {
	return s.RoleOf(nickname, projectID) != RoleNone
}

// CanContribute reports whether the user may submit results.
func (s *Store) CanContribute(nickname string, projectID int) bool {
	r := s.RoleOf(nickname, projectID)
	return r == RoleOwner || r == RoleContributor
}

// IsOwner reports whether the user moderates the project.
func (s *Store) IsOwner(nickname string, projectID int) bool {
	return s.RoleOf(nickname, projectID) == RoleOwner
}

// Projects returns copies of the projects visible to the viewer, sorted by
// id.
func (s *Store) Projects(viewer string) []*Project {
	var out []*Project
	for _, sh := range s.shards {
		sh.mu.RLock()
		//lint:ordered filtered collect; the result is sorted by id below
		for id, p := range sh.projects {
			if sh.roleOfLocked(viewer, id) != RoleNone {
				out = append(out, p.clone())
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetVisibility switches a project between public and private; only the
// owner may do this.
func (s *Store) SetVisibility(requester string, projectID int, public bool) error {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(requester, projectID) != RoleOwner {
		return fmt.Errorf("only the project owner can change visibility")
	}
	return sh.logApply(opVisibility, walVisibility{ProjectID: projectID, Public: public})
}

// UpdateSynopsis updates the project synopsis and attribution; owner only.
func (s *Store) UpdateSynopsis(requester string, projectID int, synopsis, attribution string) error {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(requester, projectID) != RoleOwner {
		return fmt.Errorf("only the project owner can edit the synopsis")
	}
	return sh.logApply(opSynopsis, walSynopsis{ProjectID: projectID, Synopsis: synopsis, Attribution: attribution})
}

// ReferenceCatalogs records which DBMS and platform catalog entries the
// project uses; owner only.
func (s *Store) ReferenceCatalogs(requester string, projectID int, dbmsKeys, platformKeys []string) error {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(requester, projectID) != RoleOwner {
		return fmt.Errorf("only the project owner can edit catalog references")
	}
	return sh.logApply(opCatalogs, walCatalogs{
		ProjectID:    projectID,
		DBMSKeys:     append([]string(nil), dbmsKeys...),
		PlatformKeys: append([]string(nil), platformKeys...),
	})
}

// Invite adds a registered user as contributor and returns the contributor
// key to hand to them. There is no limit on the number of contributors.
func (s *Store) Invite(requester string, projectID int, nickname string) (string, error) {
	if s.User(nickname) == nil {
		return "", fmt.Errorf("unknown user %q", nickname)
	}
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(requester, projectID) != RoleOwner {
		return "", fmt.Errorf("only the project owner can invite contributors")
	}
	p := sh.projects[projectID]
	if c := p.contributor(nickname); c != nil {
		//lint:acked idempotent re-invite: the contributor already exists durably; no state changes
		return c.Key, nil
	}
	c := &Contributor{Nickname: nickname, Key: newKey(), Invited: s.now()}
	if err := sh.logApply(opInvite, walInvite{ProjectID: projectID, Contributor: c}); err != nil {
		return "", err
	}
	return c.Key, nil
}

// FindContributor resolves a contributor key to its project and nickname.
func (s *Store) FindContributor(key string) (*Project, string, error) {
	s.routeMu.RLock()
	rt, ok := s.keyRoutes[key]
	s.routeMu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("unknown contributor key")
	}
	return rt.project, rt.contributor.Nickname, nil
}

// --- experiments and the query pool ----------------------------------------

// AddExperiment adds an experiment to a project; owner only.
func (s *Store) AddExperiment(requester string, projectID int, title, baselineSQL, grammarText string) (*Experiment, error) {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(requester, projectID) != RoleOwner {
		return nil, fmt.Errorf("only the project owner can add experiments")
	}
	p := sh.projects[projectID]
	e := &Experiment{
		ID:          len(p.Experiments) + 1,
		Title:       title,
		BaselineSQL: baselineSQL,
		GrammarText: grammarText,
		Created:     s.now(),
	}
	if err := sh.logApply(opExperiment, walExperiment{ProjectID: projectID, Experiment: e}); err != nil {
		return nil, err
	}
	return e, nil
}

// ReplaceQueries replaces the query pool snapshot of an experiment; owner
// only (the owner moderates pool growth). The store keeps a copy of queries.
func (s *Store) ReplaceQueries(requester string, projectID, experimentID int, queries []QueryRecord) error {
	return s.updateQueries(requester, projectID, experimentID, opQueriesReplace, walQueries{projectID, experimentID, slices.Clone(queries)})
}

// AppendQueries appends new queries to the pool snapshot; owner only.
func (s *Store) AppendQueries(requester string, projectID, experimentID int, queries []QueryRecord) error {
	return s.updateQueries(requester, projectID, experimentID, opQueriesAppend, walQueriesAppend{projectID, experimentID, queries})
}

func (s *Store) updateQueries(requester string, projectID, experimentID int, op string, r shardRecord) error {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(requester, projectID) != RoleOwner {
		return fmt.Errorf("only the project owner can manage the query pool")
	}
	if sh.experiment(projectID, experimentID) == nil {
		return fmt.Errorf("unknown experiment %d", experimentID)
	}
	return sh.logApply(op, r)
}

// --- results ----------------------------------------------------------------

// AddResult records a measurement submitted with a contributor key.
func (s *Store) AddResult(contributorKey string, experimentID, queryID int, dbmsKey, platformKey string, seconds []float64, errMsg string, extra map[string]string) (*Result, error) {
	return s.AddResultTraced(contributorKey, experimentID, queryID, dbmsKey, platformKey, seconds, errMsg, extra, nil)
}

// AddResultTraced is AddResult with an optional per-operator trace attached
// to the result row; nil records an untraced result. The row holds the
// trace's encoding, taken before the shard lock.
func (s *Store) AddResultTraced(contributorKey string, experimentID, queryID int, dbmsKey, platformKey string, seconds []float64, errMsg string, extra map[string]string, qt *trace.QueryTrace) (*Result, error) {
	p, _, err := s.FindContributor(contributorKey)
	if err != nil {
		return nil, err
	}
	extras, spans := EncodeExtras(extra), EncodeTrace(qt)
	sh := s.shardFor(p.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.addResultLocked(sh, p.ID, contributorKey, experimentID, queryID, dbmsKey, platformKey, seconds, errMsg, extras, spans)
}

// addResultLocked validates and records a result on a shard whose lock the
// caller holds.
func (s *Store) addResultLocked(sh *shard, projectID int, contributorKey string, experimentID, queryID int, dbmsKey, platformKey string, seconds []float64, errMsg string, extra Extras, spans TraceJSON) (*Result, error) {
	p := sh.projects[projectID]
	if p == nil {
		return nil, fmt.Errorf("unknown project %d", projectID)
	}
	r, err := s.buildResultLocked(sh, p, contributorKey, experimentID, queryID, dbmsKey, platformKey, seconds, errMsg, extra, spans)
	if err != nil {
		return nil, err
	}
	if err := sh.logApply(opResult, (*resultRecord)(r)); err != nil {
		return nil, err
	}
	return r, nil
}

// buildResultLocked validates the submission against the project and
// allocates the result row without recording it; shard lock held. The row
// copies the caller's seconds and keeps the extras and the trace, neither
// of which is changed in place.
func (s *Store) buildResultLocked(sh *shard, p *Project, contributorKey string, experimentID, queryID int, dbmsKey, platformKey string, seconds []float64, errMsg string, extra Extras, spans TraceJSON) (*Result, error) {
	x := sh.exps[expKey{p.ID, experimentID}]
	if x == nil || x.exp == nil {
		return nil, fmt.Errorf("unknown experiment %d in project %q", experimentID, p.Name)
	}
	if _, ok := x.pos[queryID]; !ok {
		return nil, fmt.Errorf("unknown query %d in experiment %d", queryID, experimentID)
	}
	r := &Result{
		ID:             int(s.nextResultID.Add(1)),
		ProjectID:      p.ID,
		ExperimentID:   experimentID,
		QueryID:        queryID,
		ContributorKey: contributorKey,
		DBMSKey:        dbmsKey,
		PlatformKey:    platformKey,
		Seconds:        append([]float64(nil), seconds...),
		Error:          errMsg,
		Extra:          extra,
		Trace:          spans,
		Created:        s.now(),
	}
	return r, nil
}

// Results returns the results of a project visible to the viewer: hidden
// results are only shown to the owner and contributors.
func (s *Store) Results(viewer string, projectID int) []*Result {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	role := sh.roleOfLocked(viewer, projectID)
	if role == RoleNone {
		return nil
	}
	visible := func(r *Result) bool { return r.ProjectID == projectID && !(r.Hidden && role == RoleReader) }
	n := 0
	for _, r := range sh.results {
		if visible(r) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*Result, 0, n)
	for _, r := range sh.results {
		if visible(r) {
			out = append(out, r)
		}
	}
	return out
}

// The history and trace pages read one experiment's lanes, each of which
// lists its rows in shard order (index.go).

// viewLocked returns the index of an experiment of a project, as the viewer
// may read it, and whether the viewer sees hidden rows; nil when the viewer
// cannot see the project or no row or pool names the experiment. The caller
// holds the shard lock.
func (sh *shard) viewLocked(viewer string, projectID, experimentID int) (x *expIndex, hidden bool) {
	role := sh.roleOfLocked(viewer, projectID)
	if role == RoleNone {
		return nil, false
	}
	return sh.exps[expKey{projectID, experimentID}], role != RoleReader
}

// TargetLabels returns the sorted target labels, "dbms@platform", of the
// results of an experiment that the viewer sees and whose query is in its
// pool: the targets its history can show. A label two lanes make is
// listed once.
func (s *Store) TargetLabels(viewer string, projectID, experimentID int) []string {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	x, hidden := sh.viewLocked(viewer, projectID, experimentID)
	if x == nil {
		return nil
	}
	var labels []string
	//lint:ordered the labels are sorted below
	for _, ln := range x.lanes {
		for _, r := range ln.rows {
			if _, inPool := x.pos[r.QueryID]; inPool && (hidden || !r.Hidden) {
				labels = append(labels, ln.label)
				break
			}
		}
	}
	sort.Strings(labels)
	return slices.Compact(labels)
}

// TargetResults returns the results of one target of an experiment that
// the viewer sees, in the order Results lists them: the rows of the lanes
// labelled target, those of two lanes merged.
func (s *Store) TargetResults(viewer string, projectID, experimentID int, target string) []*Result {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	x, hidden := sh.viewLocked(viewer, projectID, experimentID)
	if x == nil {
		return nil
	}
	var out []*Result
	merged := false
	//lint:ordered the rows of two lanes are sorted into shard order below
	for _, ln := range x.lanes {
		if ln.label != target {
			continue
		}
		merged = out != nil
		out = slices.Grow(out, len(ln.rows))
		for _, r := range ln.rows {
			if hidden || !r.Hidden {
				out = append(out, r)
			}
		}
	}
	if merged {
		// Ids are drawn under the shard lock (buildResultLocked), so they
		// rise in shard order.
		slices.SortFunc(out, func(a, b *Result) int { return a.ID - b.ID })
	}
	return out
}

// LatestTraces returns the span trees of one query of an experiment, one
// per target label in label order: of the target's results of the query
// that the viewer sees and that carry a trace, the newest.
func (s *Store) LatestTraces(viewer string, projectID, experimentID, queryID int) (labels []string, traces []TraceJSON) {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	x, hidden := sh.viewLocked(viewer, projectID, experimentID)
	if x == nil {
		return nil, nil
	}
	newest := map[string]*Result{}
	//lint:ordered the labels are sorted below; of two lanes with one label the newer row wins
	for _, ln := range x.lanes {
		for i := len(ln.rows) - 1; i >= 0; i-- {
			if r := ln.rows[i]; r.QueryID == queryID && r.Trace != nil && (hidden || !r.Hidden) {
				if was := newest[ln.label]; was == nil || was.ID < r.ID {
					newest[ln.label] = r
				}
				break
			}
		}
	}
	labels = make([]string, 0, len(newest))
	//lint:ordered the labels are sorted below
	for label := range newest {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	traces = make([]TraceJSON, len(labels))
	for i, label := range labels {
		traces[i] = newest[label].Trace
	}
	return labels, traces
}

// HideResult toggles the hidden flag of a result; owner only.
func (s *Store) HideResult(requester string, resultID int, hidden bool) error {
	return s.moderate(requester, resultID, opResultHide, walResultHide{resultID, hidden})
}

// DeleteResult removes a result, e.g. when a re-run is required; owner only.
func (s *Store) DeleteResult(requester string, resultID int) error {
	return s.moderate(requester, resultID, opResultDelete, walResultDelete{resultID})
}

// moderate logs an owner's moderation of a result. The owning shard is found
// under read locks (shardWithResult) and is the only one write-locked; the
// row is looked for again there, since a concurrent deletion may have
// removed it in between.
func (s *Store) moderate(requester string, resultID int, op string, r shardRecord) error {
	sh := s.shardWithResult(resultID)
	if sh == nil {
		return fmt.Errorf("unknown result %d", resultID)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.resultPos(resultID)
	if i < 0 {
		return fmt.Errorf("unknown result %d", resultID)
	}
	if sh.roleOfLocked(requester, sh.results[i].ProjectID) != RoleOwner {
		return fmt.Errorf("only the project owner can moderate results")
	}
	return sh.logApply(op, r)
}

// --- comments ---------------------------------------------------------------

// AddComment attaches a comment to a project; any registered user who can
// view the project may comment.
func (s *Store) AddComment(author string, projectID int, text string) (*Comment, error) {
	if s.User(author) == nil {
		return nil, fmt.Errorf("unknown user %q", author)
	}
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("empty comment")
	}
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.roleOfLocked(author, projectID) == RoleNone {
		return nil, fmt.Errorf("user %q cannot view project %d", author, projectID)
	}
	c := &Comment{ID: int(s.nextCommentID.Add(1)), ProjectID: projectID, Author: author, Text: text, Created: s.now()}
	if err := sh.logApply(opComment, (*commentRecord)(c)); err != nil {
		return nil, err
	}
	return c, nil
}

// Comments returns the comments of a project visible to the viewer.
func (s *Store) Comments(viewer string, projectID int) []*Comment {
	sh := s.shardFor(projectID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.roleOfLocked(viewer, projectID) == RoleNone {
		return nil
	}
	var out []*Comment
	for _, c := range sh.comments {
		if c.ProjectID == projectID {
			out = append(out, c)
		}
	}
	return out
}
