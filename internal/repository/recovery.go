package repository

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func defaultLogf(format string, args ...any) { log.Printf(format, args...) }

// Open loads (or creates) a durable store in dir and attaches a write-ahead
// log to every partition: from then on each mutation is fsynced to the
// owning partition's log before it returns. shardCount <= 0 selects
// DefaultShards.
//
// Recovery works from whatever provably hit the disk: the newest valid
// snapshot per partition (falling back to the previous snapshot when the
// newest is corrupt), plus the replay of the log tail, dropping a torn or
// corrupt trailing record with a logged warning instead of refusing to
// boot. It does refuse when a shard's history is damaged in a prefix every
// snapshot names: those rows exist nowhere else. A legacy single-file
// sqalpel.json store is migrated transparently.
// Opening always writes a fresh generation of the on-disk layout, which is
// also how shard-count changes between runs are absorbed.
func Open(dir string, shardCount int) (*Store, error) {
	return open(dir, shardCount, defaultLogf, openFileSink)
}

// open is Open with the recovery-warning logger and the WAL sink factory
// injectable, which is how the crash-point and corruption test harnesses
// observe warnings and simulate kill -9 mid-append.
func open(dir string, shardCount int, logf func(string, ...any), sinks walSinkFactory) (*Store, error) {
	if shardCount <= 0 {
		shardCount = DefaultShards
	}
	s := NewStoreShards(shardCount)
	s.logf = logf
	s.sinks = sinks
	if err := loadInto(s, dir); err != nil {
		return nil, err
	}
	s.dir = dir
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	//lint:iolocked startup path: the store is not yet published, and the recovery checkpoint must complete before any WAL attaches
	genDir, err := s.writeGeneration(dir, func(part, walFile string) error {
		sink, err := sinks(walFile)
		if err != nil {
			return fmt.Errorf("opening %s wal: %w", part, err)
		}
		w := &walWriter{sink: sink}
		if part == partMeta {
			s.metaWAL = w
			return nil
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(part, "s"))
		if err != nil || idx < 0 || idx >= len(s.shards) {
			return fmt.Errorf("unexpected partition %q", part)
		}
		s.shards[idx].wal = w
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.gen = genDir
	return s, nil
}

// Load reads a store previously written by Save (any generation layout) or
// by the legacy single-file format, without attaching a write-ahead log: a
// missing directory yields an empty store rather than an error, so a fresh
// deployment just works. Use Open for the durable store.
func Load(dir string) (*Store, error) {
	s := NewStore()
	if err := loadInto(s, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// Close flushes and detaches the write-ahead logs; the store stays usable
// in memory but further mutations are no longer persisted.
func (s *Store) Close() error {
	// A checkpoint in flight finishes first: it gives a partition's lock up
	// between capturing the image and swapping the log.
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	var first error
	s.metaMu.Lock()
	if s.metaWAL != nil {
		//lint:iolocked detach seam: closing the sink must be atomic with clearing metaWAL, or a racing mutator appends to a closed log
		if err := s.metaWAL.sink.Close(); err != nil && first == nil {
			first = err
		}
		s.metaWAL = nil
	}
	s.metaMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.wal != nil {
			//lint:iolocked detach seam: closing the sink must be atomic with clearing sh.wal, or a racing mutator appends to a closed log
			if err := sh.wal.sink.Close(); err != nil && first == nil {
				first = err
			}
			sh.wal = nil
		}
		sh.mu.Unlock()
		//lint:iolocked persistMu serialises whole-store persistence only (no reader or mutator ever takes it); the history is a checkpoint's, and none may run on it any more
		sh.hist.close()
		sh.hist = history{}
	}
	s.dir = ""
	return first
}

// loader accumulates id high-water marks while recovery merges snapshots
// and replays logs, so freed ids are never reissued even when the highest
// row was deleted after the last snapshot.
type loader struct {
	s                                              *Store
	maxProject, maxResult, maxComment, maxTask     int
	nextProject, nextResult, nextComment, nextTask int
	taskTimeoutSeconds                             int
}

// loadInto recovers the persistent state in dir into the (empty) store s,
// which may be sharded differently from the store that wrote it: projects
// and their dependent rows are redistributed to s's own shards.
func loadInto(s *Store, dir string) error {
	ld := &loader{s: s}
	current, err := os.ReadFile(filepath.Join(dir, currentFile))
	switch {
	case err == nil:
		genDir := filepath.Join(dir, strings.TrimSpace(string(current)))
		if _, err := os.Stat(genDir); err != nil {
			return fmt.Errorf("CURRENT names missing generation %q: %w", strings.TrimSpace(string(current)), err)
		}
		if err := ld.loadGeneration(genDir); err != nil {
			return err
		}
	case os.IsNotExist(err):
		// No generation pointer: either a legacy single-file store or a
		// fresh deployment.
		if err := ld.loadLegacy(filepath.Join(dir, legacyFile)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("reading CURRENT: %w", err)
	}
	ld.finish()
	return nil
}

// loadGeneration recovers every partition of one generation directory:
// newest valid snapshot first — with the history prefix it names, which
// merges its results and settled tasks ahead of the running ones — then the
// log tail. When no snapshot loads and one of them was refused for its
// history, the rows of that history are in no log any more (compaction
// dropped their records, and a generation's first snapshot holds the rows
// of the one before): it is an error, like a corrupt legacy file, and Open
// writes no generation over the damaged one.
func (ld *loader) loadGeneration(genDir string) error {
	for _, part := range partitionNames(genDir) {
		var adopted uint64
		found := false
		var damaged error // why a snapshot's history prefix did not read
		for _, lsn := range partSnapshots(genDir, part) {
			snap, err := readPartSnapshot(genDir, part, lsn)
			if err == nil {
				ld.mergeSnapshot(snap)
				adopted = snap.WALLSN
				found = true
				break
			}
			if errors.Is(err, errHistory) {
				damaged = err
			}
			ld.s.logf("repository: %s: snapshot at lsn %d unreadable (%v); falling back to the previous snapshot", part, lsn, err)
		}
		if !found && damaged != nil {
			return fmt.Errorf("%s: no snapshot loads, and the log no longer holds the rows of their history (%w); the store in %s is left as it is", part, damaged, genDir)
		}
		if !found && len(partSnapshots(genDir, part)) > 0 {
			ld.s.logf("repository: %s: no valid snapshot; replaying the full log", part)
		}
		raw, err := os.ReadFile(walPath(genDir, part))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("reading %s wal: %w", part, err)
		}
		for _, rec := range decodeWAL(raw, part+".wal", ld.s.logf) {
			if rec.LSN <= adopted {
				continue // the snapshot already contains this record
			}
			if err := ld.replay(part, rec); err != nil {
				ld.s.logf("repository: %s: stopping replay at lsn %d: %v", part, rec.LSN, err)
				break
			}
		}
	}
	return nil
}

// loadLegacy reads a pre-WAL single-file store. A missing file yields an
// empty store; a corrupt one is an error (there is no older snapshot to
// fall back to, and silently booting empty would discard the world).
func (ld *loader) loadLegacy(path string) error {
	snap, err := readSnapshot(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("reading store: %w", err)
	}
	ld.mergeSnapshot(snap)
	return nil
}

// mergeSnapshot distributes one partition image over the store's own
// shards, through the same index seams shard.apply uses — projects first:
// their routes and pools are what the rows are indexed against.
func (ld *loader) mergeSnapshot(snap snapshot) {
	s := ld.s
	for _, u := range snap.Users {
		s.users[u.Nickname] = u
	}
	for _, p := range snap.Projects {
		sh := s.shardFor(p.ID)
		sh.projects[p.ID] = p
		sh.indexProject(p)
		ld.bump(&ld.maxProject, p.ID)
	}
	for _, r := range snap.Results {
		s.shardFor(r.ProjectID).indexResult(r)
		ld.bump(&ld.maxResult, r.ID)
	}
	for _, c := range snap.Comments {
		sh := s.shardFor(c.ProjectID)
		sh.comments = append(sh.comments, c)
		ld.bump(&ld.maxComment, c.ID)
	}
	for _, t := range snap.Tasks {
		s.shardFor(t.ProjectID).indexTask(t)
		ld.bump(&ld.maxTask, t.ID)
	}
	ld.bump(&ld.nextProject, snap.NextProjectID)
	ld.bump(&ld.nextResult, snap.NextResultID)
	ld.bump(&ld.nextComment, snap.NextCommentID)
	ld.bump(&ld.nextTask, snap.NextTaskID)
	ld.bump(&ld.taskTimeoutSeconds, snap.TaskTimeoutSeconds)
}

func (ld *loader) bump(dst *int, v int) {
	if v > *dst {
		*dst = v
	}
}

// replay routes one log record to the partition of the current store that
// owns it (the writing store may have had a different shard count) and
// applies it.
func (ld *loader) replay(part string, rec walRecord) error {
	s := ld.s
	if part == partMeta {
		return s.applyMeta(rec)
	}
	var sh *shard
	switch rec.Op {
	case opProject:
		var peek struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(rec.Data, &peek); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh = s.shardFor(peek.ID)
		ld.bump(&ld.maxProject, peek.ID)
	case opTaskLease:
		var ts []*Task
		if err := json.Unmarshal(rec.Data, &ts); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if len(ts) == 0 {
			return nil
		}
		// A lease batch always covers a single project.
		sh = s.shardFor(ts[0].ProjectID)
		for _, t := range ts {
			ld.bump(&ld.maxTask, t.ID)
		}
	case opTaskComplete:
		batch, err := decodeCompletions(rec.Data)
		if err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		if len(batch) == 0 {
			return nil
		}
		// A completion batch always covers a single project: it was reported
		// with one contributor key.
		if r := batch[0].Result; r != nil {
			sh = s.shardFor(r.ProjectID)
		} else {
			sh = s.shardWithTask(batch[0].TaskID)
		}
		for _, v := range batch {
			if v.Result != nil {
				ld.bump(&ld.maxResult, v.Result.ID)
			}
		}
	case opTaskKill:
		var v walTaskKill
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh = s.shardWithTask(v.TaskID)
	case opResultHide, opResultDelete:
		var v walResultMod
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh = s.shardWithResult(v.ResultID)
	case opResult:
		var peek struct {
			ID        int `json:"id"`
			ProjectID int `json:"project_id"`
		}
		if err := json.Unmarshal(rec.Data, &peek); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh = s.shardFor(peek.ProjectID)
		ld.bump(&ld.maxResult, peek.ID)
	case opComment:
		var peek struct {
			ID        int `json:"id"`
			ProjectID int `json:"project_id"`
		}
		if err := json.Unmarshal(rec.Data, &peek); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh = s.shardFor(peek.ProjectID)
		ld.bump(&ld.maxComment, peek.ID)
	default:
		var peek struct {
			ProjectID int `json:"project_id"`
		}
		if err := json.Unmarshal(rec.Data, &peek); err != nil {
			return fmt.Errorf("decoding %s record: %w", rec.Op, err)
		}
		sh = s.shardFor(peek.ProjectID)
	}
	if sh == nil {
		return fmt.Errorf("%s record references unknown state", rec.Op)
	}
	return sh.apply(rec)
}

// finish installs the recovered high-water marks into the store's
// counters.
func (ld *loader) finish() {
	s := ld.s
	s.nextProjectID = ld.maxProject + 1
	if ld.nextProject > s.nextProjectID {
		s.nextProjectID = ld.nextProject
	}
	s.nextResultID.Store(int64(maxInt(ld.maxResult, ld.nextResult-1)))
	s.nextCommentID.Store(int64(maxInt(ld.maxComment, ld.nextComment-1)))
	s.nextTaskID.Store(int64(maxInt(ld.maxTask, ld.nextTask-1)))
	if ld.taskTimeoutSeconds > 0 {
		s.TaskTimeout = time.Duration(ld.taskTimeoutSeconds) * time.Second
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
