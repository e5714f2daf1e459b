package repository

import (
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

// loadInto recovers the persistent state in dir into the (empty) store s,
// which may be sharded differently from the store that wrote it: projects
// and their dependent rows are redistributed to s's own shards. The id
// counters follow the rows as they enter (record apply, indexResult,
// indexTask) and the counters snapshots carry, so an id is never reissued,
// not even one whose row was deleted after the last snapshot.
func loadInto(s *Store, dir string) error {
	current, err := os.ReadFile(filepath.Join(dir, currentFile))
	switch {
	case err == nil:
		genDir := filepath.Join(dir, strings.TrimSpace(string(current)))
		if _, err := os.Stat(genDir); err != nil {
			return fmt.Errorf("CURRENT names missing generation %q: %w", strings.TrimSpace(string(current)), err)
		}
		return s.loadGeneration(genDir)
	case os.IsNotExist(err):
		// No generation pointer: either a legacy single-file store or a
		// fresh deployment.
		return s.loadLegacy(filepath.Join(dir, legacyFile))
	default:
		return fmt.Errorf("reading CURRENT: %w", err)
	}
}

// loadGeneration recovers every partition of one generation directory:
// newest valid snapshot first — with the history prefix it names, which
// merges its results and settled tasks ahead of the running ones — then the
// log tail. When no snapshot loads and one of them was refused for its
// history, the rows of that history are in no log any more (compaction
// dropped their records, and a generation's first snapshot holds the rows
// of the one before): it is an error, like a corrupt legacy file, and Open
// writes no generation over the damaged one.
func (s *Store) loadGeneration(genDir string) error {
	for _, part := range partitionNames(genDir) {
		var adopted uint64
		found := false
		var damaged error // why a snapshot's history prefix did not read
		for _, lsn := range partSnapshots(genDir, part) {
			snap, err := readPartSnapshot(genDir, part, lsn)
			if err == nil {
				s.mergeSnapshot(snap)
				adopted = snap.WALLSN
				found = true
				break
			}
			if errors.Is(err, errHistory) {
				damaged = err
			}
			s.logf("repository: %s: snapshot at lsn %d unreadable (%v); falling back to the previous snapshot", part, lsn, err)
		}
		if !found && damaged != nil {
			return fmt.Errorf("%s: no snapshot loads, and the log no longer holds the rows of their history (%w); the store in %s is left as it is", part, damaged, genDir)
		}
		if !found && len(partSnapshots(genDir, part)) > 0 {
			s.logf("repository: %s: no valid snapshot; replaying the full log", part)
		}
		raw, err := os.ReadFile(walPath(genDir, part))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("reading %s wal: %w", part, err)
		}
		for _, rec := range decodeWAL(raw, part+".wal", s.logf) {
			if rec.LSN <= adopted {
				continue // the snapshot already contains this record
			}
			if err := s.replay(part, rec); err != nil {
				s.logf("repository: %s: stopping replay at lsn %d: %v", part, rec.LSN, err)
				break
			}
		}
	}
	return nil
}

// loadLegacy reads a pre-WAL single-file store. A missing file yields an
// empty store; a corrupt one is an error (there is no older snapshot to
// fall back to, and silently booting empty would discard the world).
func (s *Store) loadLegacy(path string) error {
	snap, err := readSnapshot(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("reading store: %w", err)
	}
	s.mergeSnapshot(snap)
	return nil
}

// mergeSnapshot distributes one partition image over the store's own
// shards, through the seams the records' apply uses — projects first: their
// routes and pools are what the rows are indexed against.
func (s *Store) mergeSnapshot(snap snapshot) {
	for _, u := range snap.Users {
		(*userRecord)(u).apply(s)
	}
	for _, p := range snap.Projects {
		(*projectRecord)(p).apply(s.shardFor(p.ID))
	}
	for _, r := range snap.Results {
		s.shardFor(r.ProjectID).indexResult(r)
	}
	for _, c := range snap.Comments {
		(*commentRecord)(c).apply(s.shardFor(c.ProjectID))
	}
	for _, t := range snap.Tasks {
		s.shardFor(t.ProjectID).indexTask(t)
	}
	s.nextProjectID = max(s.nextProjectID, snap.NextProjectID)
	raise(&s.nextResultID, snap.NextResultID-1)
	raise(&s.nextCommentID, snap.NextCommentID-1)
	raise(&s.nextTaskID, snap.NextTaskID-1)
	if snap.TaskTimeoutSeconds > 0 {
		s.TaskTimeout = time.Duration(snap.TaskTimeoutSeconds) * time.Second
	}
}

// replay decodes one log record, routes it to the partition of the current
// store that owns it (the writing store may have had a different shard
// count) and applies it.
func (s *Store) replay(part string, rec walRecord) error {
	r, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	if part == partMeta {
		u, ok := r.(*userRecord)
		if !ok {
			return fmt.Errorf("unknown meta wal op %q", rec.Op)
		}
		u.apply(s)
		return nil
	}
	var sh *shard
	switch r := r.(type) {
	case *projectRecord:
		sh = s.shardFor(r.ID)
	case *walVisibility:
		sh = s.shardFor(r.ProjectID)
	case *walSynopsis:
		sh = s.shardFor(r.ProjectID)
	case *walCatalogs:
		sh = s.shardFor(r.ProjectID)
	case *walInvite:
		sh = s.shardFor(r.ProjectID)
	case *walExperiment:
		sh = s.shardFor(r.ProjectID)
	case *walQueries:
		sh = s.shardFor(r.ProjectID)
	case *walQueriesAppend:
		sh = s.shardFor(r.ProjectID)
	case *resultRecord:
		sh = s.shardFor(r.ProjectID)
	case *walResultHide:
		sh = s.shardWithResult(r.ResultID)
	case *walResultDelete:
		sh = s.shardWithResult(r.ResultID)
	case *commentRecord:
		sh = s.shardFor(r.ProjectID)
	case *leaseRecord:
		if len(*r) == 0 {
			return nil
		}
		sh = s.shardFor((*r)[0].ProjectID) // a lease batch covers one project
	case *completeRecord:
		if len(*r) == 0 {
			return nil
		}
		// A completion batch covers one project: it was reported with one
		// contributor key.
		if res := (*r)[0].Result; res != nil {
			sh = s.shardFor(res.ProjectID)
		} else {
			sh = s.shardWithTask((*r)[0].TaskID)
		}
	case *walTaskKill:
		sh = s.shardWithTask(r.TaskID)
	}
	if sh == nil {
		return fmt.Errorf("%s record references unknown state", rec.Op)
	}
	r.(shardRecord).apply(sh)
	return nil
}
