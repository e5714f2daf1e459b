package repository

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On-disk layout. A data directory holds a CURRENT pointer file naming the
// active generation directory; each generation contains one snapshot set
// and one write-ahead log per partition ("meta" for the user table,
// "sNNN" for each project shard), and one history per shard:
//
//	<dir>/CURRENT                 -> "gen-000003"
//	<dir>/gen-000003/meta.wal
//	<dir>/gen-000003/meta.snap.<lsn>.json
//	<dir>/gen-000003/s000.wal
//	<dir>/gen-000003/s000.snap.<lsn>.json
//	<dir>/gen-000003/s000.hist.<k>
//	...
//
// Snapshot files are written atomically (temp file + rename) and named by
// the log sequence number they cover, so replay skips records a snapshot
// already contains. A snapshot is one JSON object, streamed element by
// element in both directions (encode, decodeSnapshot) so neither side ever
// holds the document as bytes. A shard's snapshot holds only what changes
// or stays small — projects, comments, running tasks, the scalars — and
// names the prefix of the shard's append-only history file (history.go)
// that holds its results and settled tasks, so a checkpoint writes the rows
// that arrived since the previous one, not the shard. Snapshots that list
// every row inline (written before the history existed, or indented and in
// one piece by the pre-WAL store) are the same object and load the same
// way. Checkpoints keep the two newest snapshots per partition, the history
// files they name, and the log records the older one still needs — a
// corrupt newest snapshot, or a corrupt frame that only the newest
// snapshot's history prefix covers, therefore falls back to the previous
// snapshot plus a longer replay. Both snapshots usually name prefixes of
// one history file, so a corrupt frame that both cover is in every
// retained snapshot and in no log: recovery refuses to open the store
// rather than boot without those rows. Generations make shard-count
// changes and legacy migration crash-safe: a new layout is written
// completely before CURRENT flips to it, and stale generations are pruned
// afterwards. A pre-WAL store (a single <dir>/sqalpel.json) is detected
// when no CURRENT exists and migrated transparently.

// snapshot is the on-disk JSON representation of one partition (and, for
// legacy stores, of the whole store in a single document).
type snapshot struct {
	Users    []*User    `json:"users,omitempty"`
	Projects []*Project `json:"projects,omitempty"`
	Results  []*Result  `json:"results,omitempty"`
	Comments []*Comment `json:"comments,omitempty"`
	Tasks    []*Task    `json:"tasks,omitempty"`

	NextProjectID int `json:"next_project_id,omitempty"`
	NextResultID  int `json:"next_result_id,omitempty"`
	NextCommentID int `json:"next_comment_id,omitempty"`
	NextTaskID    int `json:"next_task_id,omitempty"`

	TaskTimeoutSeconds int       `json:"task_timeout_seconds,omitempty"`
	SavedAt            time.Time `json:"saved_at"`

	// WALLSN is the log sequence number this snapshot covers: replay skips
	// records with lsn <= WALLSN. Zero for legacy stores and fresh
	// generations.
	WALLSN uint64 `json:"wal_lsn,omitempty"`

	// History names the prefix of the shard's history that holds the
	// results and settled tasks this snapshot covers; nil when the lists
	// above carry every row.
	History *historyRef `json:"history,omitempty"`
}

// image is what a checkpoint captures of a partition under its lock: the
// snapshot and, for a shard, the rows its history holds — prefixes of the
// shard's results and settled tasks — with the moderation count they agree
// with.
type image struct {
	snap     snapshot
	results  []*Result
	settled  []*Task
	rewrites uint64
}

// encode streams the snapshot as one compact JSON object: each list as an
// array written element by element, then the scalar fields.
func (snap snapshot) encode(w *bufio.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // pools are SQL, full of < and >
	w.WriteByte('{')
	err := errors.Join(
		encodeList(w, enc, "users", snap.Users),
		encodeList(w, enc, "projects", snap.Projects),
		encodeList(w, enc, "results", snap.Results),
		encodeList(w, enc, "comments", snap.Comments),
		encodeList(w, enc, "tasks", snap.Tasks),
	)
	if err != nil {
		return err
	}
	// With the lists gone (snap is a copy) what marshals is the object of
	// the scalar fields; saved_at is always in it, so it is never empty.
	snap.Users, snap.Projects, snap.Results, snap.Comments, snap.Tasks = nil, nil, nil, nil, nil
	scalars, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	w.Write(scalars[1:])
	return w.Flush() // a bufio.Writer keeps its first write error for Flush
}

// listWriter is what encodeList writes to: the snapshot's buffered file or
// a history frame's buffer.
type listWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// encodeList writes `"name":[…],`, or nothing for an empty list; enc writes
// to w.
func encodeList[T any](w listWriter, enc *json.Encoder, name string, list []*T) error {
	if len(list) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%q:[", name)
	for i, v := range list {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("encoding %s: %w", name, err)
		}
	}
	w.WriteString("],")
	return nil
}

// decodeSnapshot reads a snapshot object, compact or indented, decoding the
// lists element by element. Nothing is returned of a document that does not
// parse to its end, so a torn snapshot is never half-adopted.
func decodeSnapshot(r io.Reader) (snapshot, error) {
	var snap snapshot
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return snapshot{}, err
	}
	scalars := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return snapshot{}, err
		}
		switch key, _ := tok.(string); key {
		case "users":
			err = decodeList(dec, &snap.Users)
		case "projects":
			err = decodeList(dec, &snap.Projects)
		case "results":
			err = decodeList(dec, &snap.Results)
		case "comments":
			err = decodeList(dec, &snap.Comments)
		case "tasks":
			err = decodeList(dec, &snap.Tasks)
		default:
			var v json.RawMessage
			err = dec.Decode(&v)
			scalars[key] = v
		}
		if err != nil {
			return snapshot{}, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return snapshot{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return snapshot{}, fmt.Errorf("data after the snapshot object")
	}
	// The scalar fields go through the struct tags, like the lists would
	// have; the lists are not in this object and stay as decoded.
	raw, err := json.Marshal(scalars)
	if err == nil {
		err = json.Unmarshal(raw, &snap)
	}
	if err != nil {
		return snapshot{}, err
	}
	return snap, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("expected %q, found %v", want, tok)
	}
	return nil
}

// decodeList reads one JSON array (or null) of objects into dst; a null
// element, or one validRow refuses, is an error.
func decodeList[T any](dec *json.Decoder, dst *[]*T) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("expected an array, found %v", tok)
	}
	for dec.More() {
		var v *T
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if v == nil || !validRow(v) {
			return errNullRow
		}
		*dst = append(*dst, v)
	}
	_, err = dec.Token()
	return err
}

// readSnapshot loads one snapshot file.
func readSnapshot(path string) (snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapshot{}, err
	}
	defer f.Close()
	return decodeSnapshot(bufio.NewReader(f))
}

// errHistory marks a snapshot refused for the history prefix it names.
var errHistory = errors.New("history")

// readPartSnapshot loads one snapshot of a generation's partition together
// with the history prefix it names, whole or not at all: a torn or corrupt
// frame inside the prefix makes the snapshot unreadable like a damaged
// snapshot file does, with an error that wraps errHistory. The history's
// rows go ahead of the snapshot's own, so settled tasks merge before the
// running ones.
func readPartSnapshot(genDir, part string, lsn uint64) (snapshot, error) {
	snap, err := readSnapshot(snapPath(genDir, part, lsn))
	if err != nil || snap.History == nil {
		return snap, err
	}
	results, tasks, err := snap.History.read(genDir)
	if err != nil {
		return snapshot{}, fmt.Errorf("%w: %w", errHistory, err)
	}
	snap.Results = append(results, snap.Results...)
	snap.Tasks = append(tasks, snap.Tasks...)
	return snap, nil
}

const (
	currentFile  = "CURRENT"
	legacyFile   = "sqalpel.json"
	migratedFile = "sqalpel.json.migrated"
	partMeta     = "meta"
	// keepSnapshots is how many snapshot generations a checkpoint retains
	// per partition; the log keeps every record the oldest retained
	// snapshot still needs, so recovery can fall back across one corrupt
	// snapshot.
	keepSnapshots = 2
)

func shardPartName(i int) string { return fmt.Sprintf("s%03d", i) }

func walPath(genDir, part string) string { return filepath.Join(genDir, part+".wal") }

func snapPath(genDir, part string, lsn uint64) string {
	return filepath.Join(genDir, fmt.Sprintf("%s.snap.%d.json", part, lsn))
}

// partSnapshots lists the partition's snapshot files, newest (highest lsn)
// first.
func partSnapshots(genDir, part string) []uint64 {
	return numberedFiles(genDir, part+".snap.", ".json")
}

// numberedFiles lists the numbers n of the files named prefix+n+suffix in
// genDir, highest first.
func numberedFiles(genDir, prefix, suffix string) []uint64 {
	entries, err := os.ReadDir(genDir)
	if err != nil {
		return nil
	}
	var ns []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] > ns[j] })
	return ns
}

// partitionNames lists the partitions present in a generation directory,
// meta first, shards in ascending order.
func partitionNames(genDir string) []string {
	entries, err := os.ReadDir(genDir)
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		base := name
		if strings.HasSuffix(name, ".wal") {
			base = strings.TrimSuffix(name, ".wal")
		} else if i := strings.Index(name, ".snap."); i >= 0 {
			base = name[:i]
		} else {
			continue
		}
		seen[base] = true
	}
	var parts []string
	for p := range seen {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	return parts
}

// createFile opens the files persistence writes whole — snapshot and log
// temporaries, CURRENT — truncating what is there. It is the Store.create
// seam; tests substitute sinks that block or report each step.
func createFile(path string) (walSink, error) { return openSinkFile(path, os.O_TRUNC) }

// writeAtomic writes a file via a temp file + rename: fill streams the
// content, which is fsynced before the rename and the directory (best
// effort) after it.
func writeAtomic(create walSinkFactory, path string, fill func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	if err = fill(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: a stale temporary is ignored by recovery
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so renames inside it are durable; best
// effort, some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// partition is what persistence needs of the meta partition or of a shard.
type partition struct {
	name string
	mu   *sync.RWMutex
	// wal points at the partition's log writer field, nil while none is
	// attached; read with mu held.
	wal **walWriter
	// capture returns the partition's image; mu held, shared or exclusive.
	// The image shares nothing with the partition that a later mutation can
	// reach, so it is encoded after mu is released.
	capture func() image
	// hist is a shard's history; nil for the meta partition, whose snapshot
	// holds all of it.
	hist *history
}

// partitions lists the meta partition and the shards.
func (s *Store) partitions() []partition {
	parts := []partition{{partMeta, &s.metaMu, &s.metaWAL, s.captureMetaLocked, nil}}
	for i, sh := range s.shards {
		parts = append(parts, partition{shardPartName(i), &sh.mu, &sh.wal, sh.captureLocked, &sh.hist})
	}
	return parts
}

// captureMetaLocked builds the meta partition's image; metaMu held. Users
// are copied by value and emitted by nickname; the global id counters ride
// in the meta snapshot.
func (s *Store) captureMetaLocked() image {
	snap := snapshot{
		NextProjectID:      s.nextProjectID,
		NextResultID:       int(s.nextResultID.Load()) + 1,
		NextCommentID:      int(s.nextCommentID.Load()) + 1,
		NextTaskID:         int(s.nextTaskID.Load()) + 1,
		TaskTimeoutSeconds: int(s.TaskTimeout.Seconds()),
		SavedAt:            s.now(),
	}
	if s.metaWAL != nil {
		snap.WALLSN = s.metaWAL.lsn
	}
	users := make([]User, 0, len(s.users))
	for _, u := range s.users {
		users = append(users, *u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i].Nickname < users[j].Nickname })
	for i := range users {
		snap.Users = append(snap.Users, &users[i])
	}
	return image{snap: snap}
}

// metaLogApply is shard.logApply for the meta partition; metaMu held.
func (s *Store) metaLogApply(u *userRecord) error {
	if s.metaWAL != nil {
		if err := s.metaWAL.log(opUser, u); err != nil {
			return err
		}
	}
	u.apply(s)
	return nil
}

// Checkpoint snapshots every partition and compacts the write-ahead logs
// of a durable store, one partition at a time and mostly without its lock —
// there is no stop-the-world pass over the whole store; it is what the
// daemon runs periodically.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return fmt.Errorf("checkpoint requires a store opened with Open")
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	for _, pt := range s.partitions() {
		//lint:iolocked persistMu serialises whole-store persistence only (no reader or mutator ever takes it)
		if err := s.checkpointPartition(pt); err != nil {
			return err
		}
	}
	return nil
}

// checkpointPartition brings a shard's history up to date, writes a
// snapshot of the partition, prunes old snapshots down to keepSnapshots and
// the history files they named, and rewrites the log to the records the
// oldest retained snapshot still needs; persistMu held. The partition's lock
// is held twice, briefly. Shared, to capture: an image at one LSN that no
// mutation can reach afterwards (partition.capture) — which is what lets the
// encoding, the history's append and the snapshot's write with their
// fsyncs, and the bulk of the compaction run with the partition fully
// available; the PR 5 race was encoding live objects without the lock, here
// nothing live is encoded. Exclusive, at the end, to carry over the few
// records appended in the meantime and swap the log (swapLogLocked).
func (s *Store) checkpointPartition(pt partition) error {
	pt.mu.RLock()
	img := pt.capture()
	healthy := *pt.wal == nil || (*pt.wal).broken == nil
	pt.mu.RUnlock()

	if pt.hist != nil {
		ref, err := pt.hist.extend(s.create, s.gen, pt.name, img)
		if err != nil {
			return fmt.Errorf("appending to the %s history: %w", pt.name, err)
		}
		img.snap.History = ref
	}
	err := writeAtomic(s.create, snapPath(s.gen, pt.name, img.snap.WALLSN), img.snap.encode)
	if err != nil {
		return fmt.Errorf("writing %s snapshot: %w", pt.name, err)
	}
	// Prune snapshots beyond the retention window, then the history files
	// none of the retained ones names.
	lsns := partSnapshots(s.gen, pt.name)
	for i, lsn := range lsns {
		if i >= keepSnapshots {
			_ = os.Remove(snapPath(s.gen, pt.name, lsn))
		}
	}
	lsns = lsns[:min(len(lsns), keepSnapshots)]
	if pt.hist != nil {
		pt.hist.prune(s.gen, pt.name, img.snap.WALLSN, lsns)
	}
	// Compact the log: keep every record the oldest retained snapshot may
	// still need for replay.
	var keepAfter uint64
	if n := len(lsns); n > 0 {
		keepAfter = lsns[n-1]
	}
	path := walPath(s.gen, pt.name)
	// Appends go on while this reads; every record up to the captured LSN
	// was complete before the capture.
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("reading %s wal for compaction: %w", pt.name, err)
	}
	var walk frameWalk
	from, to := walk.span(raw, keepAfter, img.snap.WALLSN)
	if from == 0 && healthy {
		return nil // nothing to drop; keep the append handle as is
	}
	tmp, err := s.create(path + ".tmp")
	if err != nil {
		return fmt.Errorf("rewriting %s wal: %w", pt.name, err)
	}
	if _, err = tmp.Write(raw[from:to]); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		pt.mu.Lock()
		//lint:iolocked log swap seam: no append may land between reading the log's tail and the rename, so the tail copy, its fsync and the swap of the sink run under the partition lock
		err = s.swapLogLocked(pt, path, tmp, walk)
		pt.mu.Unlock()
	}
	if err != nil {
		_ = tmp.Close()              // twice on some paths; the error that counts is err
		_ = os.Remove(path + ".tmp") // best effort: a stale temporary is ignored by recovery
		return fmt.Errorf("rewriting %s wal: %w", pt.name, err)
	}
	return nil
}

// swapLogLocked finishes a compaction; the partition's lock is held
// exclusively, so the log is still. It appends to tmp the records written
// since the compaction read the log (walk stands behind the last one it
// took), makes tmp durable, renames it over the log and moves the writer to
// a sink on the new file. Only records the writer acknowledged are carried
// over, so a partition disabled by a failed append is healthy again: what
// the rewrite kept is exactly what was provably intact.
func (s *Store) swapLogLocked(pt partition, path string, tmp walSink, walk frameWalk) error {
	w := *pt.wal
	if w == nil {
		return fmt.Errorf("the log was detached during the checkpoint")
	}
	tail, err := readFrom(path, walk.off)
	if err != nil {
		return err
	}
	from, to := walk.span(tail, 0, w.lsn)
	if _, err := tmp.Write(tail[from:to]); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	_ = w.sink.Close() // the file behind it is unlinked; nothing in it counts any more
	sink, err := s.sinks(path)
	if err != nil {
		// The log on disk is whole; without a handle on it the partition
		// refuses appends until the next checkpoint opens one.
		w.broken = err
		return fmt.Errorf("reopening the log: %w", err)
	}
	w.sink, w.broken = sink, nil
	return nil
}

// readFrom returns what a file holds from offset off on; a missing file
// holds nothing.
func readFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// writeGeneration exports the full store as a brand-new generation in dir
// and flips CURRENT to it; persistMu held. A shard's rows go to a new
// history file by the append a checkpoint runs, from an empty history. When
// attach is non-nil it is called per partition with the new log path so
// Open can wire up the write-ahead sinks of the generation it just created,
// and the shards keep the new histories as theirs; an export closes them.
// Old generations and a migrated legacy file are pruned afterwards — only
// once the new generation is complete and CURRENT points at it, so a crash
// at any earlier instant leaves the previous state authoritative.
func (s *Store) writeGeneration(dir string, attach func(part, walFile string) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating store directory: %w", err)
	}
	seq := 1
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "gen-")); err == nil && n >= seq {
				seq = n + 1
			}
		}
	}
	genName := fmt.Sprintf("gen-%06d", seq)
	genDir := filepath.Join(dir, genName)
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return "", fmt.Errorf("creating generation directory: %w", err)
	}

	for _, pt := range s.partitions() {
		pt.mu.RLock()
		img := pt.capture()
		pt.mu.RUnlock()
		img.snap.WALLSN = 0
		if pt.hist != nil {
			var h history
			ref, err := h.extend(s.create, genDir, pt.name, img)
			if err != nil {
				return "", fmt.Errorf("writing %s history: %w", pt.name, err)
			}
			img.snap.History = ref
			if attach != nil {
				h.named = map[uint64]int{0: h.file}
				*pt.hist = h
			} else {
				h.close()
			}
		}
		if err := writeAtomic(s.create, snapPath(genDir, pt.name, 0), img.snap.encode); err != nil {
			return "", fmt.Errorf("writing %s snapshot: %w", pt.name, err)
		}
		if attach != nil {
			if err := attach(pt.name, walPath(genDir, pt.name)); err != nil {
				return "", err
			}
		}
	}

	err := writeAtomic(s.create, filepath.Join(dir, currentFile), func(w *bufio.Writer) error {
		_, err := w.WriteString(genName + "\n")
		return err
	})
	if err != nil {
		return "", fmt.Errorf("writing CURRENT: %w", err)
	}
	// The new generation is authoritative; prune everything stale.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "gen-") && e.Name() != genName {
				_ = os.RemoveAll(filepath.Join(dir, e.Name()))
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, legacyFile)); err == nil {
		_ = os.Rename(filepath.Join(dir, legacyFile), filepath.Join(dir, migratedFile))
	}
	return genDir, nil
}
