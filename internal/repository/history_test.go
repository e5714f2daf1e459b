package repository

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// historyOf returns the history reference of a partition's snapshot.
func historyOf(t *testing.T, genDir, part string, lsn uint64) historyRef {
	t.Helper()
	snap, err := readSnapshot(snapPath(genDir, part, lsn))
	if err != nil {
		t.Fatal(err)
	}
	if snap.History == nil {
		t.Fatalf("the %s snapshot at lsn %d names no history", part, lsn)
	}
	return *snap.History
}

// imageJSON renders imageOf as the indented JSON testdata/parentgen keeps.
func imageJSON(t *testing.T, s *Store) []byte {
	t.Helper()
	data, err := json.MarshalIndent(imageOf(s), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestCorruptNewestFrameFallsBack flips a bit in the frame the newest
// checkpoint appended: the newest snapshot names a history prefix that does
// not read, so recovery adopts the previous snapshot, whose prefix ends
// before that frame, and replays the longer log tail to the same state.
func TestCorruptNewestFrameFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	g := runGoldenWorkload(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := s.AddResultTraced(g.ownerKey, g.expID, 2, g.dbms, "cloud", []float64{0.9}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // appends the one new row as the newest frame
		t.Fatal(err)
	}
	want := append(append([]int(nil), g.resultsAt[len(g.resultsAt)-1]...), r.ID)
	genDir := s.gen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	part := shardPartName(0)
	lsns := partSnapshots(genDir, part)
	if len(lsns) != keepSnapshots {
		t.Fatalf("retained snapshots %v", lsns)
	}
	newest, previous := historyOf(t, genDir, part, lsns[0]), historyOf(t, genDir, part, lsns[1])
	if newest.File != previous.File || newest.Bytes <= previous.Bytes {
		t.Fatalf("the newest checkpoint did not append to the previous one's history: %+v after %+v", newest, previous)
	}
	path := filepath.Join(genDir, newest.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[previous.Bytes+walHeaderSize+4] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	logs := &logCollector{}
	if got := reopenAndCount(t, dir, g, logs.logf); !sameIDs(got, want) {
		t.Fatalf("fallback recovery got results %v, want %v", got, want)
	}
	if !logs.contains("falling back to the previous snapshot") || !logs.contains("checksum mismatch") {
		t.Fatalf("the corrupt frame and the fallback are not reported; warnings: %v", logs.lines)
	}
}

// filesOf maps every file under dir, by its path relative to dir, to its
// content.
func filesOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCorruptSharedFrameRefusesToOpen flips a bit in the first frame of a
// shard's history, which the prefixes of both retained snapshots cover. The
// log was compacted past those rows, so no snapshot plus replay can give
// them back: Open and Load must fail instead of booting without them, and
// leave every file as it was — with the bit flipped back, the store opens
// with every acknowledged result.
func TestCorruptSharedFrameRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	g := runGoldenWorkload(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := s.AddResultTraced(g.ownerKey, g.expID, 2, g.dbms, "cloud", []float64{0.9}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]int(nil), g.resultsAt[len(g.resultsAt)-1]...), r.ID)
	genDir := s.gen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	part := shardPartName(0)
	lsns := partSnapshots(genDir, part)
	if len(lsns) != keepSnapshots {
		t.Fatalf("retained snapshots %v", lsns)
	}
	newest, previous := historyOf(t, genDir, part, lsns[0]), historyOf(t, genDir, part, lsns[1])
	if newest.File != previous.File || previous.Bytes == 0 {
		t.Fatalf("the retained snapshots do not share a history prefix: %+v and %+v", newest, previous)
	}
	path := filepath.Join(genDir, newest.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderSize+4] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := filesOf(t, dir)

	logs := &logCollector{}
	if _, err := open(dir, 1, logs.logf, nosyncFactory); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Open of a store whose shared history frame is corrupt: %v", err)
	}
	if logs.contains("replaying the full log") {
		t.Fatalf("recovery went on to replay a compacted log; warnings: %v", logs.lines)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load of a store whose shared history frame is corrupt succeeded")
	}
	if got := filesOf(t, dir); !reflect.DeepEqual(got, damaged) {
		t.Fatalf("the refused store changed on disk: %d files, were %d", len(got), len(damaged))
	}

	data[walHeaderSize+4] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopenAndCount(t, dir, g, quietLogf); !sameIDs(got, want) {
		t.Fatalf("after the repair recovery got results %v, want %v", got, want)
	}
}

// TestModerationStartsNewHistory hides and deletes results that an earlier
// checkpoint put in the history: the next checkpoint must start a new file
// holding the moderated rows, keep the old file while the previous snapshot
// names it, and recovery from the snapshots and histories alone — the logs
// removed — must give back exactly the live rows.
func TestModerationStartsNewHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return fixed }
	key, expID := drainFixture(t, s, 8)
	for i := 0; i < 6; i++ {
		leaseAndComplete(t, s, key, expID)
	}
	part := shardPartName(s.shardFor(1).idx)
	newest := func() historyRef {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return historyOf(t, s.gen, part, partSnapshots(s.gen, part)[0])
	}
	exists := func(ref historyRef) bool {
		_, err := os.Stat(filepath.Join(s.gen, ref.File))
		return err == nil
	}
	before := newest()
	results := s.Results("martin", 1)
	if err := s.HideResult("martin", results[1].ID, true); err != nil {
		t.Fatal(err)
	}
	if err := s.logRecord(results[4].ProjectID, opResultDelete, walResultDelete{results[4].ID}); err != nil {
		t.Fatal(err)
	}
	after := newest()
	if after.File == before.File {
		t.Fatalf("the checkpoint after a moderation appended to %s instead of starting a new history", before.File)
	}
	if !exists(before) {
		t.Fatalf("%s went while the previous snapshot names it", before.File)
	}
	leaseAndComplete(t, s, key, expID)
	if newest(); exists(before) {
		t.Fatalf("%s outlived the snapshots naming it", before.File)
	}
	live := imageJSON(t, s)
	genDir := s.gen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(genDir, "*.wal"))
	if err != nil || len(logs) != 3 {
		t.Fatalf("logs %v, %v", logs, err)
	}
	for _, path := range logs {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := imageJSON(t, recovered); !bytes.Equal(got, live) {
		t.Fatalf("recovered from snapshots and histories:\n%s\nlive:\n%s", got, live)
	}
}

// costSink records the bytes written to one file persistence writes.
type costSink struct {
	walSink
	written []byte
}

func (c *costSink) Write(p []byte) (int, error) {
	c.written = append(c.written, p...)
	return c.walSink.Write(p)
}

// checkpointCost returns the bytes written through the sinks and the rows
// they encode: the rows of the history frames and of the snapshots' lists.
func checkpointCost(t *testing.T, files map[string]*costSink) (written, rows int) {
	t.Helper()
	for path, f := range files {
		data := f.written
		written += len(data)
		switch {
		case strings.Contains(path, ".hist."):
			results, tasks, err := readFrames(bytes.NewReader(data), int64(len(data)), path)
			if err != nil {
				t.Fatal(err)
			}
			rows += len(results) + len(tasks)
		case strings.Contains(path, ".snap."):
			snap, err := decodeSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			rows += len(snap.Users) + len(snap.Projects) + len(snap.Results) + len(snap.Comments) + len(snap.Tasks)
		}
	}
	return written, rows
}

// TestCheckpointCostIsFlat pins that what a checkpoint writes follows the
// work since the previous checkpoint, not what the shard holds: a checkpoint
// 100 completions after the one before writes as many rows when the shard
// holds 1,000 settled tasks as when it holds 20,000, and as many bytes — up
// to the digit that ids and log sequence numbers gain. Both are counted
// through Store.create. Before the history, a checkpoint re-encoded every
// result and every task of the shard.
func TestCheckpointCostIsFlat(t *testing.T) {
	s, err := open(t.TempDir(), 1, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return fixed }
	const pool = 1000
	key, expID := drainFixture(t, s, pool)
	files := map[string]*costSink{} // what the current checkpoint wrote, by path
	s.create = func(path string) (walSink, error) {
		f, err := createFile(path)
		if err != nil {
			return f, err
		}
		sink := &costSink{walSink: f}
		files[path] = sink
		return sink, nil
	}
	// The history Open started was created before the hook; a moderation
	// makes the first checkpoint start one through it.
	r, err := s.AddResultTraced(key, expID, 1, "vektor", "moderated", []float64{0.1}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.HideResult("martin", r.ID, true); err != nil {
		t.Fatal(err)
	}
	settled := 0
	settle := func(n int) { // leases and completes up to n tasks, a pool's lane after the other
		t.Helper()
		for settled < n {
			tasks, err := s.RequestTasks(key, expID, "vektor", fmt.Sprintf("lane-%02d", settled/pool), min(100, n-settled))
			if err != nil || len(tasks) == 0 {
				t.Fatalf("lease: %v, %v", tasks, err)
			}
			var batch []Completion
			extra := EncodeExtras(map[string]string{"rows": "25"})
			for _, task := range tasks {
				batch = append(batch, Completion{TaskID: task.ID, Seconds: []float64{0.1}, Extra: extra})
			}
			for _, out := range s.CompleteTasks(key, batch) {
				if out.Err != nil {
					t.Fatal(out.Err)
				}
			}
			settled += len(tasks)
		}
	}
	measure := func(at int) (written, rows int) {
		t.Helper()
		settle(at)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		settle(at + 100)
		for path, sink := range files {
			sink.written = nil // the history's sink stays open across checkpoints
			if !strings.Contains(path, ".hist.") {
				delete(files, path)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return checkpointCost(t, files)
	}
	writtenSmall, rowsSmall := measure(1000)
	writtenLarge, rowsLarge := measure(20000)
	if rowsSmall != rowsLarge {
		t.Errorf("rows encoded by a checkpoint after 100 completions: %d at 1,000 settled tasks, %d at 20,000", rowsSmall, rowsLarge)
	}
	if d := writtenLarge - writtenSmall; d < 0 || d > writtenSmall/50 {
		t.Errorf("bytes written by a checkpoint after 100 completions: %d at 1,000 settled tasks, %d at 20,000", writtenSmall, writtenLarge)
	}
	t.Logf("a checkpoint after 100 completions: %d rows, %d bytes at 1,000 settled tasks; %d rows, %d bytes at 20,000", rowsSmall, writtenSmall, rowsLarge, writtenLarge)
}

// TestParentGenerationLoads loads a store written before the history
// existed — snapshots listing every result and task, a log tail behind them
// — kept in testdata/parentgen with the image that code read from it. Load
// must read the same image, Open must migrate it into a generation with
// histories (into another shard count), and a checkpoint and a reopen must
// keep it.
func TestParentGenerationLoads(t *testing.T) {
	fixture := filepath.Join("testdata", "parentgen")
	want, err := os.ReadFile(filepath.Join(fixture, "image.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, how string) {
		t.Helper()
		if got := imageJSON(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n%s\nwant:\n%s", how, got, want)
		}
	}
	loaded, err := Load(filepath.Join(fixture, "store"))
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, "loaded")
	dir := t.TempDir()
	copyTree(t, filepath.Join(fixture, "store"), dir)
	for _, how := range []string{"migrated", "reopened"} {
		s, err := open(dir, 3, quietLogf, nosyncFactory)
		if err != nil {
			t.Fatal(err)
		}
		check(s, how)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder. It must
// not panic, must return nothing of a document it refuses, and a snapshot it
// accepts must re-encode to a fixpoint: encoding what decoding the encoding
// gives writes the same bytes — and merge into a fresh store without a
// panic. The seed corpus in testdata/fuzz holds the snapshots of the golden
// crash workload, in both formats; the seeds below hold null rows a merge
// used to dereference, which the decoder refuses.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte(`{"projects":[{"id":1,"contributors":[null]}],"saved_at":"2026-01-01T00:00:00Z"}`))
	f.Add([]byte(`{"projects":[{"id":1,"experiments":[null]}],"saved_at":"2026-01-01T00:00:00Z"}`))
	encode := func(t *testing.T, snap snapshot) []byte {
		var buf bytes.Buffer
		if err := snap.encode(bufio.NewWriter(&buf)); err != nil {
			t.Fatalf("encoding a decoded snapshot: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(bytes.NewReader(data))
		if err != nil {
			if !reflect.DeepEqual(snap, snapshot{}) {
				t.Fatalf("a refused snapshot returned %+v", snap)
			}
			return
		}
		first := encode(t, snap)
		again, err := decodeSnapshot(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("the encoding of a decoded snapshot does not decode: %v\n%s", err, first)
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\n%s", first, second)
		}
		NewStore().mergeSnapshot(again)
	})
}

// historyOracle walks data as a history by the format's definition: every
// frame's length in range, its payload whole, its CRC right and its JSON a
// frame of rows, none of them null. It returns the rows — every result, then
// every task — or ok false.
func historyOracle(data []byte) (rows []any, ok bool) {
	var tasks []any
	for off := 0; off < len(data); {
		if len(data)-off < walHeaderSize {
			return nil, false
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxWALRecord || len(data)-off-walHeaderSize < n {
			return nil, false
		}
		body := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+4:]) {
			return nil, false
		}
		var fr historyFrame
		if json.Unmarshal(body, &fr) != nil || slices.Contains(fr.Results, nil) || slices.Contains(fr.Tasks, nil) {
			return nil, false
		}
		for _, r := range fr.Results {
			rows = append(rows, r)
		}
		for _, task := range fr.Tasks {
			tasks = append(tasks, task)
		}
		off += walHeaderSize + n
	}
	return append(rows, tasks...), true
}

// FuzzHistoryFrames feeds arbitrary bytes to recovery as a shard's history
// file, with a snapshot naming its first cut bytes. It must not panic, and
// the snapshot must be adopted exactly when those bytes are whole, intact
// frames — with their rows, results before tasks — and refused otherwise,
// which falls back to the previous snapshot. The seed corpus in
// testdata/fuzz holds the history of the golden crash workload, cut at the
// end and at frame boundaries; the seed below is a frame of null rows, which
// recovery used to dereference.
func FuzzHistoryFrames(f *testing.F) {
	nulls := append(make([]byte, walHeaderSize), `{"results":[null],"tasks":[null]}`...)
	putFrameHeader(nulls)
	f.Add(nulls, uint32(len(nulls)))
	genDir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		size := min(int(cut), len(data))
		ref := historyRef{File: shardPartName(0) + ".hist.1", Bytes: int64(size)}
		if err := os.WriteFile(filepath.Join(genDir, ref.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		results, tasks, err := ref.read(genDir)
		want, ok := historyOracle(data[:size])
		if ok != (err == nil) {
			t.Fatalf("the oracle says whole frames: %v; read: %v", ok, err)
		}
		var got []any
		for _, r := range results {
			got = append(got, r)
		}
		for _, task := range tasks {
			got = append(got, task)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("read %d rows, the oracle %d", len(got), len(want))
		}
	})
}
