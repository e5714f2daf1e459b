package repository

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// The write-ahead log makes every repository mutation durable before it is
// applied in memory: the mutator validates its inputs, builds one logical
// record describing the state change (ids pre-assigned, so replay never
// re-runs allocation logic), appends the record to the owning partition's
// log, syncs it to stable storage, and only then applies it. Each op has one
// record type with one apply method (record.go); the live path applies the
// value it logged, and only recovery decodes, into the same type, to call the
// same method — so the live path and the recovery path cannot drift apart.
//
// On disk a record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload]
//
// with the payload a JSON-encoded walRecord (a shard's history file uses the
// same framing, history.go). The CRC and the length prefix
// make torn tail writes (a crash mid-append) and bit corruption detectable:
// recovery drops everything from the first invalid record on and boots from
// what provably hit the disk.

// WAL operation codes, each with its record type in record.go. Meta-partition
// records cover the global user table; every other record belongs to the
// shard of its project.
const (
	opUser           = "user"
	opProject        = "project"
	opVisibility     = "visibility"
	opSynopsis       = "synopsis"
	opCatalogs       = "catalogs"
	opInvite         = "invite"
	opExperiment     = "experiment"
	opQueriesReplace = "queries-replace"
	opQueriesAppend  = "queries-append"
	opResult         = "result"
	opResultHide     = "result-hide"
	opResultDelete   = "result-delete"
	opComment        = "comment"
	opTaskLease      = "task-lease"
	opTaskComplete   = "task-complete"
	opTaskKill       = "task-kill"
)

// walRecord is the JSON payload of one framed log entry. LSNs are
// per-partition, strictly consecutive, and recorded in snapshots so replay
// can skip records a snapshot already covers — compaction that crashes
// between the snapshot rename and the log rewrite therefore never
// double-applies.
type walRecord struct {
	LSN  uint64          `json:"lsn"`
	Op   string          `json:"op"`
	Data json.RawMessage `json:"data"`
}

// walSink is the durability seam of the log: when Write+Sync return, the
// bytes must survive a crash. Production sinks are append-only files;
// tests inject recording, failing and torn-write sinks through it to
// simulate kill -9 at arbitrary byte positions.
type walSink interface {
	io.Writer
	Sync() error
	Close() error
}

// walSinkFactory opens the sink for a partition's log file. The default
// appends to a real file; tests substitute in-memory sinks.
type walSinkFactory func(path string) (walSink, error)

// fileSink is the production walSink: an append-only file fsynced per
// record.
type fileSink struct{ f *os.File }

func openFileSink(path string) (walSink, error) { return openSinkFile(path, os.O_APPEND) }

// openSinkFile opens a file for writing, created if missing; how decides
// between appending to it and truncating it.
func openSinkFile(path string, how int) (walSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|how, 0o644)
	if err != nil {
		return nil, err
	}
	return fileSink{f: f}, nil
}

func (fs fileSink) Write(p []byte) (int, error) { return fs.f.Write(p) }
func (fs fileSink) Sync() error                 { return fs.f.Sync() }
func (fs fileSink) Close() error                { return fs.f.Close() }

// walWriter appends framed records to a sink. It is guarded by the owning
// partition's mutex: appends happen under the same lock as the in-memory
// apply, so log order always equals apply order.
type walWriter struct {
	sink walSink
	lsn  uint64 // last appended LSN

	// broken latches the first write/sync failure: the file may now end in
	// partial garbage, so appending more records after it would put them
	// beyond recovery's reach (replay stops at the first bad frame). The
	// partition rejects further mutations until a checkpoint rewrites the
	// log from the records that are provably intact.
	broken error
}

// frameRecord frames the walRecord of lsn, op and data with its length +
// CRC header. The payload is assembled, not encoded: data is json.Marshal's
// own compact output and an op is a plain identifier, so these are the
// bytes json.Marshal writes for the walRecord, without a second pass of
// encoding/json over data — a batch of traced completions is kilobytes.
func frameRecord(lsn uint64, op string, data []byte) []byte {
	frame := make([]byte, walHeaderSize, walHeaderSize+len(`{"lsn":,"op":"","data":}`)+20+len(op)+len(data))
	frame = append(frame, `{"lsn":`...)
	frame = strconv.AppendUint(frame, lsn, 10)
	frame = append(frame, `,"op":"`...)
	frame = append(frame, op...)
	frame = append(frame, `","data":`...)
	frame = append(frame, data...)
	frame = append(frame, '}')
	putFrameHeader(frame)
	return frame
}

// putFrameHeader fills the header room at the start of frame with the
// length and the CRC of the payload behind it.
func putFrameHeader(frame []byte) {
	body := frame[walHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
}

const walHeaderSize = 8

// maxWALRecord bounds the decoded length prefix so a corrupt header cannot
// trigger a gigantic allocation during recovery.
const maxWALRecord = 64 << 20

// log encodes r as the data of the partition's next record, frames it,
// writes the frame in a single call and syncs the sink. The record only
// counts as logged — and the caller may only apply it — when log returns
// nil. A record longer than recovery reads back (maxWALRecord) is refused
// before anything is written: written, it would be dropped at the next
// start as a corrupt tail, and every record behind it with it.
func (w *walWriter) log(op string, r any) error {
	if w.broken != nil {
		return fmt.Errorf("wal unavailable after earlier write failure: %w", w.broken)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding %s record: %w", op, err)
	}
	frame := frameRecord(w.lsn+1, op, data)
	if n := len(frame) - walHeaderSize; n > maxWALRecord {
		return fmt.Errorf("%s record of %d bytes exceeds the log's bound of %d", op, n, maxWALRecord)
	}
	if _, err := w.sink.Write(frame); err != nil {
		w.broken = err
		return fmt.Errorf("appending wal record: %w", err)
	}
	if err := w.sink.Sync(); err != nil {
		w.broken = err
		return fmt.Errorf("syncing wal: %w", err)
	}
	w.lsn++
	return nil
}

// frameAt parses the frame at the start of data and returns its payload,
// or what is wrong with it: a short header or payload (a torn write), an
// implausible length, a checksum mismatch.
func frameAt(data []byte) (body []byte, problem string) {
	if len(data) < walHeaderSize {
		return nil, fmt.Sprintf("torn wal tail (%d trailing bytes)", len(data))
	}
	length := int(binary.LittleEndian.Uint32(data[0:4]))
	if length <= 0 || length > maxWALRecord {
		return nil, fmt.Sprintf("corrupt wal tail (implausible record length %d)", length)
	}
	if len(data)-walHeaderSize < length {
		return nil, fmt.Sprintf("torn wal record (%d of %d payload bytes)", len(data)-walHeaderSize, length)
	}
	body = data[walHeaderSize : walHeaderSize+length]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, "corrupt wal tail (checksum mismatch)"
	}
	return body, ""
}

// decodeWAL decodes the framed records of one log image. It stops at the
// first torn or corrupt record — short header, short payload, length out of
// range, CRC mismatch, undecodable JSON, or an LSN break — logging a
// warning and returning everything before it, so a crash mid-append or a
// flipped bit costs at most the unacknowledged tail, never the boot.
func decodeWAL(data []byte, name string, logf func(string, ...any)) []walRecord {
	var recs []walRecord
	off := 0
	for off < len(data) {
		body, problem := frameAt(data[off:])
		if problem != "" {
			logf("repository: %s: dropping %s at offset %d", name, problem, off)
			break
		}
		var rec walRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			logf("repository: %s: dropping corrupt wal tail at offset %d (%v)", name, off, err)
			break
		}
		if n := len(recs); n > 0 && rec.LSN != recs[n-1].LSN+1 {
			logf("repository: %s: dropping wal tail at offset %d (lsn %d after %d)", name, off, rec.LSN, recs[n-1].LSN)
			break
		}
		recs = append(recs, rec)
		off += walHeaderSize + len(body)
	}
	return recs
}

// frameWalk steps over the intact frames of a log without decoding them, so
// compaction copies records as the bytes they are. The writer numbers a
// partition's records consecutively (walWriter.log), which decodeWAL checks
// on every recovery; only the first frame is therefore decoded, for its LSN,
// and every later frame's LSN follows from its position.
type frameWalk struct {
	off  int64  // file offset behind the last frame stepped over
	next uint64 // LSN of the frame at off; 0 until the first frame was seen
}

// span steps over the frames at the start of data — the log's bytes from
// w.off on — that carry an LSN of at most hi, and returns the byte range,
// within data, of those with an LSN above lo. It stops early at the first
// frame that is torn or corrupt, like recovery would.
func (w *frameWalk) span(data []byte, lo, hi uint64) (from, to int) {
	from = -1
	for {
		body, problem := frameAt(data[to:])
		if problem != "" {
			break
		}
		if w.next == 0 {
			var first struct {
				LSN uint64 `json:"lsn"`
			}
			if err := json.Unmarshal(body, &first); err != nil || first.LSN == 0 {
				break
			}
			w.next = first.LSN
		}
		if w.next > hi {
			break
		}
		if from < 0 && w.next > lo {
			from = to
		}
		to += walHeaderSize + len(body)
		w.next++
	}
	if from < 0 {
		from = to
	}
	w.off += int64(to)
	return from, to
}
