package repository

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// A shard's history is the append-only file of its immutable rows: result
// rows (a row never changes once it is in, see shard.results) and tasks
// once they settled (done, failed, timed out or killed — never touched
// again). It is a sequence of frames in the log's own framing (frameAt),
// each frame one JSON historyFrame; a checkpoint appends the rows that
// arrived since the previous one, as one frame or, past historyFrameRows,
// a few. A snapshot records how long a prefix of which history file it
// covers (historyRef), so what a checkpoint writes follows the work since
// the last checkpoint, not what the shard holds.
//
// A moderation rewrites an old row (hide builds a new one, delete drops it),
// so the next checkpoint starts the next file, <part>.hist.<k+1>, and puts
// every row in it. A new generation starts its files the same way: it is
// the same append from an empty history. Otherwise the two retained
// snapshots name prefixes of one file, so the frames both cover exist once:
// recovery refuses a store whose shared frames are damaged
// (Store.loadGeneration) rather than boot without their rows.

// historyRef is what a snapshot records of its shard's history: the file,
// relative to the generation directory, and the length of the prefix the
// snapshot covers. Bytes past it belong to a later checkpoint and are
// ignored; the log still holds their records.
type historyRef struct {
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
}

// historyFrame is the payload of one history frame.
type historyFrame struct {
	Results []*Result `json:"results,omitempty"`
	Tasks   []*Task   `json:"tasks,omitempty"`
}

// historyFrameRows is how many rows a frame holds at most; the rows go on
// in the next. It bounds the buffer a frame is built in: a new generation
// writes every row of every shard, and frames of megabytes there raised the
// process's peak memory by tens of megabytes (EXPERIMENTS "Incremental
// checkpoints"). A result or a task with its SQL is about 0.8 KB of JSON, a
// traced result more, so a frame is 100–320 KB on the drain benchmarks; a
// checkpoint's rows are a few frames.
const historyFrameRows = 128

func histPath(genDir, part string, k int) string {
	return filepath.Join(genDir, fmt.Sprintf("%s.hist.%d", part, k))
}

// history is where a shard's history stands: the file that takes the next
// frame, its length, and how many of the shard's results and settled tasks
// it holds. Only persistence touches it, under the store's persistMu.
type history struct {
	file int     // k of <part>.hist.<k>; 0 before the first file
	sink walSink // open on the file; nil when the next frame starts a new one
	// bytes is the file's length; results and settled count the rows of the
	// shard it holds, prefixes of shard.results and shard.settled.
	bytes            int64
	results, settled int
	// rewrites is the shard's moderation count the file's rows agree with.
	rewrites uint64
	// named maps the lsn of each snapshot written in this generation to the
	// history file it names, so pruning knows which files are still needed;
	// writeGeneration starts it with the generation's first snapshot.
	named map[uint64]int
}

// extend brings the history up to a captured image and returns what the
// image's snapshot records of it. Without a file, after a failed write or
// after a moderation, a new file is started with every row of the image;
// otherwise the rows the file does not hold yet are appended — none, and
// nothing is written. The frames are synced before extend returns. The
// image is immutable (captureLocked), so no lock is held.
func (h *history) extend(create walSinkFactory, genDir, part string, img image) (*historyRef, error) {
	if h.sink == nil || img.rewrites != h.rewrites {
		h.close()
		sink, err := create(histPath(genDir, part, h.file+1))
		if err != nil {
			return nil, err
		}
		*h = history{file: h.file + 1, sink: sink, rewrites: img.rewrites, named: h.named}
	}
	n, err := writeFrames(h.sink, img.results[h.results:], img.settled[h.settled:])
	if err == nil && n > 0 {
		err = h.sink.Sync()
	}
	if err != nil {
		h.close() // the file may end in part of a frame; the next extend starts a new one
		return nil, err
	}
	h.bytes += n
	h.results, h.settled = len(img.results), len(img.settled)
	return &historyRef{File: filepath.Base(histPath(genDir, part, h.file)), Bytes: h.bytes}, nil
}

func (h *history) close() {
	if h.sink != nil {
		_ = h.sink.Close() // every frame that counts was synced
		h.sink = nil
	}
}

// prune records that the snapshot at lsn names the current file and removes
// the files no retained snapshot names; retained lists the lsns of the
// partition's snapshots that were kept. A retained snapshot this store did
// not write keeps every file.
func (h *history) prune(genDir, part string, lsn uint64, retained []uint64) {
	h.named[lsn] = h.file
	keep, named := h.file, make(map[uint64]int, len(retained))
	for _, l := range retained {
		k, ok := h.named[l]
		if !ok {
			return
		}
		keep, named[l] = min(keep, k), k
	}
	h.named = named
	for _, k := range numberedFiles(genDir, part+".hist.", "") {
		if int(k) < keep {
			_ = os.Remove(histPath(genDir, part, int(k)))
		}
	}
}

// writeFrames encodes the rows as frames of up to historyFrameRows rows,
// results first, and writes each in one call; it returns the bytes written.
// A frame is the header's room, then the historyFrame object built by the
// snapshot's own list encoder. A frame whose payload passes maxWALRecord,
// the longest recovery reads back, is encoded again with half its rows; a
// single row that long, which the log's own bound keeps a row from
// becoming, would still get a frame of its own.
func writeFrames(w io.Writer, results []*Result, tasks []*Task) (int64, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // tasks carry SQL, full of < and >
	var written int64
	for rows := historyFrameRows; len(results)+len(tasks) > 0; {
		rs := results[:min(len(results), rows)]
		ts := tasks[:min(len(tasks), rows-len(rs))]
		buf.Reset()
		buf.Write(make([]byte, walHeaderSize))
		buf.WriteByte('{')
		if err := errors.Join(encodeList(&buf, enc, "results", rs), encodeList(&buf, enc, "tasks", ts)); err != nil {
			return written, err
		}
		buf.Truncate(buf.Len() - 1) // the comma encodeList puts after a list
		buf.WriteByte('}')
		if n := len(rs) + len(ts); n > 1 && buf.Len()-walHeaderSize > maxWALRecord {
			rows = n / 2
			continue
		}
		results, tasks, rows = results[len(rs):], tasks[len(ts):], historyFrameRows
		frame := buf.Bytes()
		putFrameHeader(frame)
		n, err := w.Write(frame)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// read decodes the history prefix the reference names, whole or not at all:
// every frame up to Bytes must be intact and hold no null row, and the
// prefix must end on a frame boundary.
func (ref historyRef) read(genDir string) ([]*Result, []*Task, error) {
	if ref.File != filepath.Base(ref.File) || ref.Bytes < 0 {
		return nil, nil, fmt.Errorf("history reference %+v", ref)
	}
	if ref.Bytes == 0 {
		return nil, nil, nil
	}
	f, err := os.Open(filepath.Join(genDir, ref.File))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return readFrames(bufio.NewReaderSize(f, 64<<10), ref.Bytes, ref.File)
}

// readFrames decodes the frames of the first size bytes r yields; a frame
// reaching past them is torn.
func readFrames(r io.Reader, size int64, name string) ([]*Result, []*Task, error) {
	r = io.LimitReader(r, size)
	var results []*Result
	var tasks []*Task
	var buf bytes.Buffer
	for off := int64(0); off < size; {
		body, problem := nextFrame(r, &buf)
		if problem != "" {
			return nil, nil, fmt.Errorf("%s: %s at offset %d", name, problem, off)
		}
		var fr historyFrame
		err := json.Unmarshal(body, &fr)
		if err == nil && (slices.Contains(fr.Results, nil) || slices.Contains(fr.Tasks, nil)) {
			err = errNullRow
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: frame at offset %d: %w", name, off, err)
		}
		results = append(results, fr.Results...)
		tasks = append(tasks, fr.Tasks...)
		off += int64(walHeaderSize + len(body))
	}
	return results, tasks, nil
}

// nextFrame reads the frame at r's position into buf and returns its
// payload, or what frameAt finds wrong with it. buf grows with the bytes
// that arrive, not with what a damaged header claims.
func nextFrame(r io.Reader, buf *bytes.Buffer) (body []byte, problem string) {
	buf.Reset()
	if _, err := io.CopyN(buf, r, walHeaderSize); err == nil {
		if length := binary.LittleEndian.Uint32(buf.Bytes()); length <= maxWALRecord {
			_, _ = io.CopyN(buf, r, int64(length)) // a short payload is what frameAt reports
		}
	}
	return frameAt(buf.Bytes())
}
