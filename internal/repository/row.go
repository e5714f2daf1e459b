package repository

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"sqalpel/internal/jsonenc"
	"sqalpel/internal/trace"
)

// TraceJSON is a result's per-operator span tree held, like its Extras, as
// the one JSON object it always serialises to: the row keeps one byte slice
// instead of a trace, its spans and their strings, and the results page
// appends the bytes instead of encoding the spans again. nil means the
// result was measured without tracing; a value is never changed in place.
//
// The bytes are canonical: what a json.Encoder with SetEscapeHTML(false)
// writes for the trace.QueryTrace, without the trailing newline. As with
// Extras, every sink's encoder compacts what MarshalJSON returns with its
// own escaping, so each writes what it wrote for the decoded trace.
type TraceJSON []byte

// EncodeTrace returns the canonical form of qt; nil when qt is nil. It is
// the one encoder of span trees.
func EncodeTrace(qt *trace.QueryTrace) TraceJSON {
	if qt == nil {
		return nil
	}
	return TraceJSON(canonicalJSON(validTrace(qt)))
}

// validTrace returns qt, or a copy with its invalid UTF-8 replaced
// (validUTF8) when its strings hold any.
func validTrace(qt *trace.QueryTrace) *trace.QueryTrace {
	valid := utf8.ValidString(qt.Engine)
	for i := range qt.Spans {
		valid = valid && utf8.ValidString(qt.Spans[i].OpID) && utf8.ValidString(qt.Spans[i].Kind)
	}
	if valid {
		return qt
	}
	cp := *qt
	cp.Engine = validUTF8(qt.Engine)
	cp.Spans = slices.Clone(qt.Spans)
	for i := range cp.Spans {
		cp.Spans[i].OpID, cp.Spans[i].Kind = validUTF8(cp.Spans[i].OpID), validUTF8(cp.Spans[i].Kind)
	}
	return &cp
}

// Decode returns the span tree; nil for an untraced result. It is
// trace.ParseTrace's tree: canonical bytes, which a stored trace almost
// always is, are read by trace.ScanCanonical instead of by encoding/json.
func (t TraceJSON) Decode() *trace.QueryTrace {
	if t == nil {
		return nil
	}
	qt, _ := trace.ParseTrace(t) // stored bytes always decode
	return qt
}

// MarshalJSON returns the canonical bytes, or null for no trace.
func (t TraceJSON) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return t, nil
}

// UnmarshalJSON accepts exactly what decoding into a *trace.QueryTrace
// accepts, fails with the same errors and keeps its meaning: null means no
// trace, and a second object decoded into the same value adds to it. What
// it stores is the canonical encoding of the decoded trace, whatever the
// spacing, field order or unknown fields of data. Data that is canonical
// already — what a driver's json.Marshal sends and what recovery reads back
// — is copied as it is; anything else is decoded and encoded again.
func (t *TraceJSON) UnmarshalJSON(data []byte) error {
	if *t == nil && trace.ScanCanonical(data, nil) {
		*t = TraceJSON(bytes.Clone(data))
		return nil
	}
	qt := t.Decode()
	if err := json.Unmarshal(data, &qt); err != nil {
		return err
	}
	*t = EncodeTrace(qt)
	return nil
}

// JSON returns the row as the results page serves it: what json.NewEncoder
// — HTML escaping on — writes for the row, without the trailing newline.
// The bytes are built once, when the row enters a shard (seal), and belong
// to the row: the caller must not change them.
func (r *Result) JSON() []byte { return r.blk.buf[r.off:r.end:r.end] }

// SealedRun returns the longest prefix of rows whose sealed bytes lie back
// to back in one arena block, as one slice — each row followed by "\n,",
// which is how a results page separates its rows — and how many rows it
// holds. rows must not be empty. The bytes are the rows' own: the caller
// must not change them.
func SealedRun(rows []*Result) (run []byte, n int) {
	first := rows[0]
	end := first.end + len(rowSep)
	for n = 1; n < len(rows) && rows[n].blk == first.blk && rows[n].off == end; n++ {
		end = rows[n].end + len(rowSep)
	}
	return first.blk.buf[first.off:end:end], n
}

// rowSep follows every row sealed into an arena.
const rowSep = "\n,"

// arenaBlockSize is the size of an arena block, and so the most bytes one
// SealedRun hands a results page at once.
const arenaBlockSize = 64 << 10

// An arena holds the rows one project has in a shard, sealed back to back
// in the order they were sealed, each followed by rowSep, in blocks of
// arenaBlockSize that are only ever appended to: a results page sends the
// rows that follow each other in a block as one slice (SealedRun) instead
// of copying them. A byte once written never changes, so a reader outside
// the shard lock reads the rows it was handed while the shard appends
// behind them. A row that moderation hides, shows or deletes leaves its
// bytes dead in its block, and a block lives as long as any row points into
// it: until a restart seals only the live rows again, a moderated row costs
// its bytes twice and a deleted one keeps its own. A row longer than a
// block gets a block of its own. The arena is the shard's, and changes
// only under the shard's write lock.
type arena struct {
	blk  *arenaBlock // the block being filled; nil before the first row
	used int
}

// arenaBlock is one block of an arena; buf is never resliced.
type arenaBlock struct{ buf []byte }

// put copies row, followed by rowSep, into the arena and returns where the
// row's bytes stand.
func (a *arena) put(row []byte) (blk *arenaBlock, off int) {
	n := len(row) + len(rowSep)
	if n > arenaBlockSize {
		blk = &arenaBlock{buf: make([]byte, n)}
		copy(blk.buf[copy(blk.buf, row):], rowSep)
		return blk, 0
	}
	if a.blk == nil || a.used+n > len(a.blk.buf) {
		a.blk, a.used = &arenaBlock{buf: make([]byte, arenaBlockSize)}, 0
	}
	blk, off = a.blk, a.used
	copy(blk.buf[off+copy(blk.buf[off:], row):], rowSep)
	a.used += n
	return blk, off
}

// sealBuffers hold the rows seal encodes before it copies them out.
var sealBuffers = sync.Pool{New: func() any { return new([]byte) }}

// seal builds the bytes JSON returns, in the arena a: the arena of the
// row's project in its shard. A row is sealed where it enters a shard — a
// live add, a batch completion, recovery — and again when moderation copies
// it with another hidden flag, never after another reader can see it.
// Extra and Trace are pointed into the sealed bytes, with their capacity
// clipped, when they stand there verbatim: when they hold no <, > or &,
// which the page escapes. The row then keeps one copy of them.
func (r *Result) seal(a *arena) {
	bp := sealBuffers.Get().(*[]byte)
	b, extra, spans := r.appendJSON((*bp)[:0])
	r.blk, r.off = a.put(b)
	r.end = r.off + len(b)
	*bp = b
	sealBuffers.Put(bp)
	sealed := r.JSON()
	if extra > 0 && jsonenc.Verbatim(r.Extra) {
		r.Extra = Extras(sealed[extra : extra+len(r.Extra) : extra+len(r.Extra)])
	}
	if spans > 0 && jsonenc.Verbatim(r.Trace) {
		r.Trace = TraceJSON(sealed[spans : spans+len(r.Trace) : spans+len(r.Trace)])
	}
}

// appendJSON appends the row as the results page serves it: what
// json.NewEncoder — HTML escaping on — writes for the row, without the
// trailing newline. It encodes the fields itself and appends the extras and
// the span tree as they are held, escaping the <, > and & they may hold, so
// a row costs no reflection, no compaction and no allocation (package
// jsonenc writes each value as encoding/json does). A second that is not
// finite, which no JSON text carries and a durable store never records, is
// written as null. extra and spans are where the extras and the span tree
// begin in the bytes appended, 0 when the row has none. It is the sealer's
// encoder, and the tests'.
func (r *Result) appendJSON(dst []byte) (row []byte, extra, spans int) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(r.ID), 10)
	dst = append(dst, `,"project_id":`...)
	dst = strconv.AppendInt(dst, int64(r.ProjectID), 10)
	dst = append(dst, `,"experiment_id":`...)
	dst = strconv.AppendInt(dst, int64(r.ExperimentID), 10)
	dst = append(dst, `,"query_id":`...)
	dst = strconv.AppendInt(dst, int64(r.QueryID), 10)
	dst = append(dst, `,"contributor_key":`...)
	dst = jsonenc.AppendString(dst, r.ContributorKey)
	dst = append(dst, `,"dbms_key":`...)
	dst = jsonenc.AppendString(dst, r.DBMSKey)
	dst = append(dst, `,"platform_key":`...)
	dst = jsonenc.AppendString(dst, r.PlatformKey)
	if len(r.Seconds) > 0 {
		dst = append(dst, `,"seconds":[`...)
		for i, s := range r.Seconds {
			if i > 0 {
				dst = append(dst, ',')
			}
			var finite bool
			if dst, finite = jsonenc.AppendFloat(dst, s); !finite {
				dst = append(dst, "null"...)
			}
		}
		dst = append(dst, ']')
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonenc.AppendString(dst, r.Error)
	}
	if len(r.Extra) > 0 {
		dst = append(dst, `,"extra":`...)
		extra = len(dst)
		dst = jsonenc.AppendHTMLSafe(dst, r.Extra)
	}
	if len(r.Trace) > 0 {
		dst = append(dst, `,"trace":`...)
		spans = len(dst)
		dst = jsonenc.AppendHTMLSafe(dst, r.Trace)
	}
	if r.Hidden {
		dst = append(dst, `,"hidden":true`...)
	} else {
		dst = append(dst, `,"hidden":false`...)
	}
	dst = append(dst, `,"created":"`...)
	dst = r.Created.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, `"}`...), extra, spans
}
