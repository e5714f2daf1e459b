package repository

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"

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
	return TraceJSON(canonicalJSON(qt))
}

// Decode returns the span tree; nil for an untraced result.
func (t TraceJSON) Decode() *trace.QueryTrace {
	if t == nil {
		return nil
	}
	var qt *trace.QueryTrace
	_ = json.Unmarshal(t, &qt) // canonical bytes always decode
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
	if *t == nil && canonicalTrace(data) {
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

// canonicalTrace reports whether data is what EncodeTrace writes for the
// trace it holds, by a test that is sure only of the common case: the
// fields in declaration order, compact, the counters that are zero left
// out, integers in their shortest form and in range, and strings of
// printable ASCII other than `"` and `\`, which no encoder escapes.
func canonicalTrace(data []byte) bool {
	c := scan{data: data, ok: true}
	c.lit(`{"schema_version":`)
	c.int(strconv.IntSize, false)
	if c.opt(`,"engine":`) {
		c.str(true)
	}
	c.lit(`,"spans":`)
	if !c.opt("null") {
		c.lit("[")
		for n := 0; c.ok && !c.opt("]"); n++ {
			if n > 0 {
				c.lit(",")
			}
			c.lit(`{"op":`)
			c.str(false)
			c.lit(`,"kind":`)
			c.str(false)
			c.lit(`,"wall_ns":`)
			c.int(64, false)
			c.lit(`,"rows":`)
			c.int(64, false)
			for _, key := range []string{`,"batches":`, `,"calls":`, `,"alloc_bytes":`, `,"blocks_skipped":`} {
				if c.opt(key) {
					c.int(64, true)
				}
			}
			c.lit("}")
		}
	}
	c.lit("}")
	return c.ok && c.i == len(data)
}

// scan walks canonical JSON text; ok turns false at the first byte that is
// not what was asked for, and every step after that is a no-op.
type scan struct {
	data []byte
	i    int
	ok   bool
}

// opt consumes s when the text goes on with it.
func (c *scan) opt(s string) bool {
	if c.ok && bytes.HasPrefix(c.data[c.i:], []byte(s)) {
		c.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which must come next.
func (c *scan) lit(s string) {
	if !c.opt(s) {
		c.ok = false
	}
}

// str consumes a string of printable ASCII other than `"` and `\`, not
// empty when nonempty is set.
func (c *scan) str(nonempty bool) {
	if !c.ok {
		return
	}
	s, next := plainString(c.data, c.i)
	c.ok, c.i = next >= 0 && (len(s) > 0 || !nonempty), next
}

// int consumes an integer as encoding/json writes one of the given bits: no
// leading zero, no -0, in range, and not 0 when nonzero is set.
func (c *scan) int(bits int, nonzero bool) {
	if !c.ok {
		return
	}
	j := c.i
	if j < len(c.data) && c.data[j] == '-' {
		j++
	}
	digits := j
	for j < len(c.data) && '0' <= c.data[j] && c.data[j] <= '9' {
		j++
	}
	switch n := c.data[c.i:j]; {
	case j == digits, c.data[digits] == '0' && (j-c.i > 1 || nonzero):
		c.ok = false
	case j-digits >= bits*3/10: // as many digits as the largest value may have
		_, err := strconv.ParseInt(string(n), 10, bits)
		c.ok = err == nil
	}
	c.i = j
}

// JSON returns the row as the results page serves it: what json.NewEncoder
// — HTML escaping on — writes for the row, without the trailing newline.
// The bytes are built once, when the row enters a shard (seal), and belong
// to the row: the caller must not change them.
func (r *Result) JSON() []byte { return r.sealed }

// sealBuffers hold the rows seal encodes before it copies them out.
var sealBuffers = sync.Pool{New: func() any { return new([]byte) }}

// seal builds the bytes JSON returns. A row is sealed where it enters a
// shard — a live add, a batch completion, recovery — and again when
// moderation copies it with another hidden flag, never after another
// reader can see it. Extra and Trace are pointed into the sealed bytes,
// with their capacity clipped, when they stand there verbatim: when they
// hold no <, > or &, which the page escapes. The row then keeps one copy
// of them.
func (r *Result) seal() {
	bp := sealBuffers.Get().(*[]byte)
	b, extra, spans := r.appendJSON((*bp)[:0])
	sealed := bytes.Clone(b)
	*bp = b
	sealBuffers.Put(bp)
	if extra > 0 && verbatim(r.Extra) {
		r.Extra = Extras(sealed[extra : extra+len(r.Extra) : extra+len(r.Extra)])
	}
	if spans > 0 && verbatim(r.Trace) {
		r.Trace = TraceJSON(sealed[spans : spans+len(r.Trace) : spans+len(r.Trace)])
	}
	r.sealed = sealed
}

// verbatim reports whether an encoder with HTML escaping on writes the
// canonical bytes b as they are.
func verbatim(b []byte) bool {
	return bytes.IndexByte(b, '<') < 0 && bytes.IndexByte(b, '>') < 0 && bytes.IndexByte(b, '&') < 0
}

// appendJSON appends the row as the results page serves it: what
// json.NewEncoder — HTML escaping on — writes for the row, without the
// trailing newline. It encodes the fields itself and appends the extras and
// the span tree as they are held, escaping the <, > and & they may hold, so
// a row costs no reflection, no compaction and — its strings plain ASCII —
// no allocation. A second that is not finite, which no JSON text carries
// and a durable store never records, is written as null. extra and spans
// are where the extras and the span tree begin in the bytes appended, 0
// when the row has none. It is the sealer's encoder, and the tests'.
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
	dst = appendString(dst, r.ContributorKey)
	dst = append(dst, `,"dbms_key":`...)
	dst = appendString(dst, r.DBMSKey)
	dst = append(dst, `,"platform_key":`...)
	dst = appendString(dst, r.PlatformKey)
	if len(r.Seconds) > 0 {
		dst = append(dst, `,"seconds":[`...)
		for i, s := range r.Seconds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, s)
		}
		dst = append(dst, ']')
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	if len(r.Extra) > 0 {
		dst = append(dst, `,"extra":`...)
		extra = len(dst)
		dst = appendHTMLSafe(dst, r.Extra)
	}
	if len(r.Trace) > 0 {
		dst = append(dst, `,"trace":`...)
		spans = len(dst)
		dst = appendHTMLSafe(dst, r.Trace)
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

// appendString appends s as encoding/json writes a string with HTML
// escaping on. Printable ASCII other than " \ < > & is written as it is;
// any other string is left to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal, in exponent form below 1e-6 and from 1e21 on, with a one-digit
// negative exponent written without its leading zero.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendHTMLSafe appends canonical JSON bytes as an encoder with HTML
// escaping on writes them: <, > and &, which can only stand inside a
// string, become \u003c, \u003e and \u0026.
func appendHTMLSafe(dst, b []byte) []byte {
	if verbatim(b) {
		return append(dst, b...)
	}
	for _, c := range b {
		switch c {
		case '<':
			dst = append(dst, `\u003c`...)
		case '>':
			dst = append(dst, `\u003e`...)
		case '&':
			dst = append(dst, `\u0026`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
