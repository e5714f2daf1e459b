package trace

import (
	"bytes"
	"strconv"
)

// ScanCanonical reports whether data is the canonical JSON of the trace it
// holds — what a json.Encoder with SetEscapeHTML(false) writes for it, and
// what QueryTrace.JSON writes for a trace whose strings hold no <, > or & —
// by a test that is sure only of the common case: the fields in declaration
// order, compact, the counters that are zero left out, integers in their
// shortest form and in range, and strings of printable ASCII other than `"`
// and `\`, which no encoder escapes. Unless qt is nil it also decodes the
// trace into qt, which then holds what json.Unmarshal makes of the bytes
// when they pass; when they do not, qt holds a part of them.
func ScanCanonical(data []byte, qt *QueryTrace) bool {
	c := scan{data: data, ok: true, decode: qt != nil}
	if qt == nil {
		qt = new(QueryTrace) // scratch: its strings and spans are left out
	}
	c.lit(`{"schema_version":`)
	qt.SchemaVersion = int(c.int(strconv.IntSize, false))
	if c.opt(`,"engine":`) {
		qt.Engine = c.str(true)
	}
	c.lit(`,"spans":`)
	if !c.opt("null") {
		c.lit("[")
		if c.decode {
			qt.Spans = []Span{}
		}
		for n := 0; c.ok && !c.opt("]"); n++ {
			if n > 0 {
				c.lit(",")
			}
			var sp Span
			c.lit(`{"op":`)
			sp.OpID = c.str(false)
			c.lit(`,"kind":`)
			sp.Kind = c.str(false)
			c.lit(`,"wall_ns":`)
			sp.WallNS = c.int(64, false)
			c.lit(`,"rows":`)
			sp.Rows = c.int(64, false)
			for _, f := range []struct {
				key string
				to  *int64
			}{{`,"batches":`, &sp.Batches}, {`,"calls":`, &sp.Calls}, {`,"alloc_bytes":`, &sp.AllocBytes}, {`,"blocks_skipped":`, &sp.BlocksSkipped}} {
				if c.opt(f.key) {
					*f.to = c.int(64, true)
				}
			}
			c.lit("}")
			if c.decode {
				qt.Spans = append(qt.Spans, sp)
			}
		}
	}
	c.lit("}")
	return c.ok && c.i == len(data)
}

// scan walks canonical JSON text; ok turns false at the first byte that is
// not what was asked for, and every step after that is a no-op. With
// decode set, str returns the strings it consumes.
type scan struct {
	data   []byte
	i      int
	ok     bool
	decode bool
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
// empty when nonempty is set, and returns it when decoding.
func (c *scan) str(nonempty bool) string {
	if !c.ok {
		return ""
	}
	s, next := plainString(c.data, c.i)
	c.ok, c.i = next >= 0 && (len(s) > 0 || !nonempty), next
	if !c.ok || !c.decode {
		return ""
	}
	return string(s)
}

// int consumes an integer as encoding/json writes one of the given bits: no
// leading zero, no -0, in range, and not 0 when nonzero is set. It returns
// the integer.
func (c *scan) int(bits int, nonzero bool) int64 {
	if !c.ok {
		return 0
	}
	j := c.i
	if j < len(c.data) && c.data[j] == '-' {
		j++
	}
	digits := j
	var v int64
	for j < len(c.data) && '0' <= c.data[j] && c.data[j] <= '9' {
		v = v*10 + int64(c.data[j]-'0') // wraps only past 18 digits, parsed below
		j++
	}
	if digits > c.i {
		v = -v
	}
	switch n := c.data[c.i:j]; {
	case j == digits, c.data[digits] == '0' && (j-c.i > 1 || nonzero):
		c.ok = false
	case j-digits >= bits*3/10: // as many digits as the largest value may have
		var err error
		v, err = strconv.ParseInt(string(n), 10, bits)
		c.ok = err == nil
	}
	c.i = j
	return v
}

// plainString returns the contents of the JSON string at data[i] and the
// position behind it, or next -1 when there is no string there or it holds
// an escape or a byte outside printable ASCII. The repository keeps a copy
// for its extras.
func plainString(data []byte, i int) (s []byte, next int) {
	if i >= len(data) || data[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}
