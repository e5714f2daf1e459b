package trace

import (
	"strconv"

	"sqalpel/internal/jsonenc"
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
	decode := qt != nil
	if !decode {
		qt = new(QueryTrace) // scratch: its strings and spans are left out
	}
	s := jsonenc.NewScanner(data)
	// str consumes a plain string, not empty when nonempty is set, and
	// returns it when decoding.
	str := func(nonempty bool) string {
		b := s.Plain()
		if nonempty && len(b) == 0 {
			s.Fail()
		}
		if !decode {
			return ""
		}
		return string(b)
	}
	s.Lit(`{"schema_version":`)
	qt.SchemaVersion = int(s.Int(strconv.IntSize))
	if s.Opt(`,"engine":`) {
		qt.Engine = str(true)
	}
	s.Lit(`,"spans":`)
	if !s.Opt("null") {
		s.Lit("[")
		if decode {
			qt.Spans = []Span{}
		}
		for n := 0; s.OK() && !s.Opt("]"); n++ {
			if n > 0 {
				s.Lit(",")
			}
			var sp Span
			s.Lit(`{"op":`)
			sp.OpID = str(false)
			s.Lit(`,"kind":`)
			sp.Kind = str(false)
			s.Lit(`,"wall_ns":`)
			sp.WallNS = s.Int(64)
			s.Lit(`,"rows":`)
			sp.Rows = s.Int(64)
			for _, f := range []struct {
				key string
				to  *int64
			}{{`,"batches":`, &sp.Batches}, {`,"calls":`, &sp.Calls}, {`,"alloc_bytes":`, &sp.AllocBytes}, {`,"blocks_skipped":`, &sp.BlocksSkipped}} {
				if s.Opt(f.key) {
					if *f.to = s.Int(64); *f.to == 0 {
						s.Fail() // omitempty leaves a zero out
					}
				}
			}
			s.Lit("}")
			if decode {
				qt.Spans = append(qt.Spans, sp)
			}
		}
	}
	s.Lit("}")
	return s.Done()
}
