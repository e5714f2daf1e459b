package wire

import (
	"bytes"
	"strconv"
	"time"

	"sqalpel/internal/jsonenc"
)

// appendInt appends v as encoding/json writes an int.
func appendInt(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

// appendTime appends t as time.Time's MarshalJSON writes it: RFC 3339 with
// nanoseconds, quoted. ok is false for a time MarshalJSON refuses, one
// whose year has not four digits or whose zone is a day or more off UTC.
func appendTime(dst []byte, t time.Time) (out []byte, ok bool) {
	_, offset := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || offset <= -24*3600 || offset >= 24*3600 {
		return dst, false
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), true
}

// scanTime consumes a time as appendTime writes it.
func scanTime(s *jsonenc.Scanner) time.Time {
	text := s.Plain()
	t, err := time.Parse(time.RFC3339, string(text)) // fails on a failed scan's nil
	var again [48]byte
	b, ok := appendTime(again[:0], t)
	if err != nil || !ok || !bytes.Equal(b[1:len(b)-1], text) {
		s.Fail()
	}
	return t
}
