package wire

import (
	"bytes"
	"strconv"
	"time"
	"unicode/utf8"

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

// scan reads JSON text that one of this package's appenders wrote. ok
// turns false at the first byte that is not what the appender would have
// written there, and every step after that is a no-op returning a zero
// value: the caller then decodes the text with encoding/json instead.
type scan struct {
	data []byte
	i    int
	ok   bool
}

func newScan(data []byte) *scan { return &scan{data: data, ok: true} }

// done reports whether every step succeeded and the text is used up.
func (s *scan) done() bool { return s.ok && s.i == len(s.data) }

// opt consumes lit when the text goes on with it.
func (s *scan) opt(lit string) bool {
	if s.ok && len(s.data)-s.i >= len(lit) && string(s.data[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit, which must come next.
func (s *scan) lit(lit string) {
	if !s.opt(lit) {
		s.ok = false
	}
}

// str consumes a string as jsonenc.AppendString writes one and returns it.
func (s *scan) str() string {
	if !s.ok || s.i >= len(s.data) || s.data[s.i] != '"' {
		s.ok = false
		return ""
	}
	d := s.data
	j := s.i + 1
	for j < len(d) && jsonenc.Safe(d[j]) {
		j++
	}
	if j < len(d) && d[j] == '"' {
		str := string(d[s.i+1 : j])
		s.i = j + 1
		return str
	}
	buf := append([]byte(nil), d[s.i+1:j]...)
	for j < len(d) {
		c := d[j]
		switch {
		case c == '"':
			s.i = j + 1
			return string(buf)
		case jsonenc.Safe(c):
			buf = append(buf, c)
			j++
		case c == '\\':
			r, n := escape(d[j:])
			if n == 0 {
				s.ok = false
				return ""
			}
			buf = utf8.AppendRune(buf, r)
			j += n
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d[j:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				s.ok = false
				return ""
			}
			buf = append(buf, d[j:j+size]...)
			j += size
		default: // a raw control byte, <, > or &
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// escape reads the escape at the start of b and returns the rune it stands
// for and its length; n is 0 for an escape jsonenc.AppendString does not
// write.
func escape(b []byte) (r rune, n int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		for _, c := range b[2:6] {
			switch {
			case '0' <= c && c <= '9':
				r = r<<4 | rune(c-'0')
			case 'a' <= c && c <= 'f':
				r = r<<4 | rune(c-'a'+10)
			default:
				return 0, 0
			}
		}
		switch {
		case r < ' ' && r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t',
			r == '<', r == '>', r == '&', r == '\u2028', r == '\u2029', r == utf8.RuneError:
			return r, 6
		}
	}
	return 0, 0
}

// int consumes an integer as encoding/json writes an int: no leading zero,
// no -0, and in range.
func (s *scan) int() int {
	if !s.ok {
		return 0
	}
	j := s.i
	if j < len(s.data) && s.data[j] == '-' {
		j++
	}
	digits := j
	for j < len(s.data) && '0' <= s.data[j] && s.data[j] <= '9' {
		j++
	}
	if j == digits || (s.data[digits] == '0' && j-s.i > 1) {
		s.ok = false
		return 0
	}
	v, err := strconv.ParseInt(string(s.data[s.i:j]), 10, strconv.IntSize)
	s.ok, s.i = err == nil, j
	return int(v)
}

// float consumes a number as jsonenc.AppendFloat writes it.
func (s *scan) float() float64 {
	if !s.ok {
		return 0
	}
	j := s.i
	for j < len(s.data) && bytes.IndexByte([]byte("0123456789-+.e"), s.data[j]) >= 0 {
		j++
	}
	text := s.data[s.i:j]
	f, err := strconv.ParseFloat(string(text), 64)
	var again [32]byte
	b, finite := jsonenc.AppendFloat(again[:0], f)
	s.ok, s.i = err == nil && finite && bytes.Equal(b, text), j
	return f
}

// time consumes a time as appendTime writes it.
func (s *scan) time() time.Time {
	if !s.ok || s.i >= len(s.data) || s.data[s.i] != '"' {
		s.ok = false
		return time.Time{}
	}
	end := bytes.IndexByte(s.data[s.i+1:], '"')
	if end < 0 {
		s.ok = false
		return time.Time{}
	}
	text := s.data[s.i : s.i+end+2]
	t, err := time.Parse(time.RFC3339, string(text[1:len(text)-1]))
	var again [48]byte
	b, ok := appendTime(again[:0], t)
	s.ok, s.i = err == nil && ok && bytes.Equal(b, text), s.i+len(text)
	return t
}

// object consumes a JSON object and returns its text. It only finds where
// the object ends; the caller's decoder reads, and checks, what it holds.
func (s *scan) object() []byte {
	if !s.ok || s.i >= len(s.data) || s.data[s.i] != '{' {
		s.ok = false
		return nil
	}
	depth := 0
	for j := s.i; j < len(s.data); j++ {
		switch s.data[j] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				obj := s.data[s.i : j+1]
				s.i = j + 1
				return obj
			}
		case '"':
			for j++; j < len(s.data) && s.data[j] != '"'; j++ {
				if s.data[j] == '\\' {
					j++
				}
			}
		}
	}
	s.ok = false
	return nil
}
