package jsonenc

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// Scanner reads JSON text that this package's appenders, or an encoder
// writing what they write, wrote. Each step consumes one piece; ok turns
// false at the first byte that is not what the step asked for, and every
// step after that is a no-op returning a zero value: the caller then
// decodes the text with encoding/json instead.
type Scanner struct {
	data []byte
	i    int
	ok   bool
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data, ok: true} }

// OK reports whether every step so far succeeded.
func (s *Scanner) OK() bool { return s.ok }

// Done reports whether every step succeeded and the text is used up.
func (s *Scanner) Done() bool { return s.ok && s.i == len(s.data) }

// Fail makes the scan fail, for a piece its caller checks further.
func (s *Scanner) Fail() { s.ok = false }

// Opt consumes lit when the text goes on with it.
func (s *Scanner) Opt(lit string) bool {
	if s.ok && len(s.data)-s.i >= len(lit) && string(s.data[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// Lit consumes lit, which must come next.
func (s *Scanner) Lit(lit string) {
	if !s.Opt(lit) {
		s.ok = false
	}
}

// Str consumes a string as AppendString writes one and returns it.
func (s *Scanner) Str() string {
	if !s.ok || s.i >= len(s.data) || s.data[s.i] != '"' {
		s.ok = false
		return ""
	}
	d := s.data
	j := s.i + 1
	for j < len(d) && d[j] < utf8.RuneSelf && safe[d[j]] {
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
		case c < utf8.RuneSelf && safe[c]:
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
// for and its length; n is 0 for an escape AppendString does not write.
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

// Plain consumes a string that holds no escape and nothing but printable
// ASCII — what every encoder writes for such a string, <, > and & aside,
// which one with HTML escaping on escapes — and returns its contents, which
// are the scanned text's own bytes.
func (s *Scanner) Plain() []byte {
	if !s.ok || s.i >= len(s.data) || s.data[s.i] != '"' {
		s.ok = false
		return nil
	}
	for j := s.i + 1; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			str := s.data[s.i+1 : j]
			s.i = j + 1
			return str
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
			return nil
		}
	}
	s.ok = false
	return nil
}

// Int consumes an integer as encoding/json writes one of the given bits: no
// leading zero, no -0, and in range.
func (s *Scanner) Int(bits int) int64 {
	if !s.ok {
		return 0
	}
	j := s.i
	if j < len(s.data) && s.data[j] == '-' {
		j++
	}
	digits := j
	var v int64
	for j < len(s.data) && '0' <= s.data[j] && s.data[j] <= '9' {
		v = v*10 + int64(s.data[j]-'0') // wraps only past 18 digits, parsed below
		j++
	}
	if digits > s.i {
		v = -v
	}
	switch n := s.data[s.i:j]; {
	case j == digits, s.data[digits] == '0' && j-s.i > 1:
		s.ok = false
	case j-digits >= bits*3/10: // as many digits as the largest value may have
		var err error
		v, err = strconv.ParseInt(string(n), 10, bits)
		s.ok = err == nil
	}
	s.i = j
	return v
}

// Float consumes a number as AppendFloat writes it.
func (s *Scanner) Float() float64 {
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
	b, finite := AppendFloat(again[:0], f)
	s.ok, s.i = err == nil && finite && bytes.Equal(b, text), j
	return f
}

// Object consumes a JSON object and returns its text. It only finds where
// the object ends; the caller's decoder reads, and checks, what it holds.
func (s *Scanner) Object() []byte {
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
