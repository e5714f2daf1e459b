// Package jsonenc writes and reads JSON values exactly as encoding/json
// writes them with HTML escaping on — json.Marshal, and a json.Encoder not
// told otherwise — without reflection. The platform's result rows and the
// driver protocol's forms (internal/wire) are appended by hand from these
// pieces, and their tests hold them to encoding/json. Scanner reads such
// text back, and the canonical bytes of span trees and extras too: the
// driver protocol's scanners, trace.ScanCanonical and the repository's
// test of canonical extras are built of its steps, each a fast path in
// front of encoding/json, which stays the fallback and the oracle.
package jsonenc

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe marks the ASCII bytes a string holds as they are: everything from
// the space up but `"`, `\` and the HTML-escaped <, > and &.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string, escaped as encoding/json escapes
// it: the short escapes for `"`, `\`, \b, \f, \n, \r and \t; \u00XX for the
// other control bytes and for <, > and &; \ufffd for each byte of invalid
// UTF-8; \u2028 and \u2029 for the two separators JavaScript refuses raw.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal, in exponent form below 1e-6 and from 1e21 on, with a one-digit
// negative exponent written without its leading zero. ok is false for a
// value JSON has no text for (NaN, ±Inf), which encoding/json refuses.
func AppendFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
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
	return dst, true
}

// AppendHTMLSafe appends compact JSON text whose strings hold only ASCII
// as an encoder with HTML escaping on writes it: <, > and &, which can only
// stand inside a string, become \u003c, \u003e and \u0026.
func AppendHTMLSafe(dst, b []byte) []byte {
	if Verbatim(b) {
		return append(dst, b...) // the common case
	}
	for {
		i := bytes.IndexAny(b, "<>&")
		if i < 0 {
			return append(dst, b...)
		}
		dst = append(dst, b[:i]...)
		dst = append(dst, '\\', 'u', '0', '0', hex[b[i]>>4], hex[b[i]&0xF])
		b = b[i+1:]
	}
}

// Verbatim reports whether AppendHTMLSafe appends b as it is: whether b
// holds no <, > or &, found by three vectorised scans.
func Verbatim(b []byte) bool {
	return bytes.IndexByte(b, '<') < 0 && bytes.IndexByte(b, '>') < 0 && bytes.IndexByte(b, '&') < 0
}
