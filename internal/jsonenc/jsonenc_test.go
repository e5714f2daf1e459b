package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestAppendMatchesMarshal holds the appenders to json.Marshal: every
// single byte, the runes encoding/json escapes, random strings of them, and
// floats from every bit pattern class, -0 and the exponent-form edges.
func TestAppendMatchesMarshal(t *testing.T) {
	var strs []string
	for c := 0; c < 256; c++ {
		strs = append(strs, string([]byte{byte(c)}))
	}
	pieces := append(strs, "\u2028", "\u2029", "\ufffd", "é", "😀", "\xe2\x80", "plain text")
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := r.IntN(8); n > 0; n-- {
			b.WriteString(pieces[r.IntN(len(pieces))])
		}
		strs = append(strs, b.String())
	}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
		for i := 0; i < len(s); i++ {
			if c := s[i]; (c < utf8.RuneSelf && safe[c]) != (c < utf8.RuneSelf && bytes.Equal(AppendString(nil, s[i:i+1]), []byte{'"', c, '"'})) {
				t.Fatalf("safe[%q] = %v", c, safe[c])
			}
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-9, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1e22, 5e-324, math.MaxFloat64, -1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 100000; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		got, ok := AppendFloat(nil, f)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal: %s, %v", f, got, ok, want, err)
		}
	}
	for _, s := range strs[:2000] {
		raw, _ := json.Marshal(map[string]string{s: s}) // compact, HTML-escaped already
		var plain bytes.Buffer
		enc := json.NewEncoder(&plain)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(map[string]string{s: s})
		if got := AppendHTMLSafe(nil, bytes.TrimSuffix(plain.Bytes(), []byte("\n"))); !bytes.Equal(got, raw) {
			t.Fatalf("AppendHTMLSafe(%s) = %s, want %s", plain.Bytes(), got, raw)
		}
	}
}
