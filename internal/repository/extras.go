package repository

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"unicode/utf8"

	"sqalpel/internal/jsonenc"
)

// Extras is a result's extra indicators — the open-ended key/value list a
// driver reports with every measurement — held as the one JSON object they
// always serialise to, from the decoded completion to the row on disk or on a
// page. Nothing on the platform reads them as a map, so the row keeps one
// byte slice instead of a map and its strings, which the collector would mark
// on every cycle. nil means no extras; a value is never changed in place.
//
// The bytes are canonical: what a json.Encoder with SetEscapeHTML(false)
// writes for the map, without the trailing newline — keys sorted, compact,
// <>& raw, U+2028 and U+2029 escaped, invalid UTF-8 replaced by U+FFFD.
// encoding/json compacts what MarshalJSON returns with the escaping of the
// encoder at hand, so every sink writes what it wrote for the map: the log
// escapes <>& (json.Marshal), history frames and snapshots do not, pages do.
type Extras []byte

// EncodeExtras returns the canonical form of m; nil when m is empty. It is
// the one encoder of extras.
func EncodeExtras(m map[string]string) Extras {
	if len(m) == 0 {
		return nil
	}
	return Extras(canonicalJSON(validMap(m)))
}

// validMap returns m, or a copy with its invalid UTF-8 replaced (validUTF8)
// when it holds any. Of two keys that become one, the greater wins, as when
// the object encoding/json writes for m is decoded.
func validMap(m map[string]string) map[string]string {
	valid := true
	//lint:ordered whether every entry is valid UTF-8 does not depend on the order
	for k, v := range m {
		valid = valid && utf8.ValidString(k) && utf8.ValidString(v)
	}
	if valid {
		return m
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]string, len(m))
	for _, k := range keys {
		out[validUTF8(k)] = validUTF8(m[k])
	}
	return out
}

// validUTF8 returns s with each byte that is not part of valid UTF-8
// replaced by U+FFFD — one per byte, where encoding/json writes \ufffd
// (strings.ToValidUTF8 writes one per run). Stored bytes hold U+FFFD itself,
// not the escape: the escape decodes to U+FFFD and is written as U+FFFD
// when a recovered row is encoded again, so a row whose strings were
// replaced keeps its bytes across a restart.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteString("\uFFFD")
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// canonicalJSON is what a json.Encoder with SetEscapeHTML(false) writes for
// v, without the trailing newline: the bytes a row holds for its extras and
// its span tree. Its callers replace invalid UTF-8 in v first (validUTF8).
func canonicalJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // maps of strings and span trees always encode
	}
	return bytes.Clone(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
}

// Map decodes the extras; nil when there are none.
func (e Extras) Map() map[string]string {
	var m map[string]string
	_ = json.Unmarshal(e, &m) // canonical bytes decode; nil bytes leave m nil
	return m
}

// MarshalJSON returns the canonical bytes, or null for no extras.
func (e Extras) MarshalJSON() ([]byte, error) {
	if e == nil {
		return []byte("null"), nil
	}
	return e, nil
}

// UnmarshalJSON accepts exactly what decoding into a map[string]string
// accepts, with its meaning: the last of duplicate keys wins, null means no
// extras, and a second object decoded into the same value adds to it. Data
// that is canonical already — what drivers send and what recovery reads back
// from the history and snapshots — is copied as it is; anything else is
// decoded into a map and encoded again.
func (e *Extras) UnmarshalJSON(data []byte) error {
	if *e == nil && canonicalExtras(data) {
		*e = Extras(bytes.Clone(data))
		return nil
	}
	m := e.Map()
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*e = EncodeExtras(m)
	return nil
}

// canonicalExtras reports whether data is what EncodeExtras writes for the
// object it holds, by a test that is sure only of the common case: a compact
// object whose keys strictly increase bytewise and whose strings hold nothing
// but printable ASCII other than `"` and `\`, which no encoder escapes
// (jsonenc.Scanner's Plain). {} is not: it holds no extras, which are nil.
func canonicalExtras(data []byte) bool {
	s := jsonenc.NewScanner(data)
	s.Lit("{")
	var prev []byte
	for n := 0; s.OK(); n++ {
		key := s.Plain()
		if n > 0 && bytes.Compare(prev, key) >= 0 {
			return false
		}
		s.Lit(":")
		s.Plain()
		if !s.Opt(",") {
			break
		}
		prev = key
	}
	s.Lit("}")
	return s.Done()
}
