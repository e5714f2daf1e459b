package vexec

import (
	"sort"

	"sqalpel/internal/sqlsem"
)

// Dictionary is the sorted, deduplicated value set of a dictionary-encoded
// string column. Codes index into Vals; because Vals is sorted and unique,
// code order is exactly lexicographic value order, so comparisons and ORDER
// BY can work on codes without materializing strings. A Dictionary is
// immutable after construction and shared by pointer: two vectors carry the
// same encoding if and only if their Dict pointers are equal.
type Dictionary struct {
	Vals []string
}

// Code returns the code of val and whether it is present. When absent, the
// returned code is the insertion point: every value with a smaller code
// sorts strictly below val and every value at or above it sorts strictly
// above, which is what the comparison fast paths need.
func (d *Dictionary) Code(val string) (uint32, bool) {
	i := sort.SearchStrings(d.Vals, val)
	return uint32(i), i < len(d.Vals) && d.Vals[i] == val
}

// DictMaxCardinality bounds dictionary encoding: a string column with more
// distinct non-NULL values than this stays raw (the unencoded fallback), so
// pathological high-cardinality columns degrade gracefully instead of
// building a dictionary as large as the data. Exported as a variable so
// tests can lower it to exercise the fallback cheaply.
var DictMaxCardinality = 1 << 20

// dictEncode returns a dictionary-encoded copy of a raw string vector, or
// the vector unchanged when encoding does not apply (non-string kind,
// already encoded, or cardinality above DictMaxCardinality). Null rows are
// preserved in the bitmap and carry code 0 so the codes array is always
// safe to index.
func dictEncode(v *Vector) *Vector {
	if v == nil || v.Kind != sqlsem.KindString || v.Dict != nil {
		return v
	}
	distinct := map[string]struct{}{}
	for i := 0; i < v.n; i++ {
		if v.IsNull(i) {
			continue
		}
		distinct[v.Strs[i]] = struct{}{}
		if len(distinct) > DictMaxCardinality {
			return v
		}
	}
	vals := make([]string, 0, len(distinct))
	for s := range distinct {
		vals = append(vals, s)
	}
	sort.Strings(vals)
	codeOf := make(map[string]uint32, len(vals))
	for i, s := range vals {
		codeOf[s] = uint32(i)
	}
	out := &Vector{Kind: sqlsem.KindString, n: v.n, Dict: &Dictionary{Vals: vals}, Codes: make([]uint32, v.n)}
	for i := 0; i < v.n; i++ {
		if v.IsNull(i) {
			out.SetNull(i)
			continue
		}
		out.Codes[i] = codeOf[v.Strs[i]]
	}
	return out
}

// StrAt returns the string payload of row i regardless of encoding. The
// caller is responsible for null-checking; null rows of an encoded vector
// return the dictionary value at code 0 (or "" on a raw vector).
func (v *Vector) StrAt(i int) string {
	if v.Dict != nil {
		return v.Dict.Vals[v.Codes[i]]
	}
	return v.Strs[i]
}
