package vexec

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file reproduces the scalar SQL value semantics of internal/engine
// over the unboxed scalar type: comparison, hash-key encoding, rendering and
// the date/LIKE helpers. The two implementations must agree exactly — the
// differential tests in internal/engine hold the vektor engines to the
// interpreters' answers bit for bit.

// boolVal reports the two-valued truth of a scalar: NULL and non-numeric
// values are false.
func (s scalar) boolVal() bool {
	switch s.kind {
	case KindBool, KindInt, KindDate:
		return s.i != 0
	case KindFloat:
		return s.f != 0
	default:
		return false
	}
}

// floatVal converts the scalar for numeric operations.
func (s scalar) floatVal() float64 {
	switch s.kind {
	case KindInt, KindBool, KindDate:
		return float64(s.i)
	case KindFloat:
		return s.f
	case KindString:
		f, _ := strconv.ParseFloat(s.s, 64)
		return f
	default:
		return 0
	}
}

// intVal converts the scalar to an integer.
func (s scalar) intVal() int64 {
	switch s.kind {
	case KindInt, KindBool, KindDate:
		return s.i
	case KindFloat:
		return int64(s.f)
	case KindString:
		i, _ := strconv.ParseInt(s.s, 10, 64)
		return i
	default:
		return 0
	}
}

// isNull reports whether the scalar is SQL NULL.
func (s scalar) isNull() bool { return s.kind == KindNull }

// isNumeric reports whether the scalar participates in numeric arithmetic.
func (s scalar) isNumeric() bool {
	return s.kind == KindInt || s.kind == KindFloat || s.kind == KindBool
}

// render prints the scalar the way result tables do.
func (s scalar) render() string {
	switch s.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if s.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(s.i, 10)
	case KindFloat:
		return strconv.FormatFloat(s.f, 'f', -1, 64)
	case KindString:
		return s.s
	case KindDate:
		return formatDate(s.i)
	default:
		return "?"
	}
}

// compareScalars returns -1, 0 or 1 with SQL ordering semantics: NULL sorts
// below everything, strings compare lexicographically only against strings,
// everything else goes through the numeric path.
func compareScalars(a, b scalar) int {
	if a.isNull() || b.isNull() {
		switch {
		case a.isNull() && b.isNull():
			return 0
		case a.isNull():
			return -1
		default:
			return 1
		}
	}
	if a.kind == KindString && b.kind == KindString {
		return strings.Compare(a.s, b.s)
	}
	af, bf := a.floatVal(), b.floatVal()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// equalScalars is SQL equality: NULL never equals anything.
func equalScalars(a, b scalar) bool {
	if a.isNull() || b.isNull() {
		return false
	}
	return compareScalars(a, b) == 0
}

// The hash-key encoding of scalars and vector rows (matching
// engine.Value.Key) lives in hashtable.go as appendScalarKey and
// appendVecKey: the hash table's byte mode encodes rows into reusable
// buffers instead of building per-row strings.

// --- dates -------------------------------------------------------------------

var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// parseDate converts an ISO yyyy-mm-dd string into days since the epoch.
func parseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, err
	}
	return int64(t.Sub(epoch).Hours() / 24), nil
}

// formatDate renders days since the epoch as yyyy-mm-dd.
func formatDate(days int64) string {
	return epoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

// addInterval adds n DAY/MONTH/YEAR units to a day number.
func addInterval(days, n int64, unit string) (int64, bool) {
	t := epoch.AddDate(0, 0, int(days))
	switch strings.ToUpper(unit) {
	case "DAY":
		t = t.AddDate(0, 0, int(n))
	case "MONTH":
		t = t.AddDate(0, int(n), 0)
	case "YEAR":
		t = t.AddDate(int(n), 0, 0)
	default:
		return 0, false
	}
	return int64(t.Sub(epoch).Hours() / 24), true
}

// datePart extracts one calendar field of a day number; units other than
// YEAR and MONTH read the day of the month, like the interpreters.
func datePart(unit string, days int64) int64 {
	t := epoch.AddDate(0, 0, int(days))
	switch unit {
	case "YEAR":
		return int64(t.Year())
	case "MONTH":
		return int64(t.Month())
	default:
		return int64(t.Day())
	}
}

// --- scalar function kernels ---------------------------------------------------
//
// One implementation per function, shared by the vectorized evaluator's
// per-row loops and the fused scan's compiled closures.

// substringOf is SUBSTRING over a rendered string: a 1-based start and an
// optional length, both clamped to the string.
func substringOf(str string, start, length scalar, hasLength bool) string {
	from := int(start.intVal()) - 1
	if from < 0 {
		from = 0
	}
	if from > len(str) {
		from = len(str)
	}
	to := len(str)
	if hasLength {
		to = from + int(length.intVal())
		if to > len(str) {
			to = len(str)
		}
		if to < from {
			to = from
		}
	}
	return str[from:to]
}

// castScalar converts a non-NULL scalar to the named SQL type. The target
// check is a data-shape property: it fires per non-NULL row, so an unknown
// target over an all-NULL (or empty) input does not error.
func castScalar(s scalar, typeName string) (scalar, error) {
	switch strings.ToLower(typeName) {
	case "integer", "int", "bigint", "smallint":
		return scalar{kind: KindInt, i: s.intVal()}, nil
	case "double", "float", "real", "decimal", "numeric":
		return scalar{kind: KindFloat, f: s.floatVal()}, nil
	case "varchar", "char", "text", "string":
		return scalar{kind: KindString, s: s.render()}, nil
	case "date":
		if s.kind == KindDate {
			return s, nil
		}
		d, err := parseDate(s.render())
		if err != nil {
			return scalar{}, fmt.Errorf("invalid date %q: %w", s.render(), err)
		}
		return scalar{kind: KindDate, i: d}, nil
	default:
		return scalar{}, fmt.Errorf("unsupported cast target %q", typeName)
	}
}

// absScalar is abs over a non-NULL scalar, integer-preserving.
func absScalar(s scalar) scalar {
	f := s.floatVal()
	if f < 0 {
		f = -f
	}
	if s.kind == KindInt {
		return scalar{kind: KindInt, i: int64(f)}
	}
	return scalar{kind: KindFloat, f: f}
}

// roundHalfAway rounds to scale decimal places, halves away from zero.
func roundHalfAway(f float64, scale int) float64 {
	mult := 1.0
	for j := 0; j < scale; j++ {
		mult *= 10
	}
	half := 0.5
	if f < 0 {
		half = -0.5
	}
	return float64(int64(f*mult+half)) / mult
}

// likeMatch implements SQL LIKE with % and _ wildcards (greedy two-pointer
// algorithm, the same one the interpreters use).
func likeMatch(s, p string) bool {
	var si, pi int
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
