// Package engine implements the in-memory SQL execution substrate sqalpel
// runs experiments against. It provides a relational storage layer
// (Database/Table with column-major storage), a query executor covering the
// SQL dialect of internal/sqlparser (joins, sub-queries, grouping,
// aggregation, ordering), and four execution back-ends with genuinely
// different performance profiles:
//
//   - RowEngine: a tuple-at-a-time interpreter that carries full rows,
//     evaluates predicates with short-circuiting and avoids intermediate
//     materialisation — the classic row store profile.
//   - ColEngine: a column-at-a-time engine that prunes unused columns,
//     filters with one pass per conjunct, and materialises every arithmetic
//     intermediate as a full vector with an overflow-guarding widening pass —
//     the profile of MonetDB-style systems the paper reports on.
//   - VektorEngine: a batch-vectorized engine (see internal/vexec) working
//     on typed unboxed vectors with selection vectors and fixed-size batch
//     pipelines — the VectorWise-style profile; statements outside its
//     subset fall back to the column interpreter.
//   - FusilEngine: a data-centric compiled engine (internal/vexec with
//     Options.Fused) that compiles each scan→filter segment into one loop
//     of Go closures over the typed columns — the HyPer-style profile; above
//     that segment it runs the vectorized engine's operators, and it covers
//     the same subset with the same fallback.
//
// The engines stand in for the external DBMSs the paper drives over JDBC:
// discriminative benchmarking needs systems that accept the same dialect
// but disagree on performance, which is exactly what they provide.
package engine

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime value kinds.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return "unknown"
	}
}

// Value is a runtime SQL value. Dates are stored as days since 1970-01-01.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// NewBool wraps a boolean.
func NewBool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewInt wraps an integer.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat wraps a float.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString wraps a string.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewDate wraps a date given as days since the Unix epoch.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the truth value; NULL and non-boolean values are false.
func (v Value) Bool() bool {
	switch v.Kind {
	case KindBool, KindInt, KindDate:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// Float converts the value to float64 for numeric operations.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindInt, KindBool, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// Int converts the value to int64.
func (v Value) Int() int64 {
	switch v.Kind {
	case KindInt, KindBool, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		i, _ := strconv.ParseInt(v.S, 10, 64)
		return i
	default:
		return 0
	}
}

// String renders the value the way result tables print it.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return FormatDate(v.I)
	default:
		return "?"
	}
}

// isNumeric reports whether the value participates in numeric arithmetic.
func (v Value) isNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindBool
}

// Compare returns -1, 0 or 1 comparing a and b with SQL semantics; NULL
// compares less than everything (only relevant for ordering).
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	// String comparison only when both sides are strings.
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S)
	}
	// Dates compare by their day number; mixed date/number comparisons use
	// the numeric path.
	af, bf := a.Float(), b.Float()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality; comparisons involving NULL are false.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a string usable as a hash key for grouping and hash joins.
// Unlike String it keeps the kind separate so 1 and '1' do not collide, but
// normalises int/float so join keys of mixed numeric types match.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00N"
	case KindString:
		return "\x01" + v.S
	case KindDate:
		return "\x02" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return "\x03" + strconv.FormatInt(int64(v.F), 10)
		}
		return "\x03" + strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return "\x03" + strconv.FormatInt(v.I, 10)
	}
}

// Arithmetic performs +, -, *, / and % with numeric promotion. Date plus or
// minus an integer treats the integer as a number of days. Any NULL operand
// yields NULL; division by zero yields NULL.
func Arithmetic(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	// Date arithmetic with day counts.
	if a.Kind == KindDate && b.isNumeric() {
		switch op {
		case "+":
			return NewDate(a.I + b.Int()), nil
		case "-":
			return NewDate(a.I - b.Int()), nil
		}
	}
	if a.Kind == KindDate && b.Kind == KindDate && op == "-" {
		return NewInt(a.I - b.I), nil
	}
	if a.Kind == KindString || b.Kind == KindString {
		if op == "||" {
			return NewString(a.String() + b.String()), nil
		}
		return Value{}, fmt.Errorf("cannot apply %q to %s and %s", op, a.Kind, b.Kind)
	}
	if op == "||" {
		return NewString(a.String() + b.String()), nil
	}
	// Integer-preserving arithmetic when both sides are integers and the
	// operation stays exact.
	if a.Kind == KindInt && b.Kind == KindInt {
		switch op {
		case "+":
			return NewInt(a.I + b.I), nil
		case "-":
			return NewInt(a.I - b.I), nil
		case "*":
			return NewInt(a.I * b.I), nil
		case "%":
			if b.I == 0 {
				return Null(), nil
			}
			return NewInt(a.I % b.I), nil
		case "/":
			if b.I == 0 {
				return Null(), nil
			}
			if a.I%b.I == 0 {
				return NewInt(a.I / b.I), nil
			}
			return NewFloat(float64(a.I) / float64(b.I)), nil
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case "+":
		return NewFloat(af + bf), nil
	case "-":
		return NewFloat(af - bf), nil
	case "*":
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Null(), nil
		}
		return NewFloat(af / bf), nil
	case "%":
		if bf == 0 {
			return Null(), nil
		}
		return NewFloat(float64(int64(af) % int64(bf))), nil
	default:
		return Value{}, fmt.Errorf("unknown arithmetic operator %q", op)
	}
}

// epoch is the reference day zero for date values.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate converts an ISO yyyy-mm-dd string into days since the epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return int64(t.Sub(epoch).Hours() / 24), nil
}

// MustParseDate is ParseDate for literals known to be valid; it panics on
// malformed input and exists for generators and tests.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders days since the epoch as yyyy-mm-dd.
func FormatDate(days int64) string {
	return epoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

// DateParts returns the year, month and day of a date value given in days
// since the epoch.
func DateParts(days int64) (year, month, day int) {
	t := epoch.AddDate(0, 0, int(days))
	return t.Year(), int(t.Month()), t.Day()
}

// AddInterval adds n units (DAY, MONTH or YEAR) to a date given in days
// since the epoch.
func AddInterval(days int64, n int64, unit string) (int64, error) {
	t := epoch.AddDate(0, 0, int(days))
	switch strings.ToUpper(unit) {
	case "DAY":
		t = t.AddDate(0, 0, int(n))
	case "MONTH":
		t = t.AddDate(0, int(n), 0)
	case "YEAR":
		t = t.AddDate(int(n), 0, 0)
	default:
		return 0, fmt.Errorf("unknown interval unit %q", unit)
	}
	return int64(t.Sub(epoch).Hours() / 24), nil
}

// Like implements the SQL LIKE operator with % and _ wildcards.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Dynamic-programming free recursive matcher with memo-free greedy
	// handling of '%': standard two-pointer algorithm.
	var si, pi int
	var starP, starS = -1, 0
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
