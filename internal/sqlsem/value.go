package sqlsem

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime value kinds. A typed vector of internal/vexec
// carries the same tag per column: bool, int and date payloads are int64s,
// floats float64s, strings strings, and KindNull marks an all-NULL column.
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

// Value is a runtime SQL value, the one scalar representation of every
// executor: the interpreters' cells, the boxed form at the typed executor's
// block boundaries (sub-query sets, result rows) and the return type of the
// fused scan's closures. Only the payload slot matching Kind is meaningful. Dates are stored as days since 1970-01-01.
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

// Bool returns the truth value; NULL and non-boolean values are false. It
// is the predicate-consumer collapse (Tri.Accept) applied to a value:
// expression-internal logic must combine Tri values instead.
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

// Tri lifts the value into the ternary-logic domain: NULL is UNKNOWN,
// everything else its two-valued truth.
func (v Value) Tri() Tri {
	if v.Kind == KindNull {
		return Unknown
	}
	return Of(v.Bool())
}

// Value lowers a truth value back into the value domain: UNKNOWN becomes
// NULL. Predicate consumers never see that NULL — they collapse it with
// Value.Bool — but a predicate in projection position surfaces it.
func (t Tri) Value() Value {
	if t == Unknown {
		return Null()
	}
	return NewBool(t == True)
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

// Compare returns -1, 0 or 1 comparing v and b with SQL ordering semantics:
// NULL sorts below everything (only relevant for ordering), strings compare
// lexicographically only against strings, everything else — dates by their
// day number included — goes through the numeric path.
func (v Value) Compare(b Value) int {
	if v.IsNull() || b.IsNull() {
		switch {
		case v.IsNull() && b.IsNull():
			return 0
		case v.IsNull():
			return -1
		default:
			return 1
		}
	}
	if v.Kind == KindString && b.Kind == KindString {
		return strings.Compare(v.S, b.S)
	}
	af, bf := v.Float(), b.Float()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality collapsed to two values: comparisons involving
// NULL are false. CASE operands and IN lists match with it.
func (v Value) Equal(b Value) bool {
	if v.IsNull() || b.IsNull() {
		return false
	}
	return v.Compare(b) == 0
}

// Key classes: the prefix byte of a non-NULL value's hash-key encoding.
// Kinds of different classes never collide; bools key as numbers.
const (
	KeyStr  byte = 0x01
	KeyDate byte = 0x02
	KeyNum  byte = 0x03
)

// AppendKey appends the value's hash-key encoding, the byte form grouping,
// DISTINCT, hash joins and IN sets key on. Unlike String it keeps the kind
// class apart so 1 and '1' do not collide, but int-valued floats normalize
// to the integer digits so keys of mixed numeric types match. NULL encodes
// as "\x00N": grouping buckets NULLs together, joins skip them beforehand.
// The Append*Key functions are its cases, for callers holding an unboxed
// payload (typed vectors).
func (v Value) AppendKey(buf []byte) []byte {
	switch v.Kind {
	case KindNull:
		return AppendNullKey(buf)
	case KindString:
		return AppendStringKey(buf, v.S)
	case KindDate:
		return AppendIntKey(buf, KeyDate, v.I)
	case KindFloat:
		return AppendFloatKey(buf, v.F)
	default:
		return AppendIntKey(buf, KeyNum, v.I)
	}
}

// AppendNullKey appends the key of NULL.
func AppendNullKey(buf []byte) []byte { return append(buf, 0x00, 'N') }

// AppendStringKey appends the key of a string.
func AppendStringKey(buf []byte, s string) []byte { return append(append(buf, KeyStr), s...) }

// AppendIntKey appends the key of an int-backed value: class KeyDate for
// dates, KeyNum for integers and bools.
func AppendIntKey(buf []byte, class byte, i int64) []byte {
	return strconv.AppendInt(append(buf, class), i, 10)
}

// AppendFloatKey appends the key of a float, normalized to the integer
// digits when it is int-valued.
func AppendFloatKey(buf []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return AppendIntKey(buf, KeyNum, int64(f))
	}
	return strconv.AppendFloat(append(buf, KeyNum), f, 'g', -1, 64)
}

// Key returns the AppendKey encoding as a string, for map-keyed callers.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// Neg is unary minus: integer-preserving, NULL for NULL.
func (v Value) Neg() Value {
	switch v.Kind {
	case KindNull:
		return v
	case KindInt:
		return NewInt(-v.I)
	default:
		return NewFloat(-v.Float())
	}
}

// Arithmetic performs +, -, *, /, % and || with numeric promotion. Date plus
// or minus a number treats the number as a count of days. Any NULL operand
// yields NULL; division by zero yields NULL; integer division stays an
// integer when exact.
func Arithmetic(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
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
	if op == "||" {
		return NewString(a.String() + b.String()), nil
	}
	if a.Kind == KindString || b.Kind == KindString {
		return Value{}, fmt.Errorf("cannot apply %q to %s and %s", op, a.Kind, b.Kind)
	}
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
		// The remainder is of the truncated operands: a divisor that
		// truncates to 0 (0.5, not only 0) is a division by zero.
		if int64(bf) == 0 {
			return Null(), nil
		}
		return NewFloat(float64(int64(af) % int64(bf))), nil
	default:
		return Value{}, fmt.Errorf("unknown arithmetic operator %q", op)
	}
}
