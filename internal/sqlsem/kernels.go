package sqlsem

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// The scalar kernels every executor calls: one implementation per
// operation, so a paradigm contributes only its drive (per row, per vector,
// per closure).

// ParseNumber parses a numeric literal: integers stay exact, a fraction or
// exponent makes a float, and an integer literal beyond int64 takes the
// float path. Anything that is not a finite decimal number is an error —
// the lexer admits `1e+` and `1e999`, INTERVAL carries an arbitrary string —
// which the planner raises at build time, so no executor ever coerces it.
func ParseNumber(s string) (Value, error) {
	if !strings.ContainsAny(s, ".eE") {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return NewInt(n), nil
		}
	}
	// ParseFloat alone would also take hex floats, "inf", "nan" and digit
	// separators.
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(f, 0) || strings.Trim(s, "0123456789+-.eE") != "" {
		return Value{}, fmt.Errorf("malformed numeric literal %q", s)
	}
	return NewFloat(f), nil
}

// --- dates -------------------------------------------------------------------

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

// DateParts returns the year, month and day of a day number.
func DateParts(days int64) (year, month, day int) {
	t := epoch.AddDate(0, 0, int(days))
	return t.Year(), int(t.Month()), t.Day()
}

// DatePart is EXTRACT over a day number; units other than YEAR and MONTH
// read the day of the month.
func DatePart(unit string, days int64) int64 {
	y, m, d := DateParts(days)
	switch unit {
	case "YEAR":
		return int64(y)
	case "MONTH":
		return int64(m)
	default:
		return int64(d)
	}
}

// AddInterval adds n units (DAY, MONTH or YEAR) to a day number.
func AddInterval(days, n int64, unit string) (int64, error) {
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

// --- strings -----------------------------------------------------------------

// LikeMatch is the SQL LIKE matcher with % and _ wildcards: the two-pointer
// algorithm with greedy backtracking on the last '%'. The NULL semantics of
// LIKE are Like's.
func LikeMatch(s, p string) bool {
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

// Substring is SUBSTRING(v FROM start [FOR length]) over the rendered
// value: a 1-based start and an optional length, both clamped to the
// string; NULL for a NULL v.
func Substring(v, start, length Value, hasLength bool) Value {
	if v.IsNull() {
		return v
	}
	str := v.String()
	from := min(max(int(start.Int())-1, 0), len(str))
	to := len(str)
	if hasLength {
		to = max(min(from+int(length.Int()), len(str)), from)
	}
	return NewString(str[from:to])
}

// Cast converts a value to the named SQL type; NULL stays NULL. The target
// check is a data-shape property: it fires per non-NULL value, so an unknown
// target over all-NULL (or no) input does not error.
func Cast(v Value, typeName string) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch strings.ToLower(typeName) {
	case "integer", "int", "bigint", "smallint":
		return NewInt(v.Int()), nil
	case "double", "float", "real", "decimal", "numeric":
		return NewFloat(v.Float()), nil
	case "varchar", "char", "text", "string":
		return NewString(v.String()), nil
	case "date":
		if v.Kind == KindDate {
			return v, nil
		}
		d, err := ParseDate(v.String())
		if err != nil {
			return Value{}, err
		}
		return NewDate(d), nil
	default:
		return Value{}, fmt.Errorf("unsupported cast target %q", typeName)
	}
}

// --- scalar functions ----------------------------------------------------------

// CheckFunc validates a scalar function's name and arity, the statement
// property half of a call: plan.Build calls it for every call of a
// statement, so the executors apply only calls it accepted.
func CheckFunc(name string, nargs int) error {
	switch name {
	case "abs", "length", "char_length", "upper", "lower":
		if nargs != 1 {
			return fmt.Errorf("%s expects 1 argument", name)
		}
	case "round":
		if nargs == 0 {
			return fmt.Errorf("round expects at least 1 argument")
		}
	case "coalesce":
	default:
		return fmt.Errorf("unknown function %q", name)
	}
	return nil
}

// ApplyFunc applies a scalar function CheckFunc accepted to its evaluated
// arguments; an unknown name is taken for coalesce.
func ApplyFunc(name string, args []Value) Value {
	switch name {
	case "abs":
		// Integer-preserving.
		v := args[0]
		if v.IsNull() {
			return v
		}
		f := v.Float()
		if f < 0 {
			f = -f
		}
		if v.Kind == KindInt {
			return NewInt(int64(f))
		}
		return NewFloat(f)
	case "length", "char_length":
		// No NULL check: the rendered value is measured, and NULL renders as
		// the 4-character string "NULL".
		return NewInt(int64(len(args[0].String())))
	case "upper":
		return NewString(strings.ToUpper(args[0].String()))
	case "lower":
		return NewString(strings.ToLower(args[0].String()))
	case "round":
		// To the scale's decimal places, halves away from zero.
		f, mult, half := args[0].Float(), 1.0, 0.5
		if len(args) > 1 {
			for j := int64(0); j < args[1].Int(); j++ {
				mult *= 10
			}
		}
		if f < 0 {
			half = -0.5
		}
		return NewFloat(float64(int64(f*mult+half)) / mult)
	default: // coalesce
		for _, v := range args {
			if !v.IsNull() {
				return v
			}
		}
		return Null()
	}
}
