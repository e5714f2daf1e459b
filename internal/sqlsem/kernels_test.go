package sqlsem

import (
	"strings"
	"testing"
)

// same is exact equality of kind and the payload slot the kind selects.
func same(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindFloat:
		return a.F == b.F
	case KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// TestKernels checks each scalar kernel once; the executors only drive them.
func TestKernels(t *testing.T) {
	date := NewDate(MustParseDate("1995-03-15"))
	call := func(name string, args ...Value) func() (Value, error) {
		return func() (Value, error) {
			if err := CheckFunc(name, len(args)); err != nil {
				return Value{}, err
			}
			return ApplyFunc(name, args), nil
		}
	}
	cast := func(v Value, target string) func() (Value, error) {
		return func() (Value, error) { return Cast(v, target) }
	}
	substr := func(v, start Value, length ...Value) func() (Value, error) {
		return func() (Value, error) {
			if len(length) > 0 {
				return Substring(v, start, length[0], true), nil
			}
			return Substring(v, start, Value{}, false), nil
		}
	}
	cases := []struct {
		name    string
		run     func() (Value, error)
		want    Value
		wantErr string
	}{
		{"cast float to integer truncates", cast(NewFloat(2.9), "INTEGER"), NewInt(2), ""},
		{"cast string to bigint", cast(NewString("42"), "bigint"), NewInt(42), ""},
		{"cast int to double", cast(NewInt(3), "double"), NewFloat(3), ""},
		{"cast date to varchar", cast(date, "varchar"), NewString("1995-03-15"), ""},
		{"cast string to date", cast(NewString("1995-03-15"), "date"), date, ""},
		{"cast date to date", cast(date, "DATE"), date, ""},
		{"cast bad date", cast(NewString("soon"), "date"), Value{}, `invalid date "soon"`},
		{"cast unknown target", cast(NewInt(1), "blob"), Value{}, `unsupported cast target "blob"`},
		{"cast NULL skips the target check", cast(Null(), "blob"), Null(), ""},

		{"substring from", substr(NewString("hello"), NewInt(2)), NewString("ello"), ""},
		{"substring from for", substr(NewString("hello"), NewInt(2), NewInt(3)), NewString("ell"), ""},
		{"substring start below 1 clamps", substr(NewString("hello"), NewInt(-3), NewInt(2)), NewString("he"), ""},
		{"substring start past the end", substr(NewString("hello"), NewInt(9)), NewString(""), ""},
		{"substring length past the end", substr(NewString("hello"), NewInt(4), NewInt(99)), NewString("lo"), ""},
		{"substring negative length", substr(NewString("hello"), NewInt(3), NewInt(-1)), NewString(""), ""},
		{"substring of a number renders it", substr(NewInt(12345), NewInt(2), NewInt(2)), NewString("23"), ""},
		{"substring of NULL", substr(Null(), NewInt(1)), Null(), ""},

		{"round half away from zero", call("round", NewFloat(2.5)), NewFloat(3), ""},
		{"round negative half away from zero", call("round", NewFloat(-2.5)), NewFloat(-3), ""},
		{"round negative to scale", call("round", NewFloat(-1.005), NewInt(1)), NewFloat(-1), ""},
		{"round to scale", call("round", NewFloat(3.14159), NewInt(2)), NewFloat(3.14), ""},
		{"round int is a float", call("round", NewInt(7)), NewFloat(7), ""},
		{"round NULL is 0", call("round", Null()), NewFloat(0), ""},
		{"round without arguments", call("round"), Value{}, "round expects at least 1 argument"},

		{"abs keeps integers", call("abs", NewInt(-4)), NewInt(4), ""},
		{"abs float", call("abs", NewFloat(-1.5)), NewFloat(1.5), ""},
		{"abs NULL", call("abs", Null()), Null(), ""},
		{"abs arity", call("abs", NewInt(1), NewInt(2)), Value{}, "abs expects 1 argument"},

		{"length", call("length", NewString("abc")), NewInt(3), ""},
		{"length of NULL measures its rendering", call("length", Null()), NewInt(4), ""},
		{"char_length of a number", call("char_length", NewInt(-12)), NewInt(3), ""},
		{"upper", call("upper", NewString("aBc")), NewString("ABC"), ""},
		{"lower", call("lower", NewString("aBc")), NewString("abc"), ""},
		{"upper arity", call("upper"), Value{}, "upper expects 1 argument"},
		{"coalesce first non-NULL", call("coalesce", Null(), NewInt(2), NewInt(3)), NewInt(2), ""},
		{"coalesce all NULL", call("coalesce", Null(), Null()), Null(), ""},
		{"coalesce of nothing", call("coalesce"), Null(), ""},
		{"unknown function", call("sqrt", NewInt(4)), Value{}, `unknown function "sqrt"`},
	}
	for _, tc := range cases {
		got, err := tc.run()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !same(got, tc.want) {
			t.Errorf("%s = %v %v (err %v), want %v %v", tc.name, got.Kind, got, err, tc.want.Kind, tc.want)
		}
	}
}

// TestKeyEncoding pins the byte form: the literal strings are what
// engine.Value.Key returned before the value layer moved here.
func TestKeyEncoding(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{NewInt(1), "\x031"},
		{NewFloat(1.0), "\x031"},
		{NewFloat(1.5), "\x031.5"},
		{NewFloat(-2e30), "\x03-2e+30"},
		{NewString("1"), "\x011"},
		{NewDate(9204), "\x029204"},
		{Null(), "\x00N"},
		{NewBool(true), "\x031"},
		{NewBool(false), "\x030"},
	} {
		if got := tc.v.Key(); got != tc.want {
			t.Errorf("%v %v: Key = %q, want %q", tc.v.Kind, tc.v, got, tc.want)
		}
		if got := string(tc.v.AppendKey([]byte("k|"))); got != "k|"+tc.want {
			t.Errorf("%v %v: AppendKey onto a prefix = %q", tc.v.Kind, tc.v, got)
		}
	}
}

func TestParseNumber(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Value
	}{
		{"0", NewInt(0)},
		{"42", NewInt(42)},
		{"-7", NewInt(-7)},
		{"9223372036854775807", NewInt(9223372036854775807)},
		{"2.50", NewFloat(2.5)},
		{".5", NewFloat(0.5)},
		{"1e3", NewFloat(1000)},
		{"1E-2", NewFloat(0.01)},
		// Past int64 an integer literal takes the float path.
		{"9223372036854775808", NewFloat(9223372036854775808)},
		{"99999999999999999999", NewFloat(1e20)},
	} {
		if got, err := ParseNumber(tc.in); err != nil || !same(got, tc.want) {
			t.Errorf("ParseNumber(%q) = %v %v (err %v), want %v %v", tc.in, got.Kind, got, err, tc.want.Kind, tc.want)
		}
	}
	for _, in := range []string{"", "1e+", "1e999", "-1e999", "abc", "1.2.3", "0x10", "inf", "NaN", "1_000", " 1"} {
		if got, err := ParseNumber(in); err == nil {
			t.Errorf("ParseNumber(%q) = %v, want an error", in, got)
		}
	}
}

func TestNegAndTruthLifting(t *testing.T) {
	for _, tc := range []struct{ in, want Value }{
		{NewInt(3), NewInt(-3)},
		{NewFloat(1.5), NewFloat(-1.5)},
		{NewBool(true), NewFloat(-1)},
		{Null(), Null()},
	} {
		if got := tc.in.Neg(); !same(got, tc.want) {
			t.Errorf("-(%v) = %v %v, want %v %v", tc.in, got.Kind, got, tc.want.Kind, tc.want)
		}
	}
	for _, tr := range []Tri{True, False, Unknown} {
		if got := tr.Value().Tri(); got != tr {
			t.Errorf("%s lowered and lifted = %s", tr, got)
		}
	}
	if !Unknown.Value().IsNull() || NewInt(0).Tri() != False || NewString("x").Tri() != False {
		t.Error("UNKNOWN must lower to NULL; a non-NULL value lifts to its two-valued truth")
	}
	if y, m, d := DatePart("YEAR", 9204), DatePart("MONTH", 9204), DatePart("DAY", 9204); y != 1995 || m != 3 || d != 15 {
		t.Errorf("DatePart(9204) = %d-%d-%d, want 1995-3-15", y, m, d)
	}
}
