package sqlsem

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndConversions(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
	if NewInt(42).Int() != 42 || NewInt(42).Float() != 42 {
		t.Error("int conversions wrong")
	}
	if NewFloat(2.5).Float() != 2.5 || NewFloat(2.5).Int() != 2 {
		t.Error("float conversions wrong")
	}
	if NewString("abc").String() != "abc" {
		t.Error("string round trip wrong")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("bool wrong")
	}
	if Null().Bool() {
		t.Error("null must not be truthy")
	}
	if NewString("3.5").Float() != 3.5 {
		t.Error("string to float conversion wrong")
	}
}

func TestCompareAndEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("apple"), NewString("banana"), -1},
		{NewDate(100), NewDate(99), 1},
		{NewInt(5), NewFloat(5.0), 0},
		{Null(), NewInt(1), -1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Null().Equal(Null()) {
		t.Error("NULL = NULL must be false in SQL semantics")
	}
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("3 should equal 3.0")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(op string, a, b Value, want Value) {
		t.Helper()
		got, err := Arithmetic(op, a, b)
		if err != nil {
			t.Fatalf("Arithmetic(%s) error: %v", op, err)
		}
		if got.Kind != want.Kind || got.String() != want.String() {
			t.Errorf("Arithmetic(%v %s %v) = %v, want %v", a, op, b, got, want)
		}
	}
	check("+", NewInt(2), NewInt(3), NewInt(5))
	check("*", NewInt(4), NewInt(5), NewInt(20))
	check("-", NewFloat(1.5), NewFloat(0.5), NewFloat(1))
	check("/", NewInt(10), NewInt(4), NewFloat(2.5))
	check("/", NewInt(10), NewInt(5), NewInt(2))
	check("%", NewInt(10), NewInt(3), NewInt(1))
	check("+", NewDate(10), NewInt(5), NewDate(15))
	check("-", NewDate(10), NewDate(3), NewInt(7))
	check("||", NewString("a"), NewString("b"), NewString("ab"))

	if v, _ := Arithmetic("%", NewInt(1), NewFloat(0.5)); !v.IsNull() {
		t.Error("a remainder by a divisor that truncates to 0 must be NULL")
	}
	if v, _ := Arithmetic("/", NewInt(1), NewInt(0)); !v.IsNull() {
		t.Error("division by zero should be NULL")
	}
	if v, _ := Arithmetic("+", Null(), NewInt(1)); !v.IsNull() {
		t.Error("NULL arithmetic should be NULL")
	}
	if _, err := Arithmetic("*", NewString("x"), NewInt(1)); err == nil {
		t.Error("string multiplication should error")
	}
}

func TestDates(t *testing.T) {
	d, err := ParseDate("1998-12-01")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(d) != "1998-12-01" {
		t.Errorf("date round trip = %s", FormatDate(d))
	}
	y, m, day := DateParts(d)
	if y != 1998 || m != 12 || day != 1 {
		t.Errorf("DateParts = %d-%d-%d", y, m, day)
	}
	minus90, err := AddInterval(d, -90, "DAY")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(minus90) != "1998-09-02" {
		t.Errorf("1998-12-01 - 90 days = %s", FormatDate(minus90))
	}
	plus3m, _ := AddInterval(MustParseDate("1993-07-01"), 3, "MONTH")
	if FormatDate(plus3m) != "1993-10-01" {
		t.Errorf("+3 months = %s", FormatDate(plus3m))
	}
	plus1y, _ := AddInterval(MustParseDate("1994-01-01"), 1, "YEAR")
	if FormatDate(plus1y) != "1995-01-01" {
		t.Errorf("+1 year = %s", FormatDate(plus1y))
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("invalid date should fail")
	}
	if _, err := AddInterval(d, 1, "HOUR"); err == nil {
		t.Error("unknown interval unit should fail")
	}
}

func TestDatePropertyRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		days := int64(n) // 0 .. ~179 years after 1970 stays in range
		return MustParseDate(FormatDate(days)) == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"ECONOMY ANODIZED STEEL", "%BRASS", false},
		{"LARGE POLISHED BRASS", "%BRASS", true},
		{"PROMO BURNISHED COPPER", "PROMO%", true},
		{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
		{"standard", "st_ndard", true},
		{"standard", "st_ndXrd", false},
		{"forest green thing", "forest%", true},
		{"a special request here", "%special%requests%", false},
		{"a special requests here", "%special%requests%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	if NewInt(1).Key() == NewString("1").Key() {
		t.Error("int 1 and string '1' must have different keys")
	}
	if NewInt(5).Key() != NewFloat(5).Key() {
		t.Error("numeric 5 and 5.0 should share a key for joins")
	}
	if NewDate(3).Key() == NewInt(3).Key() {
		t.Error("date and int keys should differ")
	}
}
