package sqlsem

import "testing"

func TestNotTruthTable(t *testing.T) {
	cases := map[Tri]Tri{True: False, False: True, Unknown: Unknown}
	for in, want := range cases {
		if got := Not(in); got != want {
			t.Errorf("NOT %s = %s, want %s", in, got, want)
		}
	}
}

func TestAndOrTruthTables(t *testing.T) {
	vals := []Tri{True, False, Unknown}
	andWant := map[[2]Tri]Tri{
		{True, True}: True, {True, False}: False, {True, Unknown}: Unknown,
		{False, True}: False, {False, False}: False, {False, Unknown}: False,
		{Unknown, True}: Unknown, {Unknown, False}: False, {Unknown, Unknown}: Unknown,
	}
	orWant := map[[2]Tri]Tri{
		{True, True}: True, {True, False}: True, {True, Unknown}: True,
		{False, True}: True, {False, False}: False, {False, Unknown}: Unknown,
		{Unknown, True}: True, {Unknown, False}: Unknown, {Unknown, Unknown}: Unknown,
	}
	for _, a := range vals {
		for _, b := range vals {
			if got := And(a, b); got != andWant[[2]Tri{a, b}] {
				t.Errorf("%s AND %s = %s, want %s", a, b, got, andWant[[2]Tri{a, b}])
			}
			if got := Or(a, b); got != orWant[[2]Tri{a, b}] {
				t.Errorf("%s OR %s = %s, want %s", a, b, got, orWant[[2]Tri{a, b}])
			}
			// De Morgan must hold in 3VL: NOT(a AND b) == NOT a OR NOT b.
			if Not(And(a, b)) != Or(Not(a), Not(b)) {
				t.Errorf("De Morgan violated for %s, %s", a, b)
			}
		}
	}
}

func TestAcceptCollapsesUnknownToFalse(t *testing.T) {
	if !True.Accept() {
		t.Error("TRUE must be accepted by filters")
	}
	if False.Accept() || Unknown.Accept() {
		t.Error("FALSE and UNKNOWN must both be rejected by filters")
	}
}

func TestCompareValues(t *testing.T) {
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		if got := CompareValues(op, Null(), NewInt(1)); got != Unknown {
			t.Errorf("NULL %s x = %s, want UNKNOWN", op, got)
		}
	}
	cases := []struct {
		op   string
		c    int
		want Tri
	}{
		{"=", 0, True}, {"=", -1, False},
		{"<>", 0, False}, {"<>", 1, True},
		{"<", -1, True}, {"<", 0, False},
		{"<=", 0, True}, {"<=", 1, False},
		{">", 1, True}, {">", 0, False},
		{">=", 0, True}, {">=", -1, False},
	}
	for _, c := range cases {
		if got := CompareValues(c.op, NewInt(int64(c.c)), NewFloat(0)); got != c.want {
			t.Errorf("op %s cmp %d = %s, want %s", c.op, c.c, got, c.want)
		}
	}
}

func TestLike(t *testing.T) {
	if got := Like(true, false, false); got != Unknown {
		t.Errorf("NULL LIKE p = %s, want UNKNOWN", got)
	}
	if got := Like(true, false, true); got != Unknown {
		t.Errorf("NULL NOT LIKE p = %s, want UNKNOWN", got)
	}
	if got := Like(false, true, false); got != True {
		t.Errorf("match LIKE = %s, want TRUE", got)
	}
	if got := Like(false, true, true); got != False {
		t.Errorf("match NOT LIKE = %s, want FALSE", got)
	}
	if got := Like(false, false, true); got != True {
		t.Errorf("no-match NOT LIKE = %s, want TRUE", got)
	}
}

func TestIn(t *testing.T) {
	cases := []struct {
		name                                string
		exprNull, found, listHasNull, empty bool
		want                                Tri
	}{
		{"empty list beats NULL probe", true, false, false, true, False},
		{"NULL probe", true, false, false, false, Unknown},
		{"NULL probe with NULL in list", true, false, true, false, Unknown},
		{"match", false, true, false, false, True},
		{"match despite NULL in list", false, true, true, false, True},
		{"no match, NULL in list", false, false, true, false, Unknown},
		{"no match, clean list", false, false, false, false, False},
	}
	for _, c := range cases {
		if got := In(c.exprNull, c.found, c.listHasNull, c.empty); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		geLo, leHi Tri
		negate     bool
		want       Tri
	}{
		{True, True, false, True},
		{True, False, false, False},
		{Unknown, Unknown, false, Unknown}, // NULL BETWEEN a AND b
		{Unknown, False, false, False},     // NULL bound but other side fails
		{Unknown, True, false, Unknown},
		{True, True, true, False},
		{Unknown, False, true, True}, // x NOT BETWEEN NULL AND hi with x > hi
		{Unknown, Unknown, true, Unknown},
	}
	for _, c := range cases {
		if got := Between(c.geLo, c.leHi, c.negate); got != c.want {
			t.Errorf("Between(%s, %s, negate=%v) = %s, want %s", c.geLo, c.leHi, c.negate, got, c.want)
		}
	}
}

func TestOfAndKnown(t *testing.T) {
	if Of(true) != True || Of(false) != False {
		t.Error("Of is broken")
	}
	// True and False are the known values: neither is Unknown.
	if True == Unknown || False == Unknown || True == False {
		t.Error("True, False and Unknown must be three distinct values")
	}
}
