package analytics

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// sampleRuns builds a small two-target run set with a known cost structure:
// queries containing the "sum_charge" term cost 0.5s extra on "columba",
// everything costs 0.1s on "tuplestore"; query 4 errors on columba.
func sampleRuns() []Run {
	mk := func(id int, strategy string, parent, comps int, terms []string, target string, secs float64, errMsg string) Run {
		return Run{
			QueryID: id, SQL: "SELECT q" + strings.Repeat("x", id), Strategy: strategy, ParentID: parent,
			Components: comps, Terms: terms, Target: target, Seconds: secs, Error: errMsg,
		}
	}
	charge := "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge"
	qty := "sum(l_quantity) AS sum_qty"
	flag := "l_returnflag"
	return []Run{
		mk(1, "baseline", 0, 3, []string{charge, qty, flag}, "columba", 0.62, ""),
		mk(1, "baseline", 0, 3, []string{charge, qty, flag}, "tuplestore", 0.10, ""),
		mk(2, "prune", 1, 2, []string{qty, flag}, "columba", 0.11, ""),
		mk(2, "prune", 1, 2, []string{qty, flag}, "tuplestore", 0.09, ""),
		mk(3, "alter", 2, 2, []string{charge, flag}, "columba", 0.60, ""),
		mk(3, "alter", 2, 2, []string{charge, flag}, "tuplestore", 0.10, ""),
		mk(4, "expand", 3, 3, []string{qty, flag}, "columba", 0, "parse error"),
		mk(4, "expand", 3, 3, []string{qty, flag}, "tuplestore", 0.12, ""),
	}
}

func TestHistory(t *testing.T) {
	hist := History(sampleRuns(), "columba")
	if len(hist) != 4 {
		t.Fatalf("history points = %d, want 4", len(hist))
	}
	if hist[0].QueryID != 1 || hist[3].QueryID != 4 {
		t.Error("history not in pool order")
	}
	if !hist[3].IsError {
		t.Error("query 4 should be flagged as error")
	}
	if hist[2].Strategy != "alter" || hist[2].ParentID != 2 {
		t.Errorf("morph provenance lost: %+v", hist[2])
	}
	if hist[0].Components != 3 {
		t.Errorf("node size (components) lost: %+v", hist[0])
	}
	if len(History(sampleRuns(), "unknown-target")) != 0 {
		t.Error("unknown target should yield an empty history")
	}
}

func TestComponentsFindsDominantTerm(t *testing.T) {
	comps := Components(sampleRuns(), "columba")
	if len(comps) == 0 {
		t.Fatal("no components")
	}
	if !strings.Contains(comps[0].Term, "sum_charge") {
		t.Errorf("dominant component = %q, want the sum_charge expression", comps[0].Term)
	}
	if comps[0].Delta < 0.3 {
		t.Errorf("dominant delta = %f, want around 0.5", comps[0].Delta)
	}
	// On the row store nothing stands out: every delta is small.
	for _, c := range Components(sampleRuns(), "tuplestore") {
		if c.Delta > 0.05 {
			t.Errorf("tuplestore component %q delta = %f, want ~0", c.Term, c.Delta)
		}
	}
	// Errored runs are excluded from the attribution.
	for _, c := range comps {
		if c.Queries == 0 && c.WithMean != 0 {
			t.Errorf("component %q has inconsistent stats", c.Term)
		}
	}
}

func TestSpeedup(t *testing.T) {
	sum := Speedup(sampleRuns(), "tuplestore", "columba")
	// Query 4 failed on columba, so only 3 matched pairs.
	if len(sum.Points) != 3 {
		t.Fatalf("speedup points = %d, want 3", len(sum.Points))
	}
	if sum.BaselineFactor < 5 || sum.BaselineFactor > 7 {
		t.Errorf("baseline factor = %f, want ~6.2", sum.BaselineFactor)
	}
	if sum.Min > sum.Median || sum.Median > sum.Max {
		t.Errorf("spread out of order: %f %f %f", sum.Min, sum.Median, sum.Max)
	}
	if sum.Max < 5 {
		t.Errorf("max factor = %f, want the sum_charge variants around 6", sum.Max)
	}
	if sum.Min > 2 {
		t.Errorf("min factor = %f, want the pruned variant near 1", sum.Min)
	}
	empty := Speedup(nil, "a", "b")
	if len(empty.Points) != 0 || empty.Max != 0 {
		t.Error("empty input should give an empty summary")
	}
}

func TestDiff(t *testing.T) {
	d, err := Diff(sampleRuns(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.QueryA != 1 || d.QueryB != 2 {
		t.Error("ids lost")
	}
	if len(d.OnlyA) == 0 {
		t.Error("query 1 has longer SQL, so OnlyA should not be empty")
	}
	if len(d.Times) == 0 {
		t.Error("expected per-target times")
	}
	pair := d.Times["columba"]
	if pair[0] != 0.62 || pair[1] != 0.11 {
		t.Errorf("columba times = %v", pair)
	}
	if _, err := Diff(sampleRuns(), 1, 99); err == nil {
		t.Error("diff with a missing query should fail")
	}
}

func TestTokenDiff(t *testing.T) {
	a, b := tokenDiff("SELECT n_name, n_comment FROM nation", "SELECT n_name FROM nation WHERE n_name = 'BRAZIL'")
	joinA, joinB := strings.Join(a, " "), strings.Join(b, " ")
	if !strings.Contains(joinA, "n_comment") {
		t.Errorf("onlyA = %v", a)
	}
	if !strings.Contains(joinB, "WHERE") || !strings.Contains(joinB, "'BRAZIL'") {
		t.Errorf("onlyB = %v", b)
	}
	// Identical queries have no differences.
	a, b = tokenDiff("SELECT x FROM t", "SELECT x FROM t")
	if len(a) != 0 || len(b) != 0 {
		t.Errorf("identical diff = %v / %v", a, b)
	}
	for _, tc := range []struct {
		name         string
		a, b         string
		onlyA, onlyB []string
	}{
		// A run of separators yields no empty token.
		{"adjacent separators", "SELECT f((x)),,\t\n y FROM t", "SELECT f(x), y FROM t", nil, nil},
		{"separators only", " ,\t(\n) ", "", nil, nil},
		// A quoted literal is not one token: its blank separates like any other.
		{"quoted literal", "WHERE n_name = 'UNITED STATES'", "WHERE n_name = 'BRAZIL'", []string{"'UNITED", "STATES'"}, []string{"'BRAZIL'"}},
		{"multi-byte runes", "SELECT 'Zürich', naïve FROM t", "SELECT 'Zurich', naïve FROM t", []string{"'Zürich'"}, []string{"'Zurich'"}},
		// Tokens are a multiset: repeats count.
		{"repeated tokens", "SELECT a, a, a FROM t", "SELECT a FROM t FROM", []string{"a", "a"}, []string{"FROM"}},
	} {
		a, b := tokenDiff(tc.a, tc.b)
		if fmt.Sprintf("%q %q", a, b) != fmt.Sprintf("%q %q", tc.onlyA, tc.onlyB) {
			t.Errorf("%s: tokenDiff = %q / %q, want %q / %q", tc.name, a, b, tc.onlyA, tc.onlyB)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRuns()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(sampleRuns())+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(sampleRuns())+1)
	}
	if !strings.HasPrefix(lines[0], "query_id,parent_id,strategy") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "parse error") {
		t.Error("error message missing from CSV")
	}
	// Failed runs have an empty seconds field.
	for _, line := range lines[1:] {
		if strings.Contains(line, "parse error") && strings.Contains(line, "0.000000") {
			t.Error("failed run should not report a time")
		}
	}
}

func TestRunHelpers(t *testing.T) {
	r := Run{Error: "boom"}
	if !r.Failed() {
		t.Error("Failed() wrong")
	}
	if formatSeconds(math.NaN(), false) != "" {
		t.Error("NaN seconds should render empty")
	}
	if formatSeconds(1.5, false) != "1.500000" {
		t.Errorf("formatSeconds = %q", formatSeconds(1.5, false))
	}
}

func TestPairsZeroTimesSymmetric(t *testing.T) {
	mk := func(a, b float64) []Run {
		return []Run{{QueryID: 1, Target: "a", Seconds: a}, {QueryID: 1, Target: "b", Seconds: b}}
	}
	// A zero wall-clock time is below the clock's resolution; it yields no
	// ratio whichever side it appears on (Speedup used to report a factor 0
	// for a zero numerator but skip a zero denominator).
	for _, tc := range []struct {
		name string
		a, b float64
	}{{"zero numerator", 0, 0.001}, {"zero denominator", 0.001, 0}, {"both zero", 0, 0}} {
		if p := Pairs(mk(tc.a, tc.b), "a", "b"); len(p) != 0 {
			t.Errorf("%s: Pairs = %+v, want none", tc.name, p)
		}
		if p := Pairs(mk(tc.a, tc.b), "b", "a"); len(p) != 0 {
			t.Errorf("%s, swapped: Pairs = %+v, want none", tc.name, p)
		}
		if sum := Speedup(mk(tc.a, tc.b), "a", "b"); len(sum.Points) != 0 || sum.BaselineFactor != 0 {
			t.Errorf("%s: Speedup = %+v, want no points", tc.name, sum)
		}
	}
	if p := Pairs(mk(0.002, 0.001), "a", "b"); len(p) != 1 || p[0].Ratio != 2 {
		t.Errorf("Pairs = %+v, want one ratio of 2", p)
	}
	// Swapping the targets inverts the ratio.
	if p := Pairs(mk(0.002, 0.001), "b", "a"); len(p) != 1 || p[0].Ratio != 0.5 {
		t.Errorf("swapped Pairs = %+v, want one ratio of 0.5", p)
	}
}

func TestPairsTakeLastSuccessfulRunPerTarget(t *testing.T) {
	runs := []Run{
		{QueryID: 2, Target: "a", Seconds: 0.4},
		{QueryID: 2, Target: "b", Seconds: 0.1},
		{QueryID: 1, Target: "a", Seconds: 0.3},
		{QueryID: 2, Target: "a", Seconds: 0.6},
		{QueryID: 2, Target: "a", Error: "timeout"},
		{QueryID: 1, Target: "b", Seconds: 0.1},
		// A third target's failure does not hide the pair.
		{QueryID: 1, Target: "c", Error: "parse error"},
		{QueryID: 3, Target: "a", Seconds: 0.2},
	}
	var got []string
	for _, p := range Pairs(runs, "a", "b") {
		got = append(got, fmt.Sprintf("%d:%v/%v", p.QueryID, p.A.Seconds, p.B.Seconds))
	}
	if want := []string{"1:0.3/0.1", "2:0.6/0.1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Pairs = %v, want %v: query-id order, the last successful time per target", got, want)
	}
}
