package fuzzdiff

import (
	"strings"
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/grammar"
	"sqalpel/internal/sqlsem"
)

// TestDifferentialFuzz is the standing correctness oracle: at least 500
// distinct grammar-derived queries over NULL-rich data, executed on all
// six registry engines, must agree bit for bit. This is also the CI smoke
// gate (fixed seed, bounded size).
func TestDifferentialFuzz(t *testing.T) {
	rep, err := Run(Options{Seed: 42, Queries: 520})
	if err != nil {
		t.Fatalf("fuzzer failed to run: %v", err)
	}
	t.Logf("seed=%d rows=%d derived=%d executed=%d agreed-errors=%d divergences=%d",
		rep.Seed, rep.Rows, rep.Derived, rep.Executed, rep.AgreedErrors, len(rep.Divergences))
	if rep.Executed < 500 {
		t.Errorf("executed %d queries, want >= 500 (grammar space too small?)", rep.Executed)
	}
	for i, d := range rep.Divergences {
		if i >= 10 {
			t.Errorf("… and %d more divergences", len(rep.Divergences)-10)
			break
		}
		t.Errorf("engines diverge:\n%s", d.Describe())
	}
	// The grammar is designed to produce only valid queries; every engine
	// erroring in unison would hide coverage, so keep it visible.
	if rep.AgreedErrors > rep.Executed/10 {
		t.Errorf("%d/%d queries errored on every engine — grammar coverage collapsing", rep.AgreedErrors, rep.Executed)
	}
}

// TestFuzzReproducible pins seeded determinism: the same seed must derive
// the same queries and the same report counts.
func TestFuzzReproducible(t *testing.T) {
	a, err := Run(Options{Seed: 7, Queries: 60, Rows: 120})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 7, Queries: 60, Rows: 120})
	if err != nil {
		t.Fatal(err)
	}
	if a.Derived != b.Derived || a.Executed != b.Executed || a.AgreedErrors != b.AgreedErrors {
		t.Errorf("same seed produced different runs: %+v vs %+v", a, b)
	}
}

// TestGrammarCoversTernaryConstructs guards the grammar against losing the
// constructs the NULL-semantics contract is about.
func TestGrammarCoversTernaryConstructs(t *testing.T) {
	g, err := grammar.Parse(GrammarSource)
	if err != nil {
		t.Fatalf("grammar does not parse: %v", err)
	}
	var all string
	for _, lit := range g.Literals() {
		all += lit.Text + "\n"
	}
	for _, want := range []string{"NOT (", "LIKE", "NOT LIKE", "IN (", "NOT IN", "BETWEEN", "NOT BETWEEN", "NULL)", "CASE WHEN", "IS NULL", "IS NOT NULL"} {
		if !strings.Contains(all, want) {
			t.Errorf("grammar literals lost construct %q", want)
		}
	}
	// The sub-query shapes: uncorrelated IN/scalar/EXISTS plus correlated
	// WHERE sub-queries over both non-NULL (k) and nullable (a) keys.
	for _, want := range []string{
		"IN (SELECT", "NOT IN (SELECT",
		"> (SELECT MIN", "EXISTS (SELECT", "NOT EXISTS (SELECT",
		"WHERE dk = k", "WHERE dk = a",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("grammar literals lost sub-query shape %q", want)
		}
	}
	// The join shapes late materialization composes row ids over: a 3-way
	// chain through two aliases of dim, and a star projection over a join
	// (nothing pruned, every column read through a view).
	for _, want := range []string{"FROM t, dim d1, dim d2 WHERE k = d1.dk AND g = d2.dk", "SELECT * FROM t, dim WHERE a = w"} {
		if !strings.Contains(GrammarSource, want) {
			t.Errorf("grammar templates lost join shape %q", want)
		}
	}
	// The dictionary-routed shapes over the low-cardinality string key s:
	// equality on present and absent values, prefix LIKE, IN lists with
	// present/absent/NULL members, and code-order range comparisons — the
	// predicates the typed engines answer on dictionary codes and prune
	// with string zone maps, which the differential run checks against the
	// interpreters' raw-string answers.
	for _, want := range []string{
		"s = 'beta'", "s = 'zeta'", "s LIKE 'br%'",
		"s IN ('alpha'", "s IN ('beta', 'zeta', NULL)", "s NOT IN ('alto', NULL)",
		"s >= 'delta'", "s < 'bravo'",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("grammar literals lost dictionary-string shape %q", want)
		}
	}
	// The aggregates whose typed kernels have special cases: the row count,
	// DISTINCT sets, int-preserving sum/avg/min/max, extremes of a bool, and
	// a sum whose argument mixes int and float rows.
	for _, want := range []string{
		"COUNT(*)", "COUNT(DISTINCT a)", "COUNT(DISTINCT s)", "SUM(DISTINCT b)", "AVG(a)", "MIN(a)", "MAX(b)",
		"MIN(a > 2)", "MAX(s LIKE 'a%')", "THEN 1 ELSE 0.5 END",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("grammar literals lost aggregate shape %q", want)
		}
	}
}

// TestFingerprintExactness makes sure the fingerprint distinguishes what
// engines must not confuse: NULL vs false, and floats by bit pattern.
func TestFingerprintExactness(t *testing.T) {
	mk := func(v engine.Value) string {
		return Fingerprint(&engine.Result{Columns: []string{"c"}, Cols: []engine.ResultColumn{engine.Values{v}}})
	}
	if mk(sqlsem.Null()) == mk(sqlsem.NewBool(false)) {
		t.Error("fingerprint confuses NULL with false")
	}
	// Runtime addition (constant folding would make these equal): 0.1+0.2
	// differs from 0.3 in the last bit, and the fingerprint must see it.
	a, b := 0.1, 0.2
	if mk(sqlsem.NewFloat(a+b)) == mk(sqlsem.NewFloat(0.3)) {
		t.Error("fingerprint rounds floats (0.1+0.2 vs 0.3 must differ)")
	}
	if mk(sqlsem.NewInt(1)) == mk(sqlsem.NewBool(true)) {
		t.Error("fingerprint confuses int 1 with bool true")
	}
}

// TestMalformedNumericLiteralsAgree: literals the lexer admits but
// sqlsem.ParseNumber rejects fail at plan build, so all six engines report
// the same error instead of one coercing the literal and another deferring;
// an integer literal past int64 is a float on every engine.
func TestMalformedNumericLiteralsAgree(t *testing.T) {
	db := datagen.Fuzz(datagen.FuzzOptions{Rows: 50, Seed: 1})
	reg := engine.NewRegistry()
	for _, sql := range []string{
		"SELECT id FROM t WHERE a < 1e999 ORDER BY id",
		"SELECT id, a + 1e+ FROM t ORDER BY id",
		"SELECT id FROM t WHERE d < DATE '1995-01-01' + INTERVAL 'x' DAY ORDER BY id",
	} {
		outcomes, agree := differential(reg, db, sql)
		if !agree || !strings.Contains(outcomes[0].Err, "malformed numeric literal") {
			t.Errorf("engines do not agree on a malformed-literal error:\n%s", Divergence{SQL: sql, Outcomes: outcomes}.Describe())
		}
	}
	sql := "SELECT id FROM t WHERE a < 99999999999999999999 ORDER BY id"
	if outcomes, agree := differential(reg, db, sql); !agree || outcomes[0].Err != "" {
		t.Errorf("engines do not agree on an integer literal past int64:\n%s", Divergence{SQL: sql, Outcomes: outcomes}.Describe())
	}
}
