package derive

import (
	"strings"
	"testing"

	"sqalpel/internal/grammar"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/workload"
)

func TestFromSQLNationBaseline(t *testing.T) {
	g, err := FromSQL(workload.NationBaselineQuery, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Start != "query" {
		t.Errorf("start = %q", g.Start)
	}
	proj := g.Rule("l_projection")
	if proj == nil || len(proj.Literals()) != 4 {
		t.Fatalf("l_projection should carry the 4 nation columns, got %+v", proj)
	}
	if g.Rule("l_tables") == nil {
		t.Fatal("expected l_tables rule")
	}
	rep := g.Check()
	if !rep.OK() {
		t.Errorf("derived grammar not clean: %v", rep)
	}
	// Every sentence must reference the nation table and parse as SQL.
	gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s.SQL, "FROM nation") {
			t.Errorf("sentence %q lost the FROM clause", s.SQL)
		}
		if _, err := sqlparser.Parse(s.SQL); err != nil {
			t.Errorf("generated sentence does not parse: %v\n%s", err, s.SQL)
		}
	}
}

func TestBaselineReconstruction(t *testing.T) {
	// The largest template realised deterministically must be a query with
	// all projection elements and the filter of the baseline.
	g, err := FromSQL(workload.NationBaselineQuery, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"n_nationkey", "n_name", "n_regionkey", "n_comment", "WHERE"} {
		if !strings.Contains(base.SQL, col) {
			t.Errorf("baseline %q misses %q", base.SQL, col)
		}
	}
	if _, err := sqlparser.Parse(base.SQL); err != nil {
		t.Errorf("baseline does not parse: %v", err)
	}
}

func TestJoinPathsKeptMandatory(t *testing.T) {
	q, _ := workload.TPCHQuery("Q3")
	g, err := FromSQL(q.SQL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	jp := g.Rule("l_joinpath")
	if jp == nil {
		t.Fatal("expected join-path rule for Q3")
	}
	text := jp.Literals()[0].Text
	if !strings.Contains(text, "c_custkey = o_custkey") || !strings.Contains(text, "l_orderkey = o_orderkey") {
		t.Errorf("join path %q misses the join edges", text)
	}
	// Selection predicates must not be part of the join path.
	if strings.Contains(text, "BUILDING") {
		t.Errorf("join path %q should not contain selection predicates", text)
	}
	// Every generated sentence keeps the join path.
	gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s.SQL, "c_custkey = o_custkey") {
			t.Errorf("sentence %q dropped the join path", s.SQL)
		}
	}
}

func TestJoinPathsOptional(t *testing.T) {
	q, _ := workload.TPCHQuery("Q3")
	opts := DefaultOptions()
	opts.ExplicitJoinPaths = false
	g, err := FromSQL(q.SQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rule("l_joinpath") != nil {
		t.Error("join-path rule should be absent when ExplicitJoinPaths is off")
	}
	// The space without mandatory join paths is strictly larger.
	withJoins, err := Summary(q.SQL, DefaultOptions(), grammar.DefaultEnumerateOptions())
	if err != nil {
		t.Fatal(err)
	}
	without, err := Summary(q.SQL, opts, grammar.DefaultEnumerateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !without.Capped && !withJoins.Capped && without.Space <= withJoins.Space {
		t.Errorf("space without join paths (%d) should exceed space with (%d)", without.Space, withJoins.Space)
	}
}

func TestOrTermsSplit(t *testing.T) {
	q, _ := workload.TPCHQuery("Q19")
	g, err := FromSQL(q.SQL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range g.Rules {
		if strings.HasPrefix(r.Name, "l_orterm") {
			found = true
			if len(r.Literals()) < 3 {
				t.Errorf("OR group %s should have at least 3 arms, got %d", r.Name, len(r.Literals()))
			}
		}
	}
	if !found {
		t.Error("Q19 should produce an OR-group rule")
	}
}

func TestGroupOrderLimitHandling(t *testing.T) {
	q, _ := workload.TPCHQuery("Q1")
	g, err := FromSQL(q.SQL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Rule("l_projection").Literals()); got != 10 {
		t.Errorf("Q1 projection literals = %d, want 10", got)
	}
	if got := len(g.Rule("l_group").Literals()); got != 2 {
		t.Errorf("Q1 group literals = %d, want 2", got)
	}
	if got := len(g.Rule("l_order").Literals()); got != 2 {
		t.Errorf("Q1 order literals = %d, want 2", got)
	}
	if g.Rule("l_limit") != nil {
		t.Error("Q1 has no LIMIT, so no l_limit rule expected")
	}

	q3, _ := workload.TPCHQuery("Q3")
	g3, err := FromSQL(q3.SQL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g3.Rule("l_limit") == nil {
		t.Error("Q3 has LIMIT 10, expected l_limit rule")
	}

	q11, _ := workload.TPCHQuery("Q11")
	g11, err := FromSQL(q11.SQL, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	having := g11.Rule("l_having")
	if having == nil || !strings.Contains(having.Literals()[0].Text, "HAVING") {
		t.Error("Q11 should derive an optional HAVING literal")
	}
}

func TestAllTPCHQueriesDerive(t *testing.T) {
	for _, q := range workload.TPCH() {
		g, err := FromSQL(q.SQL, DefaultOptions())
		if err != nil {
			t.Errorf("%s: derivation failed: %v", q.ID, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: derived grammar invalid: %v", q.ID, err)
		}
		sum, err := g.Space(grammar.EnumerateOptions{TemplateCap: 2000, LiteralOnce: true})
		if err != nil {
			t.Errorf("%s: space computation failed: %v", q.ID, err)
			continue
		}
		if sum.Templates == 0 {
			t.Errorf("%s: no templates derived", q.ID)
		}
		if !sum.Capped && sum.Space == 0 {
			t.Errorf("%s: empty query space", q.ID)
		}
	}
}

// TestGrammarTextRoundTrip: the platform stores a derived grammar as its
// text and a restarted server parses it back. Parse takes the first rule as
// the start, so the text must lead with the start rule — else the rebuilt
// query space is the space of the first rule (the projection list).
func TestGrammarTextRoundTrip(t *testing.T) {
	var queries []workload.Query
	for _, wl := range [][]workload.Query{workload.TPCH(), workload.SSB(), workload.Airtraffic()} {
		queries = append(queries, wl...)
	}
	opts := grammar.EnumerateOptions{TemplateCap: 2000, LiteralOnce: true}
	for _, q := range queries {
		g, err := FromSQL(q.SQL, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		text := g.String()
		back, err := grammar.Parse(text)
		if err != nil {
			t.Fatalf("%s: the grammar text does not parse: %v", q.ID, err)
		}
		if back.Start != g.Start {
			t.Errorf("%s: start %q after the round trip, want %q", q.ID, back.Start, g.Start)
		}
		if again := back.String(); again != text {
			t.Errorf("%s: String is not a fixpoint:\n%s\nthen\n%s", q.ID, text, again)
		}
		want, err := g.Space(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Space(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Templates != want.Templates || got.Space != want.Space || got.Capped != want.Capped {
			t.Errorf("%s: %d templates, space %d after the round trip, want %d, %d", q.ID, got.Templates, got.Space, want.Templates, want.Space)
		}
	}
}

func TestSpaceVariesAcrossQueries(t *testing.T) {
	// The paper's Table 2 point: the space varies over orders of magnitude.
	// Q6 (simple) must be far smaller than Q1 (wide projection), and Q19
	// (OR groups) must be larger still.
	opts := grammar.EnumerateOptions{TemplateCap: 50000, LiteralOnce: true}
	q6, _ := workload.TPCHQuery("Q6")
	q1, _ := workload.TPCHQuery("Q1")
	q19, _ := workload.TPCHQuery("Q19")
	s6, err := Summary(q6.SQL, DefaultOptions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Summary(q1.SQL, DefaultOptions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s19, err := Summary(q19.SQL, DefaultOptions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s6.Space >= s1.Space && !s1.Capped {
		t.Errorf("Q6 space (%d) should be smaller than Q1 space (%d)", s6.Space, s1.Space)
	}
	if !s19.Capped && !s1.Capped && s19.Space <= s1.Space {
		t.Errorf("Q19 space (%d) should exceed Q1 space (%d)", s19.Space, s1.Space)
	}
	if s6.Space < 2 {
		t.Errorf("even Q6 should have a handful of variants, got %d", s6.Space)
	}
}

func TestSetOperationsRejected(t *testing.T) {
	if _, err := FromSQL("SELECT a FROM t UNION SELECT b FROM u", DefaultOptions()); err == nil {
		t.Error("UNION baselines should be rejected")
	}
	if _, err := FromSQL("not sql at all", DefaultOptions()); err == nil {
		t.Error("invalid SQL should be rejected")
	}
}

func TestGeneratedSentencesParse(t *testing.T) {
	// Sample sentences from a few representative grammars and check they are
	// valid SQL (semantic validity is not guaranteed by design, syntactic
	// validity is).
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		q, _ := workload.TPCHQuery(id)
		g, err := FromSQL(q.SQL, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for i := 0; i < 10; i++ {
			s, err := gen.Generate()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if _, err := sqlparser.Parse(s.SQL); err != nil {
				t.Errorf("%s variant does not parse: %v\n%s", id, err, s.SQL)
			}
		}
	}
}

func TestColumnFamilyHeuristic(t *testing.T) {
	cases := []struct {
		sql  string
		join bool
	}{
		{"l_orderkey = o_orderkey", true},
		{"c_custkey = o_custkey", true},
		{"n1.n_nationkey = s_nationkey", true},
		{"l_quantity = 10", false},
		{"l_commitdate < l_receiptdate", false},
		{"l_orderkey = l_partkey", false},
	}
	for _, c := range cases {
		e, err := sqlparser.ParseExpr(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := isJoinPredicate(e); got != c.join {
			t.Errorf("isJoinPredicate(%q) = %v, want %v", c.sql, got, c.join)
		}
	}
}

func TestSplitConjunctsAndDisjuncts(t *testing.T) {
	e, _ := sqlparser.ParseExpr("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	conj := splitConjuncts(e)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(conj))
	}
	dis := splitDisjuncts(conj[2])
	if len(dis) != 2 {
		t.Errorf("disjuncts = %d, want 2", len(dis))
	}
	single := splitDisjuncts(conj[0])
	if len(single) != 1 {
		t.Errorf("non-OR expression should yield one disjunct, got %d", len(single))
	}
}
