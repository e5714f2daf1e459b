package grammar

import (
	"strings"
	"testing"
)

// figure1 is the sample grammar of the paper's Figure 1 (seven rules over
// the TPC-H nation table).
const figure1 = `
query:
	SELECT ${projection} FROM ${l_tables} $[l_filter]
projection:
	${l_count}
	${l_column} ${columnlist}*
l_tables:
	nation
columnlist:
	, ${l_column}
l_column:
	n_nationkey
	n_name
	n_regionkey
	n_comment
l_count:
	count(*)
l_filter:
	WHERE n_name = 'BRAZIL'
`

func mustParseGrammar(t *testing.T, src string) *Grammar {
	t.Helper()
	g, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse grammar failed: %v", err)
	}
	return g
}

func TestParseFigure1(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	if len(g.Rules) != 7 {
		t.Fatalf("rule count = %d, want 7", len(g.Rules))
	}
	if g.Start != "query" {
		t.Errorf("start = %q, want query", g.Start)
	}
	col := g.Rule("l_column")
	if col == nil || len(col.Alternatives) != 4 {
		t.Fatalf("l_column should have 4 alternatives, got %+v", col)
	}
	if !col.IsLexical() {
		t.Error("l_column should be lexical")
	}
	q := g.Rule("query")
	if q.IsLexical() {
		t.Error("query should be structural")
	}
	// The query rule has one alternative with refs projection, l_tables and
	// an optional l_filter.
	refs := q.Alternatives[0].References()
	want := []string{"projection", "l_tables", "l_filter"}
	if len(refs) != len(want) {
		t.Fatalf("query references = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("reference %d = %q, want %q", i, refs[i], want[i])
		}
	}
	// The optional filter must have kind RefOptional.
	var filterKind RefKind = -1
	for _, e := range q.Alternatives[0].Elements {
		if e.Ref == "l_filter" {
			filterKind = e.Kind
		}
	}
	if filterKind != RefOptional {
		t.Errorf("l_filter kind = %v, want optional", filterKind)
	}
	// columnlist is starred in the projection rule.
	var starKind RefKind = -1
	for _, e := range g.Rule("projection").Alternatives[1].Elements {
		if e.Ref == "columnlist" {
			starKind = e.Kind
		}
	}
	if starKind != RefStar {
		t.Errorf("columnlist kind = %v, want star", starKind)
	}
}

func TestParseErrorsGrammar(t *testing.T) {
	bad := []string{
		"",
		"   \n\n",
		"rule without colon\n\tx",
		"q:\n", // no alternatives
		"q:\n\t${unterminated",
		"q:\n\t@dialectonly",
		"1bad:\n\tx",
		"\talternative before header",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should have failed", src)
		}
	}
}

func TestParseDialectTags(t *testing.T) {
	g := mustParseGrammar(t, `
q:
	SELECT ${l_limit} x FROM t
l_limit:
	@monetdb LIMIT 10
	@mssql TOP 10
	ALL
`)
	lits := g.Rule("l_limit").Literals()
	if len(lits) != 3 {
		t.Fatalf("literal count = %d, want 3", len(lits))
	}
	if lits[0].Dialect != "monetdb" || lits[1].Dialect != "mssql" || lits[2].Dialect != "" {
		t.Errorf("dialects = %q %q %q", lits[0].Dialect, lits[1].Dialect, lits[2].Dialect)
	}
}

func TestCheckMissingAndDead(t *testing.T) {
	g := mustParseGrammar(t, `
q:
	SELECT ${missing} FROM ${l_t}
l_t:
	nation
orphan:
	unreachable ${l_t}
`)
	rep := g.Check()
	if len(rep.Missing) != 1 || rep.Missing[0] != "missing" {
		t.Errorf("missing = %v, want [missing]", rep.Missing)
	}
	if len(rep.Dead) != 1 || rep.Dead[0] != "orphan" {
		t.Errorf("dead = %v, want [orphan]", rep.Dead)
	}
	if rep.OK() {
		t.Error("report with missing rules should not be OK")
	}
	if g.Validate() == nil {
		t.Error("Validate should fail with missing rules")
	}
	if !strings.Contains(rep.String(), "missing") {
		t.Errorf("report string %q should mention missing rules", rep.String())
	}
}

func TestCheckRecursive(t *testing.T) {
	g := mustParseGrammar(t, `
expr:
	${l_lit}
	${expr} + ${l_lit}
l_lit:
	1
	2
`)
	rep := g.Check()
	if len(rep.Recursive) != 1 || rep.Recursive[0] != "expr" {
		t.Errorf("recursive = %v, want [expr]", rep.Recursive)
	}
	if !rep.OK() {
		t.Errorf("recursive grammars are valid, got %v", rep)
	}
}

func TestCheckCleanGrammar(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	rep := g.Check()
	if !rep.OK() || len(rep.Dead) != 0 || len(rep.Recursive) != 0 {
		t.Errorf("figure 1 grammar should be clean, got %v", rep)
	}
	if rep.String() != "grammar ok" {
		t.Errorf("clean report string = %q", rep.String())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate failed: %v", err)
	}
}

func TestNormalizeDropsDeadAndSplitsMixed(t *testing.T) {
	g := mustParseGrammar(t, `
q:
	SELECT ${proj} FROM t
proj:
	a
	b
	${l_agg}
l_agg:
	count(*)
	sum(x)
dead:
	never used
`)
	norm, err := g.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Rule("dead") != nil {
		t.Error("dead rule should be dropped")
	}
	// proj mixes two literal alternatives with a referencing one, so the
	// literals should move into proj_lit.
	helper := norm.Rule("proj_lit")
	if helper == nil {
		t.Fatal("expected proj_lit helper rule")
	}
	if !helper.IsLexical() || len(helper.Literals()) != 2 {
		t.Errorf("proj_lit = %+v, want 2 literals", helper)
	}
}

func TestStringRoundTrip(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	g2 := mustParseGrammar(t, g.String())
	if len(g2.Rules) != len(g.Rules) {
		t.Fatalf("round trip rule count = %d, want %d", len(g2.Rules), len(g.Rules))
	}
	if g.String() != g2.String() {
		t.Errorf("grammar rendering is not a fixed point:\n%s\n---\n%s", g.String(), g2.String())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	c := g.Clone()
	c.Rule("l_column").Alternatives = c.Rule("l_column").Alternatives[:1]
	if len(g.Rule("l_column").Alternatives) != 4 {
		t.Error("mutating the clone must not affect the original")
	}
}

func TestFuse(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	if err := g.Fuse("l_column", "l_count"); err != nil {
		t.Fatal(err)
	}
	if g.Rule("l_count") != nil {
		t.Error("fused rule should be removed")
	}
	if got := len(g.Rule("l_column").Literals()); got != 5 {
		t.Errorf("fused literal count = %d, want 5", got)
	}
	// References to l_count must now point at l_column.
	for _, a := range g.Rule("projection").Alternatives {
		for _, e := range a.Elements {
			if e.Ref == "l_count" {
				t.Error("stale reference to fused rule")
			}
		}
	}
	if err := g.Fuse("l_column", "l_column"); err == nil {
		t.Error("self fuse should fail")
	}
	if err := g.Fuse("nosuch", "l_column"); err == nil {
		t.Error("fuse into unknown rule should fail")
	}
	if err := g.Fuse("l_column", "nosuch"); err == nil {
		t.Error("fuse from unknown rule should fail")
	}
}

func TestEnumerateFigure1(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	enum, err := g.Enumerate(DefaultEnumerateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if enum.Capped {
		t.Error("figure 1 grammar should not hit the cap")
	}
	// Expected templates: count(*) or 1..4 columns, each with and without
	// the optional filter: (1 + 4) * 2 = 10 templates.
	if got := enum.TemplateCount(); got != 10 {
		for _, tpl := range enum.Templates {
			t.Logf("template: %s", tpl.Signature())
		}
		t.Fatalf("template count = %d, want 10", got)
	}
	// Space: for k columns there are C(4,k) literal choices; count(*) has 1.
	// Sum over filter present/absent: 2 * (1 + C(4,1)+C(4,2)+C(4,3)+C(4,4))
	// = 2 * (1 + 4 + 6 + 4 + 1) = 32.
	if enum.Space != 32 {
		t.Errorf("space = %d, want 32", enum.Space)
	}
	if enum.Tags != 7 {
		t.Errorf("tags = %d, want 7 (6 nation literals + count)", enum.Tags)
	}
}

func TestEnumerateLiteralOnceRule(t *testing.T) {
	g := mustParseGrammar(t, `
q:
	SELECT ${l_col} ${extra}*
extra:
	, ${l_col}
l_col:
	a
	b
`)
	enum, err := g.Enumerate(DefaultEnumerateOptions())
	if err != nil {
		t.Fatal(err)
	}
	// l_col has 2 literals, so templates with 3+ occurrences are pruned:
	// 1 or 2 columns → 2 templates; space = C(2,1)+C(2,2) = 3.
	if got := enum.TemplateCount(); got != 2 {
		t.Errorf("template count = %d, want 2", got)
	}
	if enum.Space != 3 {
		t.Errorf("space = %d, want 3", enum.Space)
	}

	// Without the literal-once rule repetitions up to 3 are allowed and
	// counted with replacement-free falling products disabled; the space
	// grows.
	loose, err := g.Enumerate(EnumerateOptions{LiteralOnce: false})
	if err != nil {
		t.Fatal(err)
	}
	if loose.TemplateCount() <= enum.TemplateCount() {
		t.Errorf("without literal-once: %d templates, want more than %d",
			loose.TemplateCount(), enum.TemplateCount())
	}
}

func TestEnumerateCap(t *testing.T) {
	// A grammar with many independent optional parts explodes; a small cap
	// must stop it and set Capped.
	src := "q:\n\tSELECT x"
	for i := 0; i < 16; i++ {
		src += " $[l_opt" + string(rune('a'+i)) + "]"
	}
	src += "\n"
	for i := 0; i < 16; i++ {
		name := "l_opt" + string(rune('a'+i))
		src += name + ":\n\topt" + string(rune('a'+i)) + "\n"
	}
	g := mustParseGrammar(t, src)
	enum, err := g.Enumerate(EnumerateOptions{TemplateCap: 100, LiteralOnce: true})
	if err != nil {
		t.Fatal(err)
	}
	if !enum.Capped {
		t.Error("expected the enumeration to be capped")
	}
	if enum.TemplateCount() > 400 {
		t.Errorf("capped enumeration returned %d templates", enum.TemplateCount())
	}
}

func TestEnumerateRecursiveGrammarTerminates(t *testing.T) {
	g := mustParseGrammar(t, `
expr:
	${l_lit}
	(${expr} + ${expr})
l_lit:
	1
	2
	3
`)
	enum, err := g.Enumerate(EnumerateOptions{TemplateCap: 500, MaxDepth: 6, LiteralOnce: true})
	if err != nil {
		t.Fatal(err)
	}
	if enum.TemplateCount() == 0 {
		t.Error("recursive grammar should still yield templates")
	}
	for _, tpl := range enum.Templates {
		if tpl.Counts["l_lit"] > 3 {
			t.Errorf("template %s violates the literal-once rule", tpl.Signature())
		}
	}
}

func TestTemplateCombinations(t *testing.T) {
	tpl := &Template{Counts: map[string]int{"l_col": 2, "l_f": 1}}
	sizes := map[string]int{"l_col": 4, "l_f": 3}
	if got := tpl.Combinations(sizes); got != 6*3 {
		t.Errorf("combinations = %d, want 18", got)
	}
	if got := tpl.OrderedCombinations(sizes); got != 12*3 {
		t.Errorf("ordered combinations = %d, want 36", got)
	}
	over := &Template{Counts: map[string]int{"l_col": 5}}
	if got := over.Combinations(sizes); got != 0 {
		t.Errorf("over-capacity combinations = %d, want 0", got)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{4, 0, 1}, {4, 4, 1}, {4, 2, 6}, {10, 3, 120}, {52, 5, 2598960},
		{3, 5, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestSpaceSummaryString(t *testing.T) {
	s := SpaceSummary{Tags: 10, Templates: 40, Space: 9207}
	if s.String() != "10 40 9207" {
		t.Errorf("summary = %q", s.String())
	}
	capped := SpaceSummary{Tags: 99, Templates: 100000, Capped: true}
	if !strings.Contains(capped.String(), ">") {
		t.Errorf("capped summary should use the > notation, got %q", capped.String())
	}
}

func TestGeneratorBaselineAndRandom(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	gen, err := NewGenerator(g, GeneratorOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(base.SQL, "SELECT ") || !strings.Contains(base.SQL, "FROM nation") {
		t.Errorf("baseline = %q", base.SQL)
	}
	// The baseline realises the largest template: all 4 columns + filter.
	if base.Components() < 5 {
		t.Errorf("baseline components = %d, want >= 5", base.Components())
	}
	for i := 0; i < 50; i++ {
		s, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s.SQL, "FROM nation") {
			t.Errorf("generated query %q lacks FROM nation", s.SQL)
		}
		if strings.Contains(s.SQL, "${") {
			t.Errorf("generated query %q contains unexpanded references", s.SQL)
		}
		// literal-once: no duplicated column names in the projection.
		cols := s.Literals["l_column"]
		seen := map[string]bool{}
		for _, c := range cols {
			if seen[c.Text] {
				t.Errorf("query %q repeats literal %q", s.SQL, c.Text)
			}
			seen[c.Text] = true
		}
	}
}

func TestGeneratorDeterministicSeed(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	gen1, _ := NewGenerator(g, GeneratorOptions{Seed: 7})
	gen2, _ := NewGenerator(g, GeneratorOptions{Seed: 7})
	for i := 0; i < 10; i++ {
		s1, err1 := gen1.Generate()
		s2, err2 := gen2.Generate()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s1.SQL != s2.SQL {
			t.Fatalf("same seed produced different sentences: %q vs %q", s1.SQL, s2.SQL)
		}
	}
}

func TestGeneratorDialect(t *testing.T) {
	src := `
q:
	SELECT ${l_col} FROM t ${l_limit}
l_col:
	a
l_limit:
	@monetdb LIMIT 10
	@mssql TOP 10
`
	g := mustParseGrammar(t, src)
	gen, err := NewGenerator(g, GeneratorOptions{Dialect: "monetdb"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.SQL, "LIMIT 10") {
		t.Errorf("monetdb dialect should use LIMIT, got %q", s.SQL)
	}
	genMS, err := NewGenerator(g, GeneratorOptions{Dialect: "mssql"})
	if err != nil {
		t.Fatal(err)
	}
	s, err = genMS.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.SQL, "TOP 10") {
		t.Errorf("mssql dialect should use TOP, got %q", s.SQL)
	}
	// Generic dialect has no literal for l_limit at all → realisation error.
	genNone, err := NewGenerator(g, GeneratorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := genNone.Baseline(); err == nil {
		t.Error("generic dialect should fail to realise the dialect-only class")
	}
}

func TestRealizationsExhaustive(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	gen, err := NewGenerator(g, GeneratorOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	keys := map[string]bool{}
	for _, tpl := range gen.Enumeration().Templates {
		sents, err := gen.Realizations(tpl, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(sents)
		for _, s := range sents {
			if keys[s.Key()] {
				t.Errorf("duplicate sentence key %q", s.Key())
			}
			keys[s.Key()] = true
		}
	}
	// Must equal the counted space size (32 for figure 1).
	if total != 32 {
		t.Errorf("exhaustive realisations = %d, want 32", total)
	}
}

func TestRealizationsLimit(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	gen, _ := NewGenerator(g, GeneratorOptions{})
	// Pick a template with two column slots: it has C(4,2)=6 realisations.
	var twoCols *Template
	for _, tpl := range gen.Enumeration().Templates {
		if tpl.Counts["l_column"] == 2 {
			twoCols = tpl
			break
		}
	}
	if twoCols == nil {
		t.Fatal("no two-column template found")
	}
	sents, err := gen.Realizations(twoCols, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sents) != 2 {
		t.Errorf("limited realisations = %d, want 2", len(sents))
	}
}

func TestSentenceKeyOrderInsensitive(t *testing.T) {
	tpl := buildTemplate([]Element{{Text: "SELECT"}, {Ref: "l_column", Kind: RefRequired}, {Text: ","}, {Ref: "l_column", Kind: RefRequired}})
	a := Literal{Rule: "l_column", Text: "n_name", Line: 10}
	b := Literal{Rule: "l_column", Text: "n_comment", Line: 11}
	s1 := &Sentence{Template: tpl, Literals: map[string][]Literal{"l_column": {a, b}}}
	s2 := &Sentence{Template: tpl, Literals: map[string][]Literal{"l_column": {b, a}}}
	if s1.Key() != s2.Key() {
		t.Errorf("keys should be order-insensitive: %q vs %q", s1.Key(), s2.Key())
	}
	c := Literal{Rule: "l_column", Text: "n_regionkey", Line: 12}
	s3 := &Sentence{Template: tpl, Literals: map[string][]Literal{"l_column": {a, c}}}
	if s1.Key() == s3.Key() {
		t.Errorf("different literal sets share the key %q", s1.Key())
	}
}

func TestJoinSQL(t *testing.T) {
	got := JoinSQL([]string{"SELECT", "n_name", ",", "n_comment", "FROM", "nation"})
	want := "SELECT n_name, n_comment FROM nation"
	if got != want {
		t.Errorf("JoinSQL = %q, want %q", got, want)
	}
	got = JoinSQL([]string{"SELECT", "count(", "*", ")", "FROM", "t"})
	if got != "SELECT count(*) FROM t" {
		t.Errorf("JoinSQL = %q", got)
	}
}

func TestLexicalClassesAndLiterals(t *testing.T) {
	g := mustParseGrammar(t, figure1)
	classes := g.LexicalClasses()
	if classes["l_column"] != 4 || classes["l_count"] != 1 || classes["l_tables"] != 1 || classes["l_filter"] != 1 {
		t.Errorf("classes = %v", classes)
	}
	if len(g.Literals()) != 7 {
		t.Errorf("literal count = %d, want 7", len(g.Literals()))
	}
	// Literal identity is the line number.
	lits := g.Rule("l_column").Literals()
	seenLines := map[int]bool{}
	for _, l := range lits {
		if seenLines[l.Line] {
			t.Errorf("duplicate literal line %d", l.Line)
		}
		seenLines[l.Line] = true
	}
}
