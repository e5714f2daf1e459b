package grammar_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqalpel/internal/derive"
	"sqalpel/internal/grammar"
	"sqalpel/internal/workload"
)

// recursiveSample is a recursive grammar over two lexical classes, so its
// depth-capped enumeration has templates that differ in one class only, in
// the other only, and in both.
const recursiveSample = `
expr:
	${l_lit}
	${l_col}
	(${expr} + ${expr})
l_lit:
	1
	2
	3
l_col:
	a
	b
`

// tpchGrammar derives the grammar of a TPC-H baseline.
func tpchGrammar(t *testing.T, id string) *grammar.Grammar {
	t.Helper()
	q, err := workload.TPCHQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	g, err := derive.FromSQL(q.SQL, derive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// latticeGrammars are the four search baselines of the benchmark of record
// plus the recursive sample.
func latticeGrammars(t *testing.T) map[string]*grammar.Enumeration {
	t.Helper()
	out := map[string]*grammar.Enumeration{}
	for _, id := range []string{"Q1", "Q2", "Q12", "Q18"} {
		enum, err := tpchGrammar(t, id).Enumerate(grammar.DefaultEnumerateOptions())
		if err != nil {
			t.Fatal(err)
		}
		out[id] = enum
	}
	g, err := grammar.Parse(recursiveSample)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := g.Enumerate(grammar.EnumerateOptions{TemplateCap: 500, MaxDepth: 8, LiteralOnce: true})
	if err != nil {
		t.Fatal(err)
	}
	out["recursive"] = enum
	return out
}

// scanNeighbours is the candidate scan Pool.resizeFrom ran before the
// lattice existed: every template, its size recounted from Counts.
func scanNeighbours(templates []*grammar.Template, src *grammar.Template, delta int) []*grammar.Template {
	size := func(t *grammar.Template) int {
		n := 0
		for _, c := range t.Counts {
			n += c
		}
		return n
	}
	covers := func(a, b map[string]int) bool {
		for c, n := range b {
			if a[c] < n {
				return false
			}
		}
		return true
	}
	var out []*grammar.Template
	for _, t := range templates {
		if size(t) != size(src)+delta {
			continue
		}
		if delta > 0 && !covers(t.Counts, src.Counts) {
			continue
		}
		if delta < 0 && !covers(src.Counts, t.Counts) {
			continue
		}
		out = append(out, t)
	}
	return out
}

func sameTemplates(a, b []*grammar.Template) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLatticeMatchesFullScan: for every template the memoised expand and
// prune neighbour lists are the full scan's, in the same (enumeration) order
// — the order the seeded candidate draw indexes into.
func TestLatticeMatchesFullScan(t *testing.T) {
	for name, enum := range latticeGrammars(t) {
		if len(enum.Templates) < 10 {
			t.Fatalf("%s: only %d templates", name, len(enum.Templates))
		}
		edges := 0
		for i, tpl := range enum.Templates {
			// Twice: the second answer comes from the memo.
			for pass := 0; pass < 2; pass++ {
				if got, want := enum.Expansions(tpl), scanNeighbours(enum.Templates, tpl, +1); !sameTemplates(got, want) {
					t.Fatalf("%s template %d pass %d: %d expansions, full scan finds %d (or another order)", name, i, pass, len(got), len(want))
				}
				if got, want := enum.Reductions(tpl), scanNeighbours(enum.Templates, tpl, -1); !sameTemplates(got, want) {
					t.Fatalf("%s template %d pass %d: %d reductions, full scan finds %d (or another order)", name, i, pass, len(got), len(want))
				}
			}
			edges += len(enum.Expansions(tpl))
		}
		if edges == 0 {
			t.Errorf("%s: no template has an expansion", name)
		}
	}
}

// TestLatticeForeignTemplate: a template of another enumeration has no
// neighbours here, whatever ordinal it carries.
func TestLatticeForeignTemplate(t *testing.T) {
	enums := latticeGrammars(t)
	foreign := enums["Q12"].Templates[3]
	if n := enums["Q1"].Expansions(foreign); n != nil {
		t.Errorf("foreign template has %d expansions", len(n))
	}
	if n := enums["Q1"].Reductions(&grammar.Template{Counts: map[string]int{"l_projection": 1}}); n != nil {
		t.Errorf("hand-built template has %d reductions", len(n))
	}
}

// signatureKey is Sentence.Key as it was before templates had ordinals: the
// template signature plus the sorted literal lines per class.
func signatureKey(s *grammar.Sentence) string {
	classes := make([]string, 0, len(s.Literals))
	for c := range s.Literals {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var sb strings.Builder
	sb.WriteString(s.Template.Signature())
	for _, c := range classes {
		lines := make([]int, 0, len(s.Literals[c]))
		for _, l := range s.Literals[c] {
			lines = append(lines, l.Line)
		}
		sort.Ints(lines)
		fmt.Fprintf(&sb, "|%s:%v", c, lines)
	}
	return sb.String()
}

// TestKeyPartitionsLikeSignatureKey: over generated sentences, and each one's
// twin with the literals of every class in reverse order, two sentences share
// the ordinal key exactly when they shared the signature key; and the key of
// a literal choice is the key of the sentence rendered from it.
func TestKeyPartitionsLikeSignatureKey(t *testing.T) {
	for _, id := range []string{"Q1", "Q2", "Q12", "Q18"} {
		gen, err := grammar.NewGenerator(tpchGrammar(t, id), grammar.GeneratorOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		newOf := map[string]string{} // signature key -> ordinal key
		oldOf := map[string]string{} // ordinal key -> signature key
		check := func(s *grammar.Sentence) {
			t.Helper()
			oldKey, newKey := signatureKey(s), s.Key()
			if k, ok := newOf[oldKey]; ok && k != newKey {
				t.Fatalf("%s: one signature key, two ordinal keys: %q", id, s.SQL)
			}
			if k, ok := oldOf[newKey]; ok && k != oldKey {
				t.Fatalf("%s: one ordinal key for %q and %q", id, oldKey, k)
			}
			newOf[oldKey], oldOf[newKey] = newKey, oldKey
		}
		reordered := 0
		for i := 0; i < 1500; i++ {
			s, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}
			check(s)
			if got := s.Template.Key(s.Literals); got != s.Key() {
				t.Fatalf("%s: Template.Key of the literal choice differs from Sentence.Key", id)
			}
			twin := map[string][]grammar.Literal{}
			for c, lits := range s.Literals {
				for j := len(lits) - 1; j >= 0; j-- {
					twin[c] = append(twin[c], lits[j])
				}
				if len(lits) > 1 {
					reordered++
				}
			}
			if got := s.Template.Key(twin); got != s.Key() {
				t.Fatalf("%s: key depends on literal order within a class: %q", id, s.SQL)
			}
			ts, err := gen.Materialize(s.Template, twin)
			if err != nil {
				t.Fatal(err)
			}
			check(ts)
		}
		if reordered == 0 || len(newOf) < 100 {
			t.Errorf("%s: %d distinct sentences, %d reordered classes — the property was not exercised", id, len(newOf), reordered)
		}
	}
}
