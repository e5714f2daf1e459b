package grammar

import "fmt"

// Realizations enumerates every concrete sentence of a template (respecting
// the literal-once rule and ignoring order within a class), up to limit
// sentences. A limit of zero means no limit. No product code enumerates a
// template exhaustively; the tests check Generate against it.
func (g *Generator) Realizations(tpl *Template, limit int) ([]*Sentence, error) {
	classes := tpl.Classes()
	for _, c := range classes {
		if tpl.Counts[c] > len(g.classes[c]) {
			return nil, fmt.Errorf("template needs %d literals of class %q, grammar offers %d",
				tpl.Counts[c], c, len(g.classes[c]))
		}
	}
	// Enumerate combinations per class and take the cartesian product.
	perClass := make([][][]Literal, len(classes))
	for i, c := range classes {
		perClass[i] = combinations(g.classes[c], tpl.Counts[c])
	}
	var out []*Sentence
	var walk func(i int, chosen map[string][]Literal) bool
	walk = func(i int, chosen map[string][]Literal) bool {
		if i == len(classes) {
			sent := g.materialize(tpl, chosen)
			out = append(out, sent)
			return limit == 0 || len(out) < limit
		}
		for _, combo := range perClass[i] {
			chosen[classes[i]] = combo
			if !walk(i+1, chosen) {
				return false
			}
		}
		return true
	}
	walk(0, map[string][]Literal{})
	return out, nil
}

// combinations returns all k-subsets of lits, preserving order within each
// subset.
func combinations(lits []Literal, k int) [][]Literal {
	if k == 0 {
		return [][]Literal{nil}
	}
	if k > len(lits) {
		return nil
	}
	var out [][]Literal
	var rec func(start int, cur []Literal)
	rec = func(start int, cur []Literal) {
		if len(cur) == k {
			out = append(out, append([]Literal(nil), cur...))
			return
		}
		for i := start; i < len(lits); i++ {
			rec(i+1, append(cur, lits[i]))
		}
	}
	rec(0, nil)
	return out
}

// Fuse merges the alternatives of rule src into rule dst and removes src,
// rewriting references. The paper mentions rule fusion as the manual lever a
// project owner has to shrink the search space; no route exposes it yet, so
// it lives beside its test.
func (g *Grammar) Fuse(dst, src string) error {
	d, s := g.Rule(dst), g.Rule(src)
	if d == nil {
		return fmt.Errorf("fuse: unknown destination rule %q", dst)
	}
	if s == nil {
		return fmt.Errorf("fuse: unknown source rule %q", src)
	}
	if d == s {
		return fmt.Errorf("fuse: cannot fuse rule %q into itself", dst)
	}
	d.Alternatives = append(d.Alternatives, s.Alternatives...)
	// Rewrite references to src so they point at dst.
	for _, r := range g.Rules {
		for ai := range r.Alternatives {
			for ei := range r.Alternatives[ai].Elements {
				if r.Alternatives[ai].Elements[ei].Ref == src {
					r.Alternatives[ai].Elements[ei].Ref = dst
				}
			}
		}
	}
	// Remove src from the rule list and index.
	out := g.Rules[:0]
	for _, r := range g.Rules {
		if r.Name != src {
			out = append(out, r)
		}
	}
	g.Rules = out
	delete(g.index, src)
	if g.Start == src {
		g.Start = dst
	}
	return nil
}

// Saturated reports that Space hit the uint64 ceiling and is a lower bound;
// display layers must not print it as an exact count (FormatSpace handles
// this).
func (s SpaceSummary) Saturated() bool { return spaceSaturated(s.Space) }

// Clone returns a deep copy of the grammar.
func (g *Grammar) Clone() *Grammar {
	out := New(g.Start)
	for _, r := range g.Rules {
		nr := &Rule{Name: r.Name, Line: r.Line}
		nr.Alternatives = append(nr.Alternatives, r.Alternatives...)
		out.AddRule(nr)
	}
	return out
}
