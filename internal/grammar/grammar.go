// Package grammar implements the sqalpel query-space grammar: a small
// EBNF-like domain specific language that describes a (potentially very
// large) space of SQL queries derived from a baseline query.
//
// A grammar is a list of named rules. Each rule has one or more
// alternatives; an alternative is free-format text with embedded references
// to other rules:
//
//	${name}   a required reference
//	$[name]   an optional reference
//	${name}*  a repeated reference (zero or more occurrences)
//
// Rules are split into two kinds during normalisation: lexical rules, whose
// alternatives contain no references and therefore only govern alternative
// text snippets (literals), and structural rules. By convention lexical rule
// names start with "l_", mirroring the paper's examples, but any rule with
// only literal alternatives is treated as lexical.
//
// Alternatives of lexical rules may be prefixed with "@dialect " to restrict
// a snippet to a specific SQL dialect (e.g. "@monetdb" or "@mssql"); see
// Dialect handling in generate.go.
//
// Enumerate expands the start rule into the grammar's distinct templates
// (keyword skeleton plus a multiset of lexical classes) and numbers them; a
// template's ordinal, size and sorted classes are computed there, once. The
// Enumeration also orders its templates as a lattice — b is directly above a
// when it has one lexical component more and at least a's count of every
// class — with size buckets built up front and each template's neighbour
// lists (Expansions, Reductions) memoised on first request (lattice.go);
// the query pool's expand and prune morphs walk it. A sentence's identity
// for deduplication (Template.Key, Sentence.Key) is the template ordinal
// plus the sorted literal lines per class, which needs no rendered SQL.
package grammar

import (
	"fmt"
	"strings"
)

// RefKind distinguishes the three reference syntaxes.
type RefKind int

// Reference kinds.
const (
	RefRequired RefKind = iota // ${name}
	RefOptional                // $[name]
	RefStar                    // ${name}*
)

func (k RefKind) String() string {
	switch k {
	case RefRequired:
		return "required"
	case RefOptional:
		return "optional"
	case RefStar:
		return "repeated"
	default:
		return "unknown"
	}
}

// Element is one piece of an alternative: either literal text or a reference
// to another rule.
type Element struct {
	// Text holds literal text when Ref is empty.
	Text string
	// Ref is the referenced rule name; empty for literal text elements.
	Ref  string
	Kind RefKind
}

// IsRef reports whether the element is a rule reference.
func (e Element) IsRef() bool { return e.Ref != "" }

// String renders the element back in grammar syntax.
func (e Element) String() string {
	if !e.IsRef() {
		return e.Text
	}
	switch e.Kind {
	case RefOptional:
		return "$[" + e.Ref + "]"
	case RefStar:
		return "${" + e.Ref + "}*"
	default:
		return "${" + e.Ref + "}"
	}
}

// Alternative is one production alternative of a rule.
type Alternative struct {
	// Dialect restricts the alternative to a named SQL dialect; empty means
	// the alternative applies to every dialect.
	Dialect string
	// Elements is the parsed sequence of literal snippets and references.
	Elements []Element
	// Line is the 1-based line number of the alternative in the grammar
	// source. The paper differentiates repeated literals by their line
	// number; this is that identity.
	Line int
}

// Text renders the alternative in grammar syntax (without the dialect tag).
func (a Alternative) Text() string {
	parts := make([]string, 0, len(a.Elements))
	for _, e := range a.Elements {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, " ")
}

// References returns the rule names referenced by this alternative, in
// order, including duplicates.
func (a Alternative) References() []string {
	var refs []string
	for _, e := range a.Elements {
		if e.IsRef() {
			refs = append(refs, e.Ref)
		}
	}
	return refs
}

// IsLexical reports whether the alternative contains no references.
func (a Alternative) IsLexical() bool {
	for _, e := range a.Elements {
		if e.IsRef() {
			return false
		}
	}
	return true
}

// Rule is a named grammar rule with one or more alternatives.
type Rule struct {
	Name         string
	Alternatives []Alternative
	// Line is the line number of the rule header in the grammar source.
	Line int
}

// IsLexical reports whether every alternative of the rule is literal-only.
func (r *Rule) IsLexical() bool {
	if len(r.Alternatives) == 0 {
		return false
	}
	for _, a := range r.Alternatives {
		if !a.IsLexical() {
			return false
		}
	}
	return true
}

// Literals returns the literal snippets of a lexical rule, one per
// alternative, each paired with its source line number (the paper's literal
// identity). For non-lexical rules it returns only the literal-only
// alternatives.
func (r *Rule) Literals() []Literal {
	var lits []Literal
	for _, a := range r.Alternatives {
		if a.IsLexical() {
			lits = append(lits, Literal{Rule: r.Name, Text: a.Text(), Line: a.Line, Dialect: a.Dialect})
		}
	}
	return lits
}

// Literal is one literal snippet of a lexical rule.
type Literal struct {
	Rule    string
	Text    string
	Line    int
	Dialect string
}

// Grammar is a parsed sqalpel query-space grammar.
type Grammar struct {
	// Rules in definition order.
	Rules []*Rule
	// Start is the name of the start rule; by default the first rule.
	Start string

	index map[string]*Rule
}

// New creates an empty grammar with the given start rule name.
func New(start string) *Grammar {
	return &Grammar{Start: start, index: map[string]*Rule{}}
}

// AddRule appends a rule. Adding a rule with an existing name merges the
// alternatives into the existing rule.
func (g *Grammar) AddRule(r *Rule) {
	if g.index == nil {
		g.index = map[string]*Rule{}
	}
	if existing, ok := g.index[r.Name]; ok {
		existing.Alternatives = append(existing.Alternatives, r.Alternatives...)
		return
	}
	g.Rules = append(g.Rules, r)
	g.index[r.Name] = r
	if g.Start == "" {
		g.Start = r.Name
	}
}

// Rule returns the rule with the given name, or nil.
func (g *Grammar) Rule(name string) *Rule {
	if g.index == nil {
		return nil
	}
	return g.index[name]
}

// LexicalRules returns the rules classified as lexical, in definition order.
func (g *Grammar) LexicalRules() []*Rule {
	var out []*Rule
	for _, r := range g.Rules {
		if r.IsLexical() {
			out = append(out, r)
		}
	}
	return out
}

// Literals returns every literal of every lexical rule.
func (g *Grammar) Literals() []Literal {
	var lits []Literal
	for _, r := range g.LexicalRules() {
		lits = append(lits, r.Literals()...)
	}
	return lits
}

// String renders the grammar in its source syntax: the start rule first,
// because Parse takes the first rule as the start, then the others in
// definition order.
func (g *Grammar) String() string {
	start := g.Rule(g.Start)
	rules := make([]*Rule, 0, len(g.Rules))
	if start != nil {
		rules = append(rules, start)
	}
	for _, r := range g.Rules {
		if r != start {
			rules = append(rules, r)
		}
	}
	var sb strings.Builder
	for i, r := range rules {
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(r.Name)
		sb.WriteString(":\n")
		for _, a := range r.Alternatives {
			sb.WriteString("\t")
			if a.Dialect != "" {
				sb.WriteString("@" + a.Dialect + " ")
			}
			sb.WriteString(a.Text())
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// Parse parses a grammar in the sqalpel source syntax:
//
//	rulename:
//	    alternative one
//	    alternative two
//
// A rule header is a line ending in ':'; subsequent indented (or simply
// non-header) lines up to the next header are its alternatives. Blank lines
// and lines starting with '#' are ignored.
func Parse(src string) (*Grammar, error) {
	g := New("")
	var current *Rule
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if isRuleHeader(line) {
			name := strings.TrimSpace(strings.TrimSuffix(trimmed, ":"))
			if name == "" {
				return nil, fmt.Errorf("line %d: empty rule name", lineNo+1)
			}
			if !validRuleName(name) {
				return nil, fmt.Errorf("line %d: invalid rule name %q", lineNo+1, name)
			}
			current = &Rule{Name: name, Line: lineNo + 1}
			g.AddRule(current)
			// AddRule may have merged into an existing rule; keep appending
			// alternatives to the canonical one.
			current = g.Rule(name)
			continue
		}
		if current == nil {
			return nil, fmt.Errorf("line %d: alternative %q before any rule header", lineNo+1, trimmed)
		}
		alt, err := parseAlternative(trimmed, lineNo+1)
		if err != nil {
			return nil, err
		}
		current.Alternatives = append(current.Alternatives, alt)
	}
	if len(g.Rules) == 0 {
		return nil, fmt.Errorf("grammar contains no rules")
	}
	for _, r := range g.Rules {
		if len(r.Alternatives) == 0 {
			return nil, fmt.Errorf("rule %q has no alternatives", r.Name)
		}
	}
	return g, nil
}

// isRuleHeader reports whether the line is a rule header. A header is an
// unindented line of the form "name:"; an alternative may legitimately end
// in ':' only if it is indented.
func isRuleHeader(line string) bool {
	if len(line) == 0 {
		return false
	}
	if line[0] == ' ' || line[0] == '\t' {
		return false
	}
	trimmed := strings.TrimSpace(line)
	if !strings.HasSuffix(trimmed, ":") {
		return false
	}
	return validRuleName(strings.TrimSuffix(trimmed, ":"))
}

func validRuleName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseAlternative splits an alternative line into literal and reference
// elements. The optional "@dialect " prefix is peeled off first.
func parseAlternative(text string, line int) (Alternative, error) {
	alt := Alternative{Line: line}
	if strings.HasPrefix(text, "@") {
		sp := strings.IndexAny(text, " \t")
		if sp < 0 {
			return alt, fmt.Errorf("line %d: dialect tag %q without a snippet", line, text)
		}
		alt.Dialect = strings.ToLower(text[1:sp])
		text = strings.TrimSpace(text[sp:])
	}
	elems, err := parseElements(text, line)
	if err != nil {
		return alt, err
	}
	alt.Elements = elems
	return alt, nil
}

func parseElements(text string, line int) ([]Element, error) {
	var elems []Element
	var lit strings.Builder
	flush := func() {
		s := strings.TrimSpace(lit.String())
		if s != "" {
			elems = append(elems, Element{Text: s})
		}
		lit.Reset()
	}
	i := 0
	for i < len(text) {
		if text[i] == '$' && i+1 < len(text) && (text[i+1] == '{' || text[i+1] == '[') {
			open := text[i+1]
			closeCh := byte('}')
			kind := RefRequired
			if open == '[' {
				closeCh = ']'
				kind = RefOptional
			}
			end := strings.IndexByte(text[i+2:], closeCh)
			if end < 0 {
				return nil, fmt.Errorf("line %d: unterminated reference in %q", line, text)
			}
			name := strings.TrimSpace(text[i+2 : i+2+end])
			if !validRuleName(name) {
				return nil, fmt.Errorf("line %d: invalid rule reference %q", line, name)
			}
			flush()
			i = i + 2 + end + 1
			if kind == RefRequired && i < len(text) && text[i] == '*' {
				kind = RefStar
				i++
			}
			elems = append(elems, Element{Ref: name, Kind: kind})
			continue
		}
		lit.WriteByte(text[i])
		i++
	}
	flush()
	if len(elems) == 0 {
		return nil, fmt.Errorf("line %d: empty alternative", line)
	}
	return elems, nil
}

// LexicalClasses returns, for every lexical rule, the number of literals it
// offers, keyed by rule name.
func (g *Grammar) LexicalClasses() map[string]int {
	out := map[string]int{}
	for _, r := range g.LexicalRules() {
		out[r.Name] = len(r.Literals())
	}
	return out
}
