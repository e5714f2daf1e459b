package grammar

import (
	"fmt"
	"math/rand"
	"strings"
)

// Generator realises concrete query sentences from a grammar: it picks
// templates and injects lexical literals, honouring the literal-once rule
// and optional dialect restrictions.
type Generator struct {
	grammar *Grammar
	norm    *Grammar
	enum    *Enumeration
	classes map[string][]Literal
	rng     *rand.Rand
	dialect string
}

// GeneratorOptions configure a Generator.
type GeneratorOptions struct {
	// Dialect selects dialect-tagged literals; untagged literals are always
	// eligible. Empty means "generic dialect only".
	Dialect string
	// Seed seeds the deterministic random source. A zero seed is replaced
	// with 1 so generators are reproducible by default.
	Seed int64
	// Enumerate are the options used to build the template set.
	Enumerate EnumerateOptions
}

// NewGenerator builds a generator for the grammar. The grammar is validated,
// normalised and enumerated once up front.
func NewGenerator(g *Grammar, opts GeneratorOptions) (*Generator, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Enumerate == (EnumerateOptions{}) {
		opts.Enumerate = DefaultEnumerateOptions()
	}
	norm, err := g.Normalize()
	if err != nil {
		return nil, err
	}
	enum, err := g.Enumerate(opts.Enumerate)
	if err != nil {
		return nil, err
	}
	gen := &Generator{
		grammar: g,
		norm:    norm,
		enum:    enum,
		classes: map[string][]Literal{},
		rng:     rand.New(rand.NewSource(opts.Seed)),
		dialect: strings.ToLower(opts.Dialect),
	}
	for _, r := range norm.LexicalRules() {
		for _, lit := range r.Literals() {
			if lit.Dialect == "" || lit.Dialect == gen.dialect {
				gen.classes[r.Name] = append(gen.classes[r.Name], lit)
			}
		}
	}
	return gen, nil
}

// Enumeration exposes the full enumeration result.
func (g *Generator) Enumeration() *Enumeration { return g.enum }

// Sentence is a generated concrete query together with its provenance.
type Sentence struct {
	// SQL is the rendered query text.
	SQL string
	// Template is the template the sentence was realised from.
	Template *Template
	// Literals maps each lexical class to the literal lines chosen, in the
	// order they were injected.
	Literals map[string][]Literal
}

// Components returns the number of lexical components in the sentence,
// matching the node-size metric of the paper's experiment-history figure.
func (s *Sentence) Components() int {
	n := 0
	//lint:ordered a sum does not observe iteration order
	for _, lits := range s.Literals {
		n += len(lits)
	}
	return n
}

// Key is the sentence's canonical identity for deduplication among the
// sentences of one Enumeration; see Template.Key, which computes the same
// key from a literal choice that has not been rendered yet.
func (s *Sentence) Key() string { return s.Template.Key(s.Literals) }

// RandomTemplate picks a template uniformly at random.
func (g *Generator) RandomTemplate() *Template {
	if len(g.enum.Templates) == 0 {
		return nil
	}
	return g.enum.Templates[g.rng.Intn(len(g.enum.Templates))]
}

// Baseline realises the "largest" template — the one with the most lexical
// components — choosing the first literal of every class deterministically.
// When a baseline query was converted into the grammar, this reconstructs a
// query equivalent to it (modulo normalised ordering).
func (g *Generator) Baseline() (*Sentence, error) {
	if len(g.enum.Templates) == 0 {
		return nil, fmt.Errorf("grammar yields no templates")
	}
	best := g.enum.Templates[0]
	for _, t := range g.enum.Templates {
		if t.Size() > best.Size() {
			best = t
		}
	}
	return g.realize(best, false)
}

// Generate realises a random sentence from a random template.
func (g *Generator) Generate() (*Sentence, error) {
	tpl := g.RandomTemplate()
	if tpl == nil {
		return nil, fmt.Errorf("grammar yields no templates")
	}
	return g.realize(tpl, true)
}

// realize injects literals into a template. When random is false the first
// literals of each class are used in order (deterministic realisation).
func (g *Generator) realize(tpl *Template, random bool) (*Sentence, error) {
	// Build per-class pools and verify capacity.
	// Classes are visited sorted: the shuffles consume the seeded generator,
	// so map order here would make a seed realise differently on every call.
	pools := map[string][]Literal{}
	for _, class := range tpl.Classes() {
		occ := tpl.Counts[class]
		avail := g.classes[class]
		if occ > len(avail) {
			return nil, fmt.Errorf("template needs %d literals of class %q, grammar offers %d (dialect %q)",
				occ, class, len(avail), g.dialect)
		}
		pool := append([]Literal(nil), avail...)
		if random {
			g.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		}
		pools[class] = pool
	}
	return g.materialize(tpl, pools), nil
}

// ClassLiterals returns the literals available to this generator (honouring
// its dialect) for the given lexical class.
func (g *Generator) ClassLiterals(class string) []Literal {
	return append([]Literal(nil), g.classes[class]...)
}

// Materialize renders a template given an explicit literal choice per class;
// the number of literals provided for each class must match the template's
// occurrence counts. It is the hook the query-pool morphing strategies use
// to build precise variants (swap one literal, add one, drop one).
func (g *Generator) Materialize(tpl *Template, chosen map[string][]Literal) (*Sentence, error) {
	for _, class := range tpl.Classes() {
		if occ := tpl.Counts[class]; len(chosen[class]) != occ {
			return nil, fmt.Errorf("template needs %d literals of class %q, got %d", occ, class, len(chosen[class]))
		}
	}
	return g.materialize(tpl, chosen), nil
}

// materialize renders a template given an explicit literal choice per
// class: the i-th reference to a class takes the class's i-th literal, so a
// class may offer more literals than the template uses.
func (g *Generator) materialize(tpl *Template, chosen map[string][]Literal) *Sentence {
	sent := &Sentence{Template: tpl, Literals: map[string][]Literal{}}
	var parts []string
	used := map[string]int{}
	for _, e := range tpl.Elements {
		if !e.IsRef() {
			parts = append(parts, e.Text)
			continue
		}
		idx := used[e.Ref]
		used[e.Ref]++
		lit := chosen[e.Ref][idx]
		sent.Literals[e.Ref] = append(sent.Literals[e.Ref], lit)
		parts = append(parts, lit.Text)
	}
	sent.SQL = JoinSQL(parts)
	return sent
}

// JoinSQL joins query fragments with single spaces and fixes the spacing
// artefacts that naive joining produces (space before commas and closing
// parentheses, space after opening parentheses).
func JoinSQL(parts []string) string {
	joined := strings.Join(parts, " ")
	joined = strings.Join(strings.Fields(joined), " ")
	joined = strings.ReplaceAll(joined, " ,", ",")
	joined = strings.ReplaceAll(joined, "( ", "(")
	joined = strings.ReplaceAll(joined, " )", ")")
	return strings.TrimSpace(joined)
}
