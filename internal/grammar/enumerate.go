package grammar

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultTemplateCap is the hard system limit on the number of distinct
// templates derived from a grammar, mirroring the paper's ">100K" cap in the
// TPC-H query-space table.
const DefaultTemplateCap = 100000

// DefaultMaxDepth bounds the number of structural expansion steps along one
// derivation path, which keeps recursive grammars finite. Non-recursive
// grammars derived from even very wide baseline queries stay well below it.
const DefaultMaxDepth = 400

// Template is one query template: the expansion of the start rule in which
// only keywords (literal text coming from structural rules) and references
// to lexical token classes remain. Following the paper, the order of lexical
// tokens is ignored; a template is therefore identified by its keyword
// skeleton plus the multiset of lexical class occurrences.
//
// Templates come from Enumerate, which numbers them and computes their size
// and sorted class list once; Size, Classes and Key read those and are only
// meaningful on enumerated templates.
type Template struct {
	// Elements is one representative element sequence for the template
	// (literal text plus references to lexical rules only). It is used to
	// realise concrete sentences.
	Elements []Element
	// Counts maps lexical class (rule name) to the number of occurrences in
	// the template.
	Counts map[string]int

	ord     int      // index in Enumeration.Templates
	size    int      // sum of Counts
	classes []string // keys of Counts, sorted
}

// Signature returns the canonical identity of the template: the keyword
// skeleton with lexical references replaced by their class name, plus the
// sorted class counts. Two templates that differ only in the order of
// lexical tokens share a signature. Enumerate builds it once per derivation
// to deduplicate; afterwards a template is identified by its ordinal (see
// Key), so the string is not retained.
func (t *Template) Signature() string {
	var kw []string
	for _, e := range t.Elements {
		if !e.IsRef() {
			kw = append(kw, strings.ToUpper(e.Text))
		}
	}
	var counts []string
	for _, c := range t.classes {
		counts = append(counts, fmt.Sprintf("%s=%d", c, t.Counts[c]))
	}
	return strings.Join(kw, " ") + " | " + strings.Join(counts, ",")
}

// Size returns the number of lexical token slots in the template; the paper
// uses this as the "number of components" of a query.
func (t *Template) Size() int { return t.size }

// Classes lists the lexical classes the template draws literals from,
// sorted — the order every seeded or error-reporting walk over Counts uses.
// The slice is shared; callers must not modify it.
func (t *Template) Classes() []string { return t.classes }

// Key is the canonical identity of the sentence that fills the template
// with the chosen literals, for deduplication within one Enumeration: the
// template's ordinal, then per class (sorted) the number of literals and
// their sorted lines — order within a class is irrelevant, matching the
// paper's order-insensitive treatment. It needs only the literal choice, so
// a caller can tell a duplicate before rendering any SQL.
func (t *Template) Key(chosen map[string][]Literal) string {
	var scratch [16]int
	buf := make([]byte, 0, 48)
	buf = binary.AppendUvarint(buf, uint64(t.ord))
	for _, class := range t.classes {
		lines := scratch[:0]
		for _, l := range chosen[class] {
			// Insertion sort: a class contributes a handful of literals.
			i := len(lines)
			lines = append(lines, l.Line)
			for ; i > 0 && lines[i-1] > l.Line; i-- {
				lines[i] = lines[i-1]
			}
			lines[i] = l.Line
		}
		buf = binary.AppendUvarint(buf, uint64(len(lines)))
		for _, line := range lines {
			buf = binary.AppendVarint(buf, int64(line))
		}
	}
	return string(buf)
}

// Combinations returns the number of concrete queries this template yields
// under the literal-once rule with order ignored: the product over lexical
// classes of C(classSize, occurrences). Templates requesting more
// occurrences of a class than it has literals yield zero.
func (t *Template) Combinations(classSizes map[string]int) uint64 {
	total := uint64(1)
	//lint:ordered a saturating product with a zero short-circuit is the same in any order
	for class, occ := range t.Counts {
		n := classSizes[class]
		c := binomial(n, occ)
		if c == 0 {
			return 0
		}
		total = satMul(total, c)
	}
	return total
}

// OrderedCombinations returns the number of concrete queries when the order
// of lexical tokens is considered significant: the product of falling
// factorials n*(n-1)*...*(n-k+1). It exists for the ablation benchmark that
// quantifies how much the paper's order-insensitive counting shrinks the
// space.
func (t *Template) OrderedCombinations(classSizes map[string]int) uint64 {
	total := uint64(1)
	//lint:ordered a saturating product with a zero short-circuit is the same in any order
	for class, occ := range t.Counts {
		n := classSizes[class]
		if occ > n {
			return 0
		}
		for i := 0; i < occ; i++ {
			total = satMul(total, uint64(n-i))
		}
	}
	return total
}

// binomial computes C(n, k) with saturation at math.MaxUint64.
func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k == 0 || k == n {
		return 1
	}
	if k > n-k {
		k = n - k
	}
	result := uint64(1)
	for i := 1; i <= k; i++ {
		// result = result * (n - k + i) / i, keeping exact integer math.
		result = satMul(result, uint64(n-k+i))
		if result != math.MaxUint64 {
			result /= uint64(i)
		}
	}
	return result
}

// satMul multiplies with saturation at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// satAdd adds with saturation at math.MaxUint64.
func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// EnumerateOptions control template enumeration.
type EnumerateOptions struct {
	// TemplateCap is the hard limit on the number of distinct templates;
	// zero means DefaultTemplateCap.
	TemplateCap int
	// MaxDepth bounds the number of structural expansion steps along a
	// single derivation path; zero means DefaultMaxDepth. Small values make
	// recursive grammars terminate quickly at the cost of missing deep
	// derivations.
	MaxDepth int
	// LiteralOnce enforces the paper's rule that a literal is used at most
	// once per query. Enumerations with the rule disabled (used by the
	// ablation bench) bound starred repetitions by 3.
	LiteralOnce bool
	// OrderSensitive switches space counting to ordered enumeration; it only
	// affects SpaceSize, not the template set.
	OrderSensitive bool
}

func (o EnumerateOptions) withDefaults() EnumerateOptions {
	if o.TemplateCap == 0 {
		o.TemplateCap = DefaultTemplateCap
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	return o
}

// DefaultEnumerateOptions returns the options used by the platform: paper
// semantics (literal-once, order-insensitive) with the default cap.
func DefaultEnumerateOptions() EnumerateOptions {
	return EnumerateOptions{LiteralOnce: true}
}

// Enumeration is the result of enumerating a grammar's query space.
type Enumeration struct {
	// Templates are the distinct templates found, in discovery order.
	Templates []*Template
	// Capped is true when the template cap stopped the enumeration early;
	// counts are then lower bounds (the paper reports these as ">100K").
	Capped bool
	// Space is the total number of concrete queries across all templates
	// (saturating at MaxUint64).
	Space uint64
	// Tags is the total number of lexical literals defined by the grammar.
	Tags int

	lat lattice
}

// TemplateCount returns the number of distinct templates.
func (e *Enumeration) TemplateCount() int { return len(e.Templates) }

// spaceSaturated is the single definition of the saturation condition; the
// accessors and the formatter all share it.
func spaceSaturated(space uint64) bool { return space == math.MaxUint64 }

// SpaceSaturated reports whether the space count hit the uint64 saturation
// ceiling; the count is then a lower bound, not an exact number.
func (e *Enumeration) SpaceSaturated() bool { return spaceSaturated(e.Space) }

// SaturatedSpaceLabel is how saturated space counts are reported to humans:
// the uint64 ceiling (~1.8e19) as a lower bound, never as an exact figure.
const SaturatedSpaceLabel = ">= 1.8e19 (saturated)"

// FormatSpace renders a space count for display, reporting saturated counts
// as a lower bound instead of silently misreporting MaxUint64 as exact.
func FormatSpace(space uint64) string {
	if spaceSaturated(space) {
		return SaturatedSpaceLabel
	}
	return fmt.Sprintf("%d", space)
}

// Enumerate derives the query space of the grammar: all distinct templates
// (up to the cap) and the total space size. The grammar must validate.
func (g *Grammar) Enumerate(opts EnumerateOptions) (*Enumeration, error) {
	opts = opts.withDefaults()
	norm, err := g.Normalize()
	if err != nil {
		return nil, err
	}
	classSizes := norm.LexicalClasses()

	enum := &Enumeration{Tags: len(norm.Literals())}
	seen := map[string]bool{}
	lex := map[string]bool{}
	for _, r := range norm.LexicalRules() {
		lex[r.Name] = true
	}

	// withinCapacity prunes derivation paths whose lexical reference counts
	// already exceed the literal-once capacity of a class: counts only grow
	// as expansion proceeds, so every completion would be invalid too.
	withinCapacity := func(elems []Element) bool {
		if !opts.LiteralOnce {
			return true
		}
		counts := map[string]int{}
		for _, e := range elems {
			if e.IsRef() && lex[e.Ref] && e.Kind == RefRequired {
				counts[e.Ref]++
				if counts[e.Ref] > classSizes[e.Ref] {
					return false
				}
			}
		}
		return true
	}

	// emit records one completed derivation; it returns false when the
	// template cap has been reached and the enumeration should stop.
	emit := func(elems []Element) bool {
		tpl := buildTemplate(elems)
		if opts.LiteralOnce && !fitsCapacity(tpl, classSizes) {
			return true
		}
		sig := tpl.Signature()
		if seen[sig] {
			return true
		}
		seen[sig] = true
		tpl.ord = len(enum.Templates)
		enum.Templates = append(enum.Templates, tpl)
		if len(enum.Templates) >= opts.TemplateCap {
			enum.Capped = true
			return false
		}
		return true
	}

	// expand walks one derivation path depth-first, expanding the first
	// non-terminal element; it returns false when the enumeration should
	// stop entirely (cap reached).
	var expand func(elems []Element, depth int) bool
	expand = func(elems []Element, depth int) bool {
		idx := -1
		for i, e := range elems {
			if e.IsRef() && !lex[e.Ref] {
				idx = i
				break
			}
			if e.IsRef() && lex[e.Ref] && e.Kind != RefRequired {
				idx = i
				break
			}
		}
		if idx < 0 {
			return emit(elems)
		}
		if depth > opts.MaxDepth {
			// Too deep: drop this derivation path but keep enumerating.
			enum.Capped = true
			return true
		}
		target := elems[idx]
		prefix := elems[:idx]
		suffix := elems[idx+1:]

		tryVariant := func(middle []Element) bool {
			v := make([]Element, 0, len(prefix)+len(middle)+len(suffix))
			v = append(v, prefix...)
			v = append(v, middle...)
			v = append(v, suffix...)
			if !withinCapacity(v) {
				return true
			}
			return expand(v, depth+1)
		}

		switch target.Kind {
		case RefOptional:
			if !tryVariant(nil) {
				return false
			}
			return tryVariant([]Element{{Ref: target.Ref, Kind: RefRequired}})
		case RefStar:
			// Zero or more required occurrences. The repetition bound is the
			// total literal capacity reachable from the referenced rule (the
			// literal-once rule caps deeper anyway) or 3 when literal reuse
			// is allowed.
			maxRep := norm.literalCapacity(target.Ref)
			if !opts.LiteralOnce {
				maxRep = 3
			}
			for rep := 0; rep <= maxRep; rep++ {
				middle := make([]Element, 0, rep)
				for i := 0; i < rep; i++ {
					middle = append(middle, Element{Ref: target.Ref, Kind: RefRequired})
				}
				if !tryVariant(middle) {
					return false
				}
			}
			return true
		default: // RefRequired on a structural rule
			rule := norm.Rule(target.Ref)
			for _, alt := range rule.Alternatives {
				if !tryVariant(alt.Elements) {
					return false
				}
			}
			return true
		}
	}

	start := norm.Rule(norm.Start)
	if start == nil {
		return nil, fmt.Errorf("start rule %q not defined", norm.Start)
	}
	for _, alt := range start.Alternatives {
		if !expand(alt.Elements, 0) {
			break
		}
	}

	for _, tpl := range enum.Templates {
		var c uint64
		if opts.OrderSensitive {
			c = tpl.OrderedCombinations(classSizes)
		} else {
			c = tpl.Combinations(classSizes)
		}
		enum.Space = satAdd(enum.Space, c)
	}
	enum.lat.bucket(enum.Templates)
	return enum, nil
}

// buildTemplate collects the lexical class counts of a fully expanded
// element sequence, and from them the template's size and sorted classes.
func buildTemplate(elems []Element) *Template {
	tpl := &Template{Elements: append([]Element(nil), elems...), Counts: map[string]int{}}
	for _, e := range elems {
		if e.IsRef() {
			tpl.Counts[e.Ref]++
			tpl.size++
		}
	}
	tpl.classes = make([]string, 0, len(tpl.Counts))
	for c := range tpl.Counts {
		tpl.classes = append(tpl.classes, c)
	}
	sort.Strings(tpl.classes)
	return tpl
}

// fitsCapacity reports whether the template respects the literal-once rule:
// no lexical class is referenced more often than it has literals.
func fitsCapacity(t *Template, classSizes map[string]int) bool {
	//lint:ordered a for-all test does not observe iteration order
	for class, occ := range t.Counts {
		if occ > classSizes[class] {
			return false
		}
	}
	return true
}

// literalCapacity returns the total number of literals reachable from the
// given rule; it bounds star repetitions under the literal-once rule.
func (g *Grammar) literalCapacity(name string) int {
	seen := map[string]bool{}
	var walk func(string) int
	walk = func(n string) int {
		if seen[n] {
			return 0
		}
		seen[n] = true
		r := g.Rule(n)
		if r == nil {
			return 0
		}
		if r.IsLexical() {
			return len(r.Literals())
		}
		total := 0
		for _, a := range r.Alternatives {
			for _, ref := range a.References() {
				total += walk(ref)
			}
		}
		return total
	}
	cap := walk(name)
	if cap < 1 {
		return 1
	}
	return cap
}

// SpaceSummary is the per-grammar row of the paper's Table 2: number of
// lexical tags, number of distinct templates and total space size.
type SpaceSummary struct {
	Tags      int
	Templates int
	Space     uint64
	Capped    bool
}

// String renders the summary the way the paper prints it: capped entries are
// shown as ">cap –", saturated spaces as a lower bound.
func (s SpaceSummary) String() string {
	if s.Capped {
		return fmt.Sprintf("%d >%d –", s.Tags, s.Templates)
	}
	return fmt.Sprintf("%d %d %s", s.Tags, s.Templates, FormatSpace(s.Space))
}

// Space computes the space summary of the grammar with the given options.
func (g *Grammar) Space(opts EnumerateOptions) (SpaceSummary, error) {
	enum, err := g.Enumerate(opts)
	if err != nil {
		return SpaceSummary{}, err
	}
	return SpaceSummary{
		Tags:      enum.Tags,
		Templates: enum.TemplateCount(),
		Space:     enum.Space,
		Capped:    enum.Capped,
	}, nil
}
