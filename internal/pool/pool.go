// Package pool implements the sqalpel query pool: the working set of query
// variants derived from a project's grammar. The pool is seeded with the
// baseline query (and optionally a batch of random templates) and then grown
// with the three morphing strategies of the paper — alter, expand and prune
// — under the fine-grained steering controls the project owner has
// (strategy selection, lexical include/exclude lists, a hard size cap).
//
// Growth is deterministic: every random choice draws from the pool's seeded
// RNG, entries are deduplicated by their order-insensitive sentence key and
// numbered in insertion order. A Pool is therefore deliberately not safe
// for concurrent mutation — the concurrent search (internal/discriminative
// with internal/sched) parallelises measurement only and keeps all pool
// growth on one goroutine, which is what makes search results reproducible
// at any worker count; the server serialises the grow requests of one
// experiment.
//
// The morphs walk the enumeration's template lattice (grammar.Enumeration's
// Expansions / Reductions): expand and prune draw their target from the
// source template's memoised neighbour list and fail at once when it is
// empty. A candidate is identified by its key — template ordinal plus
// literal lines, computable from the literal choice alone — and looked up in
// the pool before anything is rendered, so the duplicates a filling pool
// mostly produces cost a map lookup, not a Materialize. The rule that keeps
// a seed's pool stable across such changes: only work that draws no random
// number may be skipped, reordered or cached; the sequence of draws (source,
// class or target, literal, victim) is part of the pool's contract and is
// pinned by the golden variant sets in internal/core/testdata.
package pool

import (
	"fmt"
	"math/rand"
	"strings"

	"sqalpel/internal/grammar"
)

// Strategy identifies how a pool entry came to be.
type Strategy string

// The pool growth strategies. Baseline and Random describe seeding; Alter,
// Expand and Prune are the paper's morphing strategies.
const (
	StrategyBaseline Strategy = "baseline"
	StrategyRandom   Strategy = "random"
	StrategyAlter    Strategy = "alter"
	StrategyExpand   Strategy = "expand"
	StrategyPrune    Strategy = "prune"
)

// MorphStrategies are the strategies usable by Grow.
var MorphStrategies = []Strategy{StrategyAlter, StrategyExpand, StrategyPrune}

// Entry is one query in the pool.
type Entry struct {
	// ID is the pool-local identifier, assigned in insertion order from 1.
	ID int
	// SQL is the concrete query text.
	SQL string
	// Strategy records how the entry was created.
	Strategy Strategy
	// ParentID is the entry this one was morphed from; zero for seeds. It is
	// the provenance the experiment-history visualisation draws as dashed
	// morph edges.
	ParentID int
	// Components is the number of lexical components in the query (the node
	// size in the history plot).
	Components int

	sentence *grammar.Sentence
	terms    []string
}

// Sentence exposes the underlying grammar sentence.
//
//lint:api a variant's provenance (template, chosen literals); the server's term-order test reads it
func (e *Entry) Sentence() *grammar.Sentence { return e.sentence }

// Terms returns the texts of the query's literals: its classes in sorted
// order, each class's literals in injection order. The order is a function
// of the entry alone, so records and runs built from it are the same on
// every run. The slice is built once, when the entry is added, and shared:
// callers must not modify it.
func (e *Entry) Terms() []string { return e.terms }

// Steering is the fine-grained control the project owner has over pool
// growth.
type Steering struct {
	// IncludeLiterals lists literal texts that must appear in every newly
	// generated query (substring match on the literal text).
	IncludeLiterals []string
	// ExcludeLiterals lists literal texts that must not appear.
	ExcludeLiterals []string
	// Strategies restricts Grow to a subset of the morphing strategies;
	// empty means all three.
	Strategies []Strategy
}

func (s Steering) allowedStrategies() []Strategy {
	if len(s.Strategies) == 0 {
		return MorphStrategies
	}
	return s.Strategies
}

// allows reports whether the sentence respects the include/exclude lists.
func (s Steering) allows(sent *grammar.Sentence) bool {
	for _, excl := range s.ExcludeLiterals {
		if excl != "" && strings.Contains(sent.SQL, excl) {
			return false
		}
	}
	for _, incl := range s.IncludeLiterals {
		if incl != "" && !strings.Contains(sent.SQL, incl) {
			return false
		}
	}
	return true
}

// Options configure a pool.
type Options struct {
	// Seed drives the deterministic random choices.
	Seed int64
	// MaxSize caps the pool, mirroring the platform's hard limit on derived
	// queries; zero means 10000.
	MaxSize int
	// Enumerate overrides the grammar enumeration options.
	Enumerate grammar.EnumerateOptions
}

// DefaultMaxSize is the default pool cap.
const DefaultMaxSize = 10000

// Pool is the query pool of one experiment.
type Pool struct {
	gen     *grammar.Generator
	rng     *rand.Rand
	entries []*Entry
	byKey   map[string]*Entry
	maxSize int
	steer   Steering
	// allowed caches allowedLiterals per class for the current steering.
	allowed map[string][]grammar.Literal
}

// New creates a pool over the grammar and seeds it with the baseline query
// (the deterministic realisation of the largest template).
func New(g *grammar.Grammar, opts Options) (*Pool, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxSize == 0 {
		opts.MaxSize = DefaultMaxSize
	}
	gen, err := grammar.NewGenerator(g, grammar.GeneratorOptions{
		Seed:      opts.Seed,
		Enumerate: opts.Enumerate,
	})
	if err != nil {
		return nil, err
	}
	p := &Pool{
		gen:     gen,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		byKey:   map[string]*Entry{},
		maxSize: opts.MaxSize,
	}
	base, err := gen.Baseline()
	if err != nil {
		return nil, fmt.Errorf("seeding pool with baseline: %w", err)
	}
	p.add(base.Key(), base, StrategyBaseline, 0)
	return p, nil
}

// SetSteering replaces the steering configuration; a new pool is
// unsteered.
func (p *Pool) SetSteering(s Steering) {
	p.steer = s
	p.allowed = nil
}

// Size returns the number of entries in the pool.
func (p *Pool) Size() int { return len(p.entries) }

// Entries returns the pool entries in insertion order.
func (p *Pool) Entries() []*Entry {
	return append([]*Entry(nil), p.entries...)
}

// Baseline returns the seed entry.
func (p *Pool) Baseline() *Entry { return p.entries[0] }

// Generator exposes the underlying sentence generator.
//
//lint:api BenchmarkPoolGrow reports the template count a pool grows over
func (p *Pool) Generator() *grammar.Generator { return p.gen }

// add inserts a sentence under its key unless the key is already known or
// the cap is reached; it returns the new entry, or nil.
func (p *Pool) add(key string, sent *grammar.Sentence, strategy Strategy, parent int) *Entry {
	if _, known := p.byKey[key]; known || len(p.entries) >= p.maxSize {
		return nil
	}
	e := &Entry{
		ID:         len(p.entries) + 1,
		SQL:        sent.SQL,
		Strategy:   strategy,
		ParentID:   parent,
		Components: sent.Components(),
		sentence:   sent,
		terms:      make([]string, 0, sent.Components()),
	}
	for _, class := range sent.Template.Classes() {
		for _, l := range sent.Literals[class] {
			e.terms = append(e.terms, l.Text)
		}
	}
	p.entries = append(p.entries, e)
	p.byKey[key] = e
	return e
}

// admit adds the sentence that fills tpl with the chosen literals. The key
// needs no SQL, so a choice the pool already holds costs one map lookup;
// only a new one is rendered and checked against the steering lists. It
// returns nil when nothing was added.
func (p *Pool) admit(tpl *grammar.Template, chosen map[string][]grammar.Literal, strategy Strategy, parent int) (*Entry, error) {
	key := tpl.Key(chosen)
	if _, known := p.byKey[key]; known {
		return nil, nil
	}
	sent, err := p.gen.Materialize(tpl, chosen)
	if err != nil {
		return nil, err
	}
	if !p.steer.allows(sent) {
		return nil, nil
	}
	return p.add(key, sent, strategy, parent), nil
}

// full reports that the pool holds every sentence of the grammar's query
// space: each entry is a distinct (template, literal set), the space counts
// exactly those, so nothing can be added any more under any steering.
func (p *Pool) full() bool {
	enum := p.gen.Enumeration()
	return !enum.SpaceSaturated() && uint64(len(p.entries)) >= enum.Space
}

// SeedRandom adds up to n random sentences from randomly chosen templates,
// honouring the steering lists. It returns the entries actually added, and
// returns as soon as the pool holds the whole query space.
func (p *Pool) SeedRandom(n int) ([]*Entry, error) {
	var added []*Entry
	attempts := 0
	for len(added) < n && attempts < n*20+20 && !p.full() {
		attempts++
		sent, err := p.gen.Generate()
		if err != nil {
			return added, err
		}
		if !p.steer.allows(sent) {
			continue
		}
		if e := p.add(sent.Key(), sent, StrategyRandom, 0); e != nil {
			added = append(added, e)
		}
	}
	return added, nil
}

// pickSource selects a random existing entry to morph from.
func (p *Pool) pickSource() *Entry {
	return p.entries[p.rng.Intn(len(p.entries))]
}

// Alter picks a query from the pool and replaces one literal with another
// literal of the same lexical class; the result is added unless already
// known.
func (p *Pool) Alter() (*Entry, error) {
	for attempt := 0; attempt < 20; attempt++ {
		if e, err := p.AlterFrom(p.pickSource()); err == nil {
			return e, nil
		}
	}
	return nil, fmt.Errorf("alter: no new variant found")
}

// AlterFrom morphs a specific pool entry by swapping one literal; the guided
// discriminative search uses it to focus on interesting queries.
func (p *Pool) AlterFrom(src *Entry) (*Entry, error) {
	sent := src.sentence
	// Candidate classes: used in the sentence and with spare literals.
	var classes []string
	for _, class := range sent.Template.Classes() {
		if len(p.allowedLiterals(class)) > len(sent.Literals[class]) {
			classes = append(classes, class)
		}
	}
	for attempt := 0; attempt < 20 && len(classes) > 0; attempt++ {
		class := classes[p.rng.Intn(len(classes))]
		used := sent.Literals[class]
		replacement, found := p.randomUnusedLiteral(class, used)
		if !found {
			continue
		}
		victim := p.rng.Intn(len(used))

		// The other classes keep the source's literals; nothing below writes
		// through them, so they are shared, not copied.
		chosen := make(map[string][]grammar.Literal, len(sent.Literals))
		for c, lits := range sent.Literals {
			chosen[c] = lits
		}
		altered := append([]grammar.Literal(nil), used...)
		altered[victim] = replacement
		chosen[class] = altered
		if e, err := p.admit(sent.Template, chosen, StrategyAlter, src.ID); e != nil || err != nil {
			return e, err
		}
	}
	return nil, fmt.Errorf("alter: no new variant found")
}

// Expand takes a query from the pool and moves it to a slightly larger
// template (one more lexical component), keeping the existing literals and
// adding a random one for the new slot.
func (p *Pool) Expand() (*Entry, error) {
	return p.resize(+1, StrategyExpand)
}

// Prune is the reverse of Expand: it moves a query to a template with one
// lexical component fewer, the preferred way to identify the contribution of
// sub-expressions in complex queries.
func (p *Pool) Prune() (*Entry, error) {
	return p.resize(-1, StrategyPrune)
}

// ExpandFrom expands a specific entry by one lexical component.
func (p *Pool) ExpandFrom(src *Entry) (*Entry, error) {
	return p.resizeFrom(src, +1, StrategyExpand)
}

// PruneFrom prunes a specific entry by one lexical component.
func (p *Pool) PruneFrom(src *Entry) (*Entry, error) {
	return p.resizeFrom(src, -1, StrategyPrune)
}

// resize implements Expand (+1) and Prune (-1) from random sources.
func (p *Pool) resize(delta int, strategy Strategy) (*Entry, error) {
	for attempt := 0; attempt < 20; attempt++ {
		if e, err := p.resizeFrom(p.pickSource(), delta, strategy); err == nil {
			return e, nil
		}
	}
	return nil, fmt.Errorf("%s: no new variant found", strategy)
}

// resizeFrom implements ExpandFrom (+1) and PruneFrom (-1): the candidate
// targets are the source template's neighbours in the enumeration's template
// lattice, so a source with none (the largest template cannot expand) fails
// at once.
func (p *Pool) resizeFrom(src *Entry, delta int, strategy Strategy) (*Entry, error) {
	sent := src.sentence
	var candidates []*grammar.Template
	if delta > 0 {
		candidates = p.gen.Enumeration().Expansions(sent.Template)
	} else {
		candidates = p.gen.Enumeration().Reductions(sent.Template)
	}
	for attempt := 0; attempt < 20 && len(candidates) > 0; attempt++ {
		target := candidates[p.rng.Intn(len(candidates))]

		chosen := make(map[string][]grammar.Literal, len(target.Counts))
		ok := true
		// Sorted: randomUnusedLiteral consumes the seeded generator.
		for _, class := range target.Classes() {
			occ := target.Counts[class]
			lits := sent.Literals[class]
			if len(lits) > occ {
				lits = lits[:occ]
			}
			if len(lits) < occ {
				// Grow a copy; a class that only keeps or drops literals shares
				// the source's slice.
				lits = append(make([]grammar.Literal, 0, occ), lits...)
			}
			for len(lits) < occ {
				lit, found := p.randomUnusedLiteral(class, lits)
				if !found {
					ok = false
					break
				}
				lits = append(lits, lit)
			}
			if !ok {
				break
			}
			chosen[class] = lits
		}
		if !ok {
			continue
		}
		if e, err := p.admit(target, chosen, strategy, src.ID); e != nil || err != nil {
			return e, err
		}
	}
	return nil, fmt.Errorf("%s: no new variant found", strategy)
}

// allowedLiterals filters the class literals through the steering exclude
// list, once per class and steering.
func (p *Pool) allowedLiterals(class string) []grammar.Literal {
	if lits, ok := p.allowed[class]; ok {
		return lits
	}
	lits := p.gen.ClassLiterals(class)
	if len(p.steer.ExcludeLiterals) > 0 {
		kept := lits[:0]
		for _, l := range lits {
			excluded := false
			for _, excl := range p.steer.ExcludeLiterals {
				if excl != "" && strings.Contains(l.Text, excl) {
					excluded = true
					break
				}
			}
			if !excluded {
				kept = append(kept, l)
			}
		}
		lits = kept
	}
	if p.allowed == nil {
		p.allowed = map[string][]grammar.Literal{}
	}
	p.allowed[class] = lits
	return lits
}

// randomUnusedLiteral draws one of the class's allowed literals that is not
// among used (literals are identified by their line).
func (p *Pool) randomUnusedLiteral(class string, used []grammar.Literal) (grammar.Literal, bool) {
	isUsed := func(line int) bool {
		for _, u := range used {
			if u.Line == line {
				return true
			}
		}
		return false
	}
	var buf [16]grammar.Literal // classes are small; no allocation per draw
	spare := buf[:0]
	for _, l := range p.allowedLiterals(class) {
		if !isUsed(l.Line) {
			spare = append(spare, l)
		}
	}
	if len(spare) == 0 {
		return grammar.Literal{}, false
	}
	return spare[p.rng.Intn(len(spare))], true
}

// Grow runs the guided random walk: it repeatedly applies one of the allowed
// morphing strategies until n new entries were added (or progress stalls, or
// the pool holds the whole query space) and returns the new entries.
func (p *Pool) Grow(n int) []*Entry {
	var added []*Entry
	stalls := 0
	strategies := p.steer.allowedStrategies()
	for len(added) < n && stalls < 3*n+10 && len(p.entries) < p.maxSize && !p.full() {
		strategy := strategies[p.rng.Intn(len(strategies))]
		var e *Entry
		var err error
		switch strategy {
		case StrategyAlter:
			e, err = p.Alter()
		case StrategyExpand:
			e, err = p.Expand()
		case StrategyPrune:
			e, err = p.Prune()
		default:
			err = fmt.Errorf("unknown strategy %q", strategy)
		}
		if err != nil || e == nil {
			stalls++
			continue
		}
		added = append(added, e)
	}
	return added
}
