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
// at any worker count.
package pool

import (
	"fmt"
	"math/rand"
	"sort"
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
}

// Sentence exposes the underlying grammar sentence.
func (e *Entry) Sentence() *grammar.Sentence { return e.sentence }

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
	// Dialect selects dialect-tagged literals.
	Dialect string
	// Steering is the initial steering configuration; it can be replaced
	// later with SetSteering.
	Steering Steering
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
		Dialect:   opts.Dialect,
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
		steer:   opts.Steering,
	}
	base, err := gen.Baseline()
	if err != nil {
		return nil, fmt.Errorf("seeding pool with baseline: %w", err)
	}
	p.add(base, StrategyBaseline, 0)
	return p, nil
}

// SetSteering replaces the steering configuration.
func (p *Pool) SetSteering(s Steering) { p.steer = s }

// Steering returns the current steering configuration.
func (p *Pool) Steering() Steering { return p.steer }

// Size returns the number of entries in the pool.
func (p *Pool) Size() int { return len(p.entries) }

// Entries returns the pool entries in insertion order.
func (p *Pool) Entries() []*Entry {
	return append([]*Entry(nil), p.entries...)
}

// Entry returns the entry with the given id, or nil.
func (p *Pool) Entry(id int) *Entry {
	if id < 1 || id > len(p.entries) {
		return nil
	}
	return p.entries[id-1]
}

// Baseline returns the seed entry.
func (p *Pool) Baseline() *Entry { return p.entries[0] }

// Generator exposes the underlying sentence generator.
func (p *Pool) Generator() *grammar.Generator { return p.gen }

// add inserts a sentence unless it is already known or the cap is reached;
// it returns the entry (existing or new) and whether it was newly added.
func (p *Pool) add(sent *grammar.Sentence, strategy Strategy, parent int) (*Entry, bool) {
	key := sent.Key()
	if existing, ok := p.byKey[key]; ok {
		return existing, false
	}
	if len(p.entries) >= p.maxSize {
		return nil, false
	}
	e := &Entry{
		ID:         len(p.entries) + 1,
		SQL:        sent.SQL,
		Strategy:   strategy,
		ParentID:   parent,
		Components: sent.Components(),
		sentence:   sent,
	}
	p.entries = append(p.entries, e)
	p.byKey[key] = e
	return e, true
}

// SeedRandom adds up to n random sentences from randomly chosen templates,
// honouring the steering lists. It returns the entries actually added.
func (p *Pool) SeedRandom(n int) ([]*Entry, error) {
	var added []*Entry
	attempts := 0
	for len(added) < n && attempts < n*20+20 {
		attempts++
		sent, err := p.gen.Generate()
		if err != nil {
			return added, err
		}
		if !p.steer.allows(sent) {
			continue
		}
		if e, ok := p.add(sent, StrategyRandom, 0); ok {
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
	for attempt := 0; attempt < 20; attempt++ {
		sent := src.sentence
		// Candidate classes: used in the sentence and with spare literals.
		var classes []string
		//lint:ordered filtered collect, sorted right below
		for class, used := range sent.Literals {
			if len(p.allowedLiterals(class)) > len(used) {
				classes = append(classes, class)
			}
		}
		if len(classes) == 0 {
			continue
		}
		sort.Strings(classes)
		class := classes[p.rng.Intn(len(classes))]
		used := sent.Literals[class]
		usedLines := map[int]bool{}
		for _, l := range used {
			usedLines[l.Line] = true
		}
		var spare []grammar.Literal
		for _, l := range p.allowedLiterals(class) {
			if !usedLines[l.Line] {
				spare = append(spare, l)
			}
		}
		if len(spare) == 0 {
			continue
		}
		replacement := spare[p.rng.Intn(len(spare))]
		victim := p.rng.Intn(len(used))

		chosen := map[string][]grammar.Literal{}
		for c, lits := range sent.Literals {
			chosen[c] = append([]grammar.Literal(nil), lits...)
		}
		chosen[class][victim] = replacement
		morphed, err := p.gen.Materialize(sent.Template, chosen)
		if err != nil {
			return nil, err
		}
		if !p.steer.allows(morphed) {
			continue
		}
		if e, ok := p.add(morphed, StrategyAlter, src.ID); ok {
			return e, nil
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

// resizeFrom implements ExpandFrom (+1) and PruneFrom (-1).
func (p *Pool) resizeFrom(src *Entry, delta int, strategy Strategy) (*Entry, error) {
	templates := p.gen.Templates()
	for attempt := 0; attempt < 20; attempt++ {
		sent := src.sentence
		targetSize := sent.Template.Size() + delta
		// Collect templates of the target size whose class counts differ
		// from the source in the right direction.
		var candidates []*grammar.Template
		for _, t := range templates {
			if t.Size() != targetSize {
				continue
			}
			if delta > 0 && !covers(t.Counts, sent.Template.Counts) {
				continue
			}
			if delta < 0 && !covers(sent.Template.Counts, t.Counts) {
				continue
			}
			candidates = append(candidates, t)
		}
		if len(candidates) == 0 {
			continue
		}
		target := candidates[p.rng.Intn(len(candidates))]

		chosen := map[string][]grammar.Literal{}
		ok := true
		// Sorted: randomUnusedLiteral consumes the seeded generator.
		for _, class := range target.Classes() {
			occ := target.Counts[class]
			existing := sent.Literals[class]
			if len(existing) > occ {
				existing = existing[:occ]
			}
			chosen[class] = append([]grammar.Literal(nil), existing...)
			for len(chosen[class]) < occ {
				lit, found := p.randomUnusedLiteral(class, chosen[class])
				if !found {
					ok = false
					break
				}
				chosen[class] = append(chosen[class], lit)
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		morphed, err := p.gen.Materialize(target, chosen)
		if err != nil {
			return nil, err
		}
		if !p.steer.allows(morphed) {
			continue
		}
		if e, ok := p.add(morphed, strategy, src.ID); ok {
			return e, nil
		}
	}
	return nil, fmt.Errorf("%s: no new variant found", strategy)
}

// covers reports whether counts a dominate counts b (a[c] >= b[c] for all c).
func covers(a, b map[string]int) bool {
	//lint:ordered a for-all test does not observe iteration order
	for c, n := range b {
		if a[c] < n {
			return false
		}
	}
	return true
}

// allowedLiterals filters the class literals through the steering lists.
func (p *Pool) allowedLiterals(class string) []grammar.Literal {
	all := p.gen.ClassLiterals(class)
	if len(p.steer.ExcludeLiterals) == 0 {
		return all
	}
	var out []grammar.Literal
	for _, l := range all {
		excluded := false
		for _, excl := range p.steer.ExcludeLiterals {
			if excl != "" && strings.Contains(l.Text, excl) {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, l)
		}
	}
	return out
}

func (p *Pool) randomUnusedLiteral(class string, used []grammar.Literal) (grammar.Literal, bool) {
	usedLines := map[int]bool{}
	for _, l := range used {
		usedLines[l.Line] = true
	}
	var spare []grammar.Literal
	for _, l := range p.allowedLiterals(class) {
		if !usedLines[l.Line] {
			spare = append(spare, l)
		}
	}
	if len(spare) == 0 {
		return grammar.Literal{}, false
	}
	return spare[p.rng.Intn(len(spare))], true
}

// Grow runs the guided random walk: it repeatedly applies one of the allowed
// morphing strategies until n new entries were added (or progress stalls)
// and returns the new entries.
func (p *Pool) Grow(n int) []*Entry {
	var added []*Entry
	stalls := 0
	strategies := p.steer.allowedStrategies()
	for len(added) < n && stalls < 3*n+10 && len(p.entries) < p.maxSize {
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
