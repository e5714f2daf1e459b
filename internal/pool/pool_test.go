package pool

import (
	"math/rand"
	"strings"
	"testing"

	"sqalpel/internal/derive"
	"sqalpel/internal/grammar"
	"sqalpel/internal/sqlparser"
	"sqalpel/internal/workload"
)

func nationPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	g, err := grammar.Parse(workload.NationSampleGrammar)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPoolSeedsBaseline(t *testing.T) {
	p := nationPool(t, Options{Seed: 3})
	if p.Size() != 1 {
		t.Fatalf("new pool size = %d, want 1", p.Size())
	}
	base := p.Baseline()
	if base.Strategy != StrategyBaseline || base.ParentID != 0 {
		t.Errorf("baseline entry = %+v", base)
	}
	if !strings.Contains(base.SQL, "FROM nation") {
		t.Errorf("baseline SQL = %q", base.SQL)
	}
	if base.Components < 5 {
		t.Errorf("baseline should use the largest template, components = %d", base.Components)
	}
	if p.Entry(1) != base || p.Entry(0) != nil || p.Entry(99) != nil {
		t.Error("Entry lookup wrong")
	}
}

func TestSeedRandomDeduplicates(t *testing.T) {
	p := nationPool(t, Options{Seed: 5})
	added, err := p.SeedRandom(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 {
		t.Fatal("no random entries added")
	}
	seen := map[string]bool{}
	for _, e := range p.Entries() {
		if seen[e.SQL] {
			t.Errorf("duplicate SQL in pool: %s", e.SQL)
		}
		seen[e.SQL] = true
	}
	// All entries parse.
	for _, e := range p.Entries() {
		if _, err := sqlparser.Parse(e.SQL); err != nil {
			t.Errorf("pool entry does not parse: %v\n%s", err, e.SQL)
		}
	}
}

func TestAlterChangesOneLiteral(t *testing.T) {
	p := nationPool(t, Options{Seed: 7})
	// The baseline uses every literal of every class, so it cannot be
	// altered; seed a few random variants first.
	if _, err := p.SeedRandom(5); err != nil {
		t.Fatal(err)
	}
	e, err := p.Alter()
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != StrategyAlter {
		t.Errorf("strategy = %s", e.Strategy)
	}
	if e.ParentID == 0 {
		t.Error("alter entries must record their parent")
	}
	parent := p.Entry(e.ParentID)
	if parent == nil {
		t.Fatal("parent not in pool")
	}
	if e.Components != parent.Components {
		t.Errorf("alter should keep the component count: %d vs %d", e.Components, parent.Components)
	}
	if e.SQL == parent.SQL {
		t.Error("alter produced an identical query")
	}
}

func TestExpandAndPruneChangeSize(t *testing.T) {
	p := nationPool(t, Options{Seed: 11})
	if _, err := p.SeedRandom(5); err != nil {
		t.Fatal(err)
	}
	exp, err := p.Expand()
	if err == nil {
		parent := p.Entry(exp.ParentID)
		if exp.Components != parent.Components+1 {
			t.Errorf("expand should add one component: %d -> %d", parent.Components, exp.Components)
		}
	}
	pr, err := p.Prune()
	if err != nil {
		t.Fatalf("prune failed: %v", err)
	}
	parent := p.Entry(pr.ParentID)
	if pr.Components != parent.Components-1 {
		t.Errorf("prune should drop one component: %d -> %d", parent.Components, pr.Components)
	}
	if pr.Strategy != StrategyPrune {
		t.Errorf("strategy = %s", pr.Strategy)
	}
}

func TestGrowMixesStrategies(t *testing.T) {
	p := nationPool(t, Options{Seed: 13})
	added := p.Grow(15)
	if len(added) < 5 {
		t.Fatalf("grow added only %d entries", len(added))
	}
	strategies := map[Strategy]bool{}
	for _, e := range added {
		strategies[e.Strategy] = true
		if e.ParentID == 0 {
			t.Error("morphed entries must have parents")
		}
	}
	if len(strategies) < 2 {
		t.Errorf("grow should mix strategies, saw %v", strategies)
	}
	// The pool never exceeds its size cap and never duplicates.
	if p.Size() > DefaultMaxSize {
		t.Error("pool exceeded cap")
	}
}

func TestGrowRespectsStrategySteering(t *testing.T) {
	p := nationPool(t, Options{Seed: 17})
	p.SetSteering(Steering{Strategies: []Strategy{StrategyPrune}})
	added := p.Grow(5)
	for _, e := range added {
		if e.Strategy != StrategyPrune {
			t.Errorf("steered grow produced %s entry", e.Strategy)
		}
	}
}

func TestSteeringExcludeInclude(t *testing.T) {
	p := nationPool(t, Options{Seed: 19})
	p.SetSteering(Steering{ExcludeLiterals: []string{"n_comment"}})
	added, err := p.SeedRandom(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range added {
		if strings.Contains(e.SQL, "n_comment") {
			t.Errorf("excluded literal appeared in %q", e.SQL)
		}
	}
	added2 := p.Grow(10)
	for _, e := range added2 {
		if strings.Contains(e.SQL, "n_comment") {
			t.Errorf("excluded literal appeared after morphing in %q", e.SQL)
		}
	}

	pInc := nationPool(t, Options{Seed: 23})
	pInc.SetSteering(Steering{IncludeLiterals: []string{"WHERE n_name = 'BRAZIL'"}})
	addedInc, err := pInc.SeedRandom(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range addedInc {
		if !strings.Contains(e.SQL, "BRAZIL") {
			t.Errorf("included literal missing from %q", e.SQL)
		}
	}
}

func TestPoolCap(t *testing.T) {
	p := nationPool(t, Options{Seed: 29, MaxSize: 3})
	p.SeedRandom(50)
	p.Grow(50)
	if p.Size() > 3 {
		t.Errorf("pool size %d exceeds cap 3", p.Size())
	}
}

func TestPoolOnDerivedTPCHGrammar(t *testing.T) {
	q1, _ := workload.TPCHQuery("Q1")
	g, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Options{Seed: 31, Enumerate: grammar.EnumerateOptions{TemplateCap: 3000, LiteralOnce: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SeedRandom(10); err != nil {
		t.Fatal(err)
	}
	added := p.Grow(20)
	if len(added) < 10 {
		t.Fatalf("grow on Q1 grammar added only %d entries", len(added))
	}
	for _, e := range p.Entries() {
		if _, err := sqlparser.Parse(e.SQL); err != nil {
			t.Errorf("entry does not parse: %v\n%s", err, e.SQL)
		}
		if !strings.Contains(e.SQL, "FROM lineitem") {
			t.Errorf("entry lost the FROM clause: %s", e.SQL)
		}
	}
	// The baseline keeps all ten projection elements.
	if p.Baseline().Components < 10 {
		t.Errorf("Q1 baseline components = %d, want >= 10", p.Baseline().Components)
	}
}

func TestDeterministicPools(t *testing.T) {
	p1 := nationPool(t, Options{Seed: 37})
	p2 := nationPool(t, Options{Seed: 37})
	p1.SeedRandom(5)
	p2.SeedRandom(5)
	p1.Grow(10)
	p2.Grow(10)
	e1, e2 := p1.Entries(), p2.Entries()
	if len(e1) != len(e2) {
		t.Fatalf("pool sizes differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].SQL != e2[i].SQL || e1[i].Strategy != e2[i].Strategy {
			t.Fatalf("entry %d differs: %q vs %q", i, e1[i].SQL, e2[i].SQL)
		}
	}
}

// TestSeedRandomRepeatsForASeed pins the seed contract on a grammar with
// several literal classes: the realisation shuffles consume the seeded
// generator once per class, so visiting the classes in map order gave a
// different pool on (nearly) every call with the same seed.
func TestSeedRandomRepeatsForASeed(t *testing.T) {
	q1, _ := workload.TPCHQuery("Q1")
	g, err := derive.FromSQL(q1.SQL, derive.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for call := 0; call < 6; call++ {
		p, err := New(g, Options{Seed: 42, Enumerate: grammar.EnumerateOptions{TemplateCap: 3000, LiteralOnce: true}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.SeedRandom(12); err != nil {
			t.Fatal(err)
		}
		var sqls []string
		for _, e := range p.Entries() {
			sqls = append(sqls, e.SQL)
		}
		if call == 0 {
			first = sqls
			continue
		}
		if strings.Join(sqls, "\n") != strings.Join(first, "\n") {
			t.Fatalf("SeedRandom call %d with seed 42 built a different pool:\n%s\nvs\n%s",
				call, strings.Join(sqls, "\n"), strings.Join(first, "\n"))
		}
	}
}

// countingSource counts the draws a pool makes from its seeded generator.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// TestFullPoolStopsAtOnce: once the pool holds the grammar's whole query
// space (32 sentences for the Figure 1 sample) Grow and SeedRandom return
// without drawing a single random number, instead of retrying morphs that
// cannot succeed.
func TestFullPoolStopsAtOnce(t *testing.T) {
	p := nationPool(t, Options{Seed: 41})
	space := p.Generator().Enumeration().Space
	if _, err := p.SeedRandom(200); err != nil {
		t.Fatal(err)
	}
	p.Grow(200)
	if uint64(p.Size()) != space {
		t.Fatalf("pool holds %d of %d sentences after asking for 400", p.Size(), space)
	}

	counter := &countingSource{src: rand.NewSource(1)}
	p.rng = rand.New(counter)
	if added := p.Grow(1000); len(added) != 0 {
		t.Errorf("Grow on a full pool added %d entries", len(added))
	}
	if counter.draws != 0 {
		t.Errorf("Grow on a full pool drew %d random numbers, want 0", counter.draws)
	}

	// SeedRandom draws from the generator's own source: a twin pool that never
	// asked must generate the same next sentence.
	twin := nationPool(t, Options{Seed: 43})
	asked := nationPool(t, Options{Seed: 43})
	for _, q := range []*Pool{twin, asked} {
		if _, err := q.SeedRandom(200); err != nil {
			t.Fatal(err)
		}
		q.Grow(200)
		if uint64(q.Size()) != space {
			t.Fatalf("pool holds %d of %d sentences", q.Size(), space)
		}
	}
	if added, err := asked.SeedRandom(1000); err != nil || len(added) != 0 {
		t.Errorf("SeedRandom on a full pool: %d entries, err %v", len(added), err)
	}
	a, _ := asked.Generator().Generate()
	b, _ := twin.Generator().Generate()
	if a.SQL != b.SQL {
		t.Errorf("SeedRandom on a full pool consumed the generator: next sentences %q vs %q", a.SQL, b.SQL)
	}
}

// TestSetSteeringResetsAllowedLiterals: the per-class allowed-literal lists
// are cached per steering, so replacing the steering must drop them — in
// both directions.
func TestSetSteeringResetsAllowedLiterals(t *testing.T) {
	p := nationPool(t, Options{Seed: 47})
	if _, err := p.SeedRandom(4); err != nil {
		t.Fatal(err)
	}
	p.Grow(6) // fills the cache with the unrestricted lists
	p.SetSteering(Steering{ExcludeLiterals: []string{"n_comment"}})
	for _, e := range p.Grow(8) {
		if strings.Contains(e.SQL, "n_comment") {
			t.Errorf("excluded literal appeared after SetSteering in %q", e.SQL)
		}
	}
	if got := len(p.allowedLiterals("l_column")); got != 3 {
		t.Errorf("%d l_column literals allowed under the exclude list, want 3", got)
	}
	p.SetSteering(Steering{})
	if got := len(p.allowedLiterals("l_column")); got != 4 {
		t.Errorf("%d l_column literals allowed after the list was lifted, want 4", got)
	}
}

// TestMorphFromLargestTemplateFailsFast: the baseline is the largest template
// and uses every literal, so it has no expansion and no alteration; both
// report that without drawing.
func TestMorphFromLargestTemplateFailsFast(t *testing.T) {
	p := nationPool(t, Options{Seed: 53})
	counter := &countingSource{src: rand.NewSource(1)}
	p.rng = rand.New(counter)
	if e, err := p.ExpandFrom(p.Baseline()); err == nil {
		t.Errorf("expanded the largest template into %q", e.SQL)
	}
	if e, err := p.AlterFrom(p.Baseline()); err == nil {
		t.Errorf("altered a sentence that uses every literal into %q", e.SQL)
	}
	if counter.draws != 0 {
		t.Errorf("%d random numbers drawn for morphs that have no candidate", counter.draws)
	}
}
