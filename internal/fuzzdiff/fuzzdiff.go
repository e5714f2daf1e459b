// Package fuzzdiff turns the paper's query-space machinery into a standing
// correctness oracle: a grammar-driven differential fuzzer. A sqalpel
// grammar over NULL-rich tables (datagen.Fuzz) is derived into hundreds of
// concrete queries with the pool's morphing strategies (seeded and
// reproducible, exactly like an experiment walk), every query is executed
// on all registry engines — four paradigms, six engines, one shared plan
// layer — and the results are compared bit for bit. Any disagreement is a
// semantics bug in one of the paradigms: the discriminative search ranks
// performance *ratios*, so engines that silently disagree on answers would
// poison findings. The ternary NULL logic contract (internal/sqlsem) is the
// primary target: the grammar leans heavily on comparisons, LIKE, IN,
// BETWEEN, CASE and the boolean connectives over nullable columns, plus
// sub-query shapes — scalar aggregates, (NOT) EXISTS, NULL-bearing IN
// sets, and correlated WHERE sub-queries over nullable correlation keys —
// so the sub-query materialization and decorrelation paths of all four
// paradigms face the same NULL-rich data.
package fuzzdiff

import (
	"fmt"
	"strings"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/grammar"
	"sqalpel/internal/pool"
)

// GrammarSource is the sqalpel grammar spanning the fuzzer's query space
// over the datagen.Fuzz schema (fact table t: id, k non-NULL; a, b, f, s,
// d, g nullable — dimension table dim: dk, label, w). Predicate and
// projection literals are chosen to stress three-valued logic: NULL probes,
// NULL list members, NULL bounds, NULL-condition CASE arms.
const GrammarSource = `
query:
	SELECT id, ${l_proj} AS p FROM t $[filter] ORDER BY id $[l_limit]
	SELECT id, ${l_proj} AS p, ${l_proj} AS q FROM t $[filter] ORDER BY id
	SELECT ${l_agg} AS v, COUNT(*) AS n FROM t $[filter]
	SELECT g, COUNT(*) AS n, ${l_agg} AS v FROM t $[filter] GROUP BY g ORDER BY g
	SELECT k, ${l_agg} AS v FROM t $[filter] GROUP BY k HAVING COUNT(*) > 5 ORDER BY k
	SELECT t.id, label, ${l_proj} AS p FROM t, dim WHERE k = dk AND ${l_pred} ORDER BY t.id
	SELECT t.id, w, ${l_proj} AS p FROM t, dim WHERE a = w AND ${l_pred} ORDER BY t.id
	SELECT t.id, label FROM t LEFT JOIN dim ON a = w $[filter] ORDER BY t.id
	SELECT t.id, d1.label, d2.w, ${l_proj} AS p FROM t, dim d1, dim d2 WHERE k = d1.dk AND g = d2.dk AND ${l_pred} ORDER BY t.id
	SELECT * FROM t, dim WHERE a = w AND ${l_pred} ORDER BY id
	SELECT id FROM t WHERE ${l_pred} ORDER BY id
	SELECT DISTINCT a, s FROM t $[filter]
	SELECT a FROM t WHERE ${l_pred} UNION SELECT a FROM t WHERE ${l_pred}

filter:
	WHERE ${l_pred}
	WHERE ${l_pred} AND ${l_pred}
	WHERE ${l_pred} OR ${l_pred}
	WHERE NOT (${l_pred})

l_pred:
	a = 2
	a = b
	a <> g
	a < 5
	b > 0
	b <= -10
	f > 120.5
	f < 33.25
	s = 'beta'
	s = 'zeta'
	s LIKE 'a%'
	s LIKE '%o'
	s LIKE 'br%'
	s NOT LIKE '%l%'
	s IN ('alpha', 'gamma', 'dora')
	s IN ('beta', 'zeta', NULL)
	s NOT IN ('alto', NULL)
	s >= 'delta'
	s < 'bravo'
	s IS NULL
	s IS NOT NULL
	a IS NULL
	d IS NOT NULL
	a IN (1, 3, 5)
	a IN (2, 4, NULL)
	a NOT IN (1, 9, NULL)
	b BETWEEN -10 AND 10
	a BETWEEN 2 AND 6
	a NOT BETWEEN 2 AND 4
	a BETWEEN g AND 8
	d >= DATE '1998-06-01'
	d < DATE '1999-01-01'
	NOT (a = 3)
	NOT (s LIKE 'b%')
	(a = 2) OR (s = 'beta')
	(a > 1) AND (b < 20)
	(a IS NULL) OR (b > 25)
	a + b > 5
	a IN (SELECT w FROM dim)
	g NOT IN (SELECT w FROM dim)
	g IN (SELECT dk FROM dim WHERE w > 10)
	a > (SELECT MIN(w) FROM dim)
	b < (SELECT AVG(w) FROM dim)
	f >= (SELECT MAX(w) FROM dim WHERE dk < 5)
	EXISTS (SELECT 1 FROM dim WHERE w > 40)
	NOT EXISTS (SELECT 1 FROM dim WHERE w > 900)
	EXISTS (SELECT 1 FROM dim WHERE dk = k)
	NOT EXISTS (SELECT 1 FROM dim WHERE dk = a)
	EXISTS (SELECT 1 FROM dim WHERE dk = k AND w > 20)
	a = (SELECT MAX(w) FROM dim WHERE dk = k)
	b > (SELECT SUM(w) FROM dim WHERE dk = a)
	g IN (SELECT w FROM dim WHERE dk = k)

l_proj:
	NOT (a = 2)
	a = b
	a <> 3
	s LIKE 'a%'
	s NOT LIKE 'g%'
	a IN (1, 3, NULL)
	a NOT IN (2, NULL)
	b BETWEEN 0 AND 25
	a NOT BETWEEN 2 AND 4
	(a = 2) AND (s = 'beta')
	(a = 2) OR (s = 'beta')
	(a IS NULL) AND (b > 0)
	CASE WHEN a > 5 THEN 'hi' WHEN a IS NULL THEN 'nil' ELSE 'lo' END
	CASE WHEN s LIKE 'a%' THEN NULL ELSE s END
	COALESCE(a, b, -1)
	a + (SELECT MIN(w) FROM dim)
	a + b
	f * 2
	b - g
	s || '_x'
	EXTRACT(YEAR FROM d)

l_agg:
	SUM(a)
	SUM(b + g)
	COUNT(a)
	COUNT(s)
	AVG(f)
	MIN(s)
	MAX(d)
	MIN(f)
	SUM(CASE WHEN a IS NULL THEN 1 ELSE 0 END)
	COUNT(*)
	COUNT(DISTINCT a)
	COUNT(DISTINCT s)
	SUM(DISTINCT b)
	AVG(a)
	AVG(DISTINCT g)
	MIN(a)
	MAX(b)
	MIN(a > 2)
	MAX(s LIKE 'a%')
	SUM(CASE WHEN a > 3 THEN 1 ELSE 0.5 END)

l_limit:
	LIMIT 25
	LIMIT 100
`

// Options configure one fuzzer run.
type Options struct {
	// Seed drives both the data generator and the query derivation; the
	// same seed reproduces the identical run. Zero selects 1.
	Seed int64
	// Queries is the number of distinct derived queries to execute; zero
	// selects 500.
	Queries int
	// Rows is the fact-table size; zero selects the datagen default (400).
	Rows int
}

// EngineOutcome is one engine's answer to one query: an exact result
// fingerprint, or the error it raised.
type EngineOutcome struct {
	Engine      string
	Fingerprint string
	Err         string
}

// Divergence is a query on which the engines disagreed — the fuzzer's
// entire reason to exist. Outcomes are in registry order.
type Divergence struct {
	SQL      string
	Outcomes []EngineOutcome
}

// Report summarises a fuzzer run.
type Report struct {
	Seed int64
	Rows int
	// Derived is the number of distinct queries the pool derived from the
	// grammar (after key-based deduplication).
	Derived int
	// Executed is the number of queries run on every engine.
	Executed int
	// AgreedErrors counts queries every engine rejected with the same
	// error — legal agreement, typically never seen with this grammar.
	AgreedErrors int
	// Divergences lists every disagreement; an empty slice is the pass
	// verdict.
	Divergences []Divergence
}

// Corpus derives the run's distinct queries from the grammar and generates
// the database they run against; the same options give the same corpus. Run
// executes it differentially; other oracles replay it on the engines they
// watch.
func Corpus(opts Options) (queries []string, db *engine.Database, err error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Queries <= 0 {
		opts.Queries = 500
	}

	g, err := grammar.Parse(GrammarSource)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing fuzz grammar: %w", err)
	}
	p, err := pool.New(g, pool.Options{Seed: opts.Seed, MaxSize: opts.Queries})
	if err != nil {
		return nil, nil, fmt.Errorf("building query pool: %w", err)
	}
	// Derive sqalpel-style: seed a random batch across templates, then walk
	// the space with the morphing strategies (alter/expand/prune) until the
	// target count is reached or the walk stalls. The pool dedupes by
	// sentence key, so every entry is a distinct query.
	if _, err := p.SeedRandom(opts.Queries / 2); err != nil {
		return nil, nil, fmt.Errorf("seeding query pool: %w", err)
	}
	for p.Size() < opts.Queries {
		if added := p.Grow(opts.Queries - p.Size()); len(added) == 0 {
			break
		}
	}
	for _, entry := range p.Entries() {
		queries = append(queries, entry.SQL)
	}
	return queries, datagen.Fuzz(datagen.FuzzOptions{Rows: opts.Rows, Seed: uint64(opts.Seed)}), nil
}

// Run derives queries from the grammar and differentially executes them on
// all registry engines. It only returns an error for infrastructure
// failures (grammar parse, pool construction); semantic disagreements are
// reported in Report.Divergences.
//
//lint:api the differential fuzzer, the correctness oracle README names; its tests run it
func Run(opts Options) (*Report, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	queries, db, err := Corpus(opts)
	if err != nil {
		return nil, err
	}
	reg := engine.NewRegistry()

	rep := &Report{Seed: opts.Seed, Rows: db.Table("t").NumRows(), Derived: len(queries)}
	for _, sql := range queries {
		outcomes, agree := differential(reg, db, sql)
		rep.Executed++
		if !agree {
			rep.Divergences = append(rep.Divergences, Divergence{SQL: sql, Outcomes: outcomes})
			continue
		}
		if outcomes[0].Err != "" {
			rep.AgreedErrors++
		}
	}
	return rep, nil
}

// differential executes one query on every registry engine, in registry
// order, and reports whether all outcomes — fingerprint or error — agree.
func differential(reg *engine.Registry, db *engine.Database, sql string) ([]EngineOutcome, bool) {
	ordered := totallyOrdered(sql)
	var outcomes []EngineOutcome
	agree := true
	for _, key := range reg.Keys() {
		e := reg.Get(key)
		oc := EngineOutcome{Engine: key}
		res, err := e.Execute(db, sql, engine.ExecOptions{})
		if err != nil {
			oc.Err = normalizeError(e.Name(), err)
		} else if ordered {
			oc.Fingerprint = res.OrderedFingerprint()
		} else {
			oc.Fingerprint = res.Fingerprint()
		}
		if len(outcomes) > 0 && (oc.Fingerprint != outcomes[0].Fingerprint || oc.Err != outcomes[0].Err) {
			agree = false
		}
		outcomes = append(outcomes, oc)
	}
	return outcomes, agree
}

// totallyOrdered reports whether the grammar guarantees a total row order
// for the query: single-table templates ordered by the unique id column
// (a dim sub-query in the predicate does not break that). Join templates
// sort by t.id but can carry ties (several matches per left row), so they
// fall back to the multiset fingerprint.
func totallyOrdered(sql string) bool {
	return strings.Contains(sql, "ORDER BY id") &&
		!strings.Contains(sql, "FROM t, dim") &&
		!strings.Contains(sql, "JOIN dim")
}

// Fingerprint is the exact-bit multiset fingerprint of a result,
// engine.Result.Fingerprint under the name the benchmark imports.
func Fingerprint(r *engine.Result) string { return r.Fingerprint() }

// normalizeError strips the engine-name prefix Execute attaches, so two
// engines failing for the same underlying reason compare equal.
func normalizeError(name string, err error) string {
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, name+": "); ok {
		return rest
	}
	return msg
}
