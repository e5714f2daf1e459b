// Package discriminative implements the paper's central search: given two
// (or more) target systems that accept the same SQL dialect, find the
// queries in a project's query space that run relatively better on one
// system than on the other. The search measures the current pool, ranks
// queries by their performance ratio, and grows the pool by morphing the
// most discriminative queries found so far — the guided random walk of the
// paper — rather than sampling the space blindly.
//
// Measurement is delegated to the concurrent scheduler (internal/sched):
// every round fans its pending (entry, target) cells across a worker pool
// sized by Options.Parallelism, while the walk itself — ranking, morphing,
// random growth — stays strictly sequential and seeded, so the findings are
// bit-identical at Parallelism=1 and Parallelism=N.
package discriminative

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sqalpel/internal/analytics"
	"sqalpel/internal/metrics"
	"sqalpel/internal/pool"
	"sqalpel/internal/sched"
	"sqalpel/internal/trace"
)

// Outcome is the measurement of one pool entry on every target.
type Outcome struct {
	Entry *pool.Entry
	// ByTarget maps target name to its measurement.
	ByTarget map[string]*metrics.Measurement
}

// Failed reports whether the query failed on any target.
func (o *Outcome) Failed() bool {
	//lint:ordered existence scan; any iteration order yields the same boolean
	for _, m := range o.ByTarget {
		if m.Failed() {
			return true
		}
	}
	return false
}

// Finding is one discriminative query: an outcome together with the ratio
// that makes it interesting.
type Finding struct {
	Outcome *Outcome
	// Ratio is time(SystemA)/time(SystemB) for the pair the search was asked
	// about.
	Ratio float64
}

// Options configure the search.
type Options struct {
	// Runs is the number of repetitions per measurement (default 5).
	Runs int
	// GrowPerRound is how many new pool entries each round adds (default 8).
	GrowPerRound int
	// TopK is how many extreme queries each round morphs from (default 3).
	TopK int
	// Parallelism is the total concurrency budget of the measurement
	// plane; 0 or 1 measures serially. With Parallelism > 1 every target
	// must be safe for concurrent use.
	Parallelism int
	// QueryParallelism is the intra-query morsel worker count each
	// measured execution spends (the caller configures its targets to
	// match); the scheduler divides the Parallelism budget by it, floored
	// at one measurement worker, so the two levels of parallelism share
	// one cap (see sched.Options.QueryParallelism for the floor case).
	QueryParallelism int
	// Timeout bounds a single query repetition; zero means no limit.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = metrics.DefaultRuns
	}
	if o.GrowPerRound <= 0 {
		o.GrowPerRound = 8
	}
	if o.TopK <= 0 {
		o.TopK = 3
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Search drives the guided walk over one pool and a set of targets.
type Search struct {
	pool     *pool.Pool
	targets  map[string]metrics.Target
	names    []string
	opts     Options
	sched    *sched.Scheduler
	outcomes map[int]*Outcome // keyed by pool entry id
}

// New creates a search over the pool and the named targets.
func New(p *pool.Pool, targets map[string]metrics.Target, opts Options) (*Search, error) {
	if len(targets) < 2 {
		return nil, fmt.Errorf("discriminative search needs at least two targets, got %d", len(targets))
	}
	names := make([]string, 0, len(targets))
	for n := range targets {
		names = append(names, n)
	}
	sort.Strings(names)
	opts = opts.withDefaults()
	return &Search{
		pool:     p,
		targets:  targets,
		names:    names,
		opts:     opts,
		sched:    sched.New(sched.Options{Workers: opts.Parallelism, QueryParallelism: opts.QueryParallelism, Timeout: opts.Timeout}),
		outcomes: map[int]*Outcome{},
	}, nil
}

// Outcomes returns all measured outcomes in pool-entry order.
func (s *Search) Outcomes() []*Outcome {
	var out []*Outcome
	for _, e := range s.pool.Entries() {
		if o, ok := s.outcomes[e.ID]; ok {
			out = append(out, o)
		}
	}
	return out
}

// MeasurePending measures every pool entry that has not been measured yet
// and returns the new outcomes.
func (s *Search) MeasurePending() []*Outcome {
	return s.MeasurePendingContext(context.Background())
}

// MeasurePendingContext is MeasurePending with cancellation: entries whose
// measurement was cut short by the context come back as failed outcomes.
func (s *Search) MeasurePendingContext(ctx context.Context) []*Outcome {
	var pending []*pool.Entry
	for _, e := range s.pool.Entries() {
		if _, ok := s.outcomes[e.ID]; ok {
			continue
		}
		pending = append(pending, e)
	}
	return s.measureEntries(ctx, pending)
}

// measureEntries fans the (entry, target) cells of the given entries across
// the scheduler's worker pool and assembles the outcomes in entry order.
// The scheduler's result cache makes morphs that collapse onto an already
// measured SQL text free.
func (s *Search) measureEntries(ctx context.Context, entries []*pool.Entry) []*Outcome {
	if len(entries) == 0 {
		return nil
	}
	cells := make([]sched.Cell, 0, len(entries)*len(s.names))
	for _, e := range entries {
		for _, name := range s.names {
			cells = append(cells, sched.Cell{
				Target: name,
				Runner: s.targets[name],
				SQL:    e.SQL,
				Runs:   s.opts.Runs,
			})
		}
	}
	results := s.sched.Measure(ctx, cells)
	cancelled := ctx.Err() != nil
	out := make([]*Outcome, 0, len(entries))
	for i, e := range entries {
		o := &Outcome{Entry: e, ByTarget: map[string]*metrics.Measurement{}}
		for j, name := range s.names {
			o.ByTarget[name] = results[i*len(s.names)+j].Measurement
		}
		// A failure during a cancelled run says nothing about the query:
		// don't record it, so a later un-cancelled call measures the entry
		// again (the scheduler evicts those cells from its cache too; the
		// targets that did complete stay cached and are free to replay).
		if !(cancelled && o.Failed()) {
			s.outcomes[e.ID] = o
		}
		out = append(out, o)
	}
	return out
}

// RoundContext measures everything pending, then grows the pool guided by
// the most discriminative outcomes found so far: the top queries in both
// directions are morphed with alter/expand/prune, and the remainder of the
// budget is spent on random growth so the walk keeps exploring. The
// context cancels the measurements.
func (s *Search) RoundContext(ctx context.Context, a, b string) []*Outcome {
	newOutcomes := s.MeasurePendingContext(ctx)

	extremes := append(s.Better(a, b, s.opts.TopK), s.Better(b, a, s.opts.TopK)...)
	added := 0
	for _, f := range extremes {
		if added >= s.opts.GrowPerRound {
			break
		}
		src := f.Outcome.Entry
		for _, morph := range []func(*pool.Entry) (*pool.Entry, error){s.pool.AlterFrom, s.pool.PruneFrom, s.pool.ExpandFrom} {
			if added >= s.opts.GrowPerRound {
				break
			}
			if _, err := morph(src); err == nil {
				added++
			}
		}
	}
	if added < s.opts.GrowPerRound {
		s.pool.Grow(s.opts.GrowPerRound - added)
	}
	return newOutcomes
}

// Run performs the given number of rounds comparing targets a and b and
// returns every outcome measured so far.
func (s *Search) Run(a, b string, rounds int) []*Outcome {
	return s.RunContext(context.Background(), a, b, rounds)
}

// RunContext is Run with cancellation: the walk stops growing once the
// context is done and returns what was measured so far.
func (s *Search) RunContext(ctx context.Context, a, b string, rounds int) []*Outcome {
	for i := 0; i < rounds && ctx.Err() == nil; i++ {
		s.RoundContext(ctx, a, b)
	}
	if ctx.Err() == nil {
		s.MeasurePendingContext(ctx)
	}
	return s.Outcomes()
}

// Runs converts the measured outcomes into analytics records, one per
// (outcome, target), in pool-entry then target order: the record both
// front-ends rank through. A run's time is its measurement's minimum.
func (s *Search) Runs() []analytics.Run {
	outcomes := s.Outcomes()
	out := make([]analytics.Run, 0, len(outcomes)*len(s.names))
	for _, o := range outcomes {
		e := o.Entry
		terms := e.Terms()
		for _, target := range s.names {
			m := o.ByTarget[target]
			if m == nil {
				continue
			}
			run := analytics.Run{
				QueryID:    e.ID,
				SQL:        e.SQL,
				Strategy:   string(e.Strategy),
				ParentID:   e.ParentID,
				Components: e.Components,
				Terms:      terms,
				Target:     target,
			}
			if m.Failed() {
				run.Error = m.Err
			} else {
				run.Seconds = m.Min().Seconds()
			}
			out = append(out, run)
		}
	}
	return out
}

// Better returns the topN queries that run relatively better on target
// `fast` than on target `slow`, sorted by how extreme the ratio is.
func (s *Search) Better(fast, slow string, topN int) []Finding {
	return s.better(s.Runs(), fast, slow, topN)
}

// better ranks the analytics.Pairs of slow over fast: a pair whose ratio
// exceeds 1 is a finding, and ratio ties break on the pool entry id so the
// ordering is identical however the measurements were scheduled.
func (s *Search) better(runs []analytics.Run, fast, slow string, topN int) []Finding {
	var findings []Finding
	for _, p := range analytics.Pairs(runs, slow, fast) {
		if p.Ratio > 1 {
			findings = append(findings, Finding{Outcome: s.outcomes[p.QueryID], Ratio: p.Ratio})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Ratio != findings[j].Ratio {
			return findings[i].Ratio > findings[j].Ratio
		}
		return findings[i].Outcome.Entry.ID < findings[j].Outcome.Entry.ID
	})
	if topN > 0 && len(findings) > topN {
		findings = findings[:topN]
	}
	return findings
}

// MatrixCell is one ordered pair of the discrimination matrix: how many
// measured queries run relatively better on Fast than on Slow, and the most
// extreme one.
type MatrixCell struct {
	Fast  string
	Slow  string
	Count int
	// Best is the most discriminative finding of the pair; nil when no
	// query separates it.
	Best *Finding
}

// Matrix computes the full pairwise discrimination matrix over every
// registered target. With three engine paradigms registered this is the
// three-way separation table: each paradigm pair gets both directions.
func (s *Search) Matrix() []MatrixCell {
	runs := s.Runs()
	var out []MatrixCell
	for _, a := range s.names {
		for _, b := range s.names {
			if a == b {
				continue
			}
			findings := s.better(runs, a, b, 0)
			cell := MatrixCell{Fast: a, Slow: b, Count: len(findings)}
			if len(findings) > 0 {
				f := findings[0]
				cell.Best = &f
			}
			out = append(out, cell)
		}
	}
	return out
}

// OperatorRatios is trace.KindRatios over the compare rows of every measured
// outcome where both targets succeeded with a trace: the operator kinds
// ranked by how lopsided the two targets' summed span times are.
//
//lint:api library API that README documents beside trace.KindRatios
func (s *Search) OperatorRatios(a, b string) []trace.KindRatio {
	var rows []trace.CompareRow
	for _, o := range s.Outcomes() {
		ma, mb := o.ByTarget[a], o.ByTarget[b]
		if ma == nil || mb == nil || ma.Failed() || mb.Failed() || ma.Trace == nil || mb.Trace == nil {
			continue
		}
		rows = append(rows, trace.Compare([]*trace.QueryTrace{ma.Trace, mb.Trace})...)
	}
	return trace.KindRatios(rows)
}

// Errors returns the outcomes whose query failed on at least one target;
// they show up as error entries in the experiment history.
func (s *Search) Errors() []*Outcome {
	var out []*Outcome
	for _, o := range s.Outcomes() {
		if o.Failed() {
			out = append(out, o)
		}
	}
	return out
}

// Summary is a compact textual report of the search state.
func (s *Search) Summary(a, b string) string {
	measured := len(s.Outcomes())
	errors := len(s.Errors())
	bestA := s.Better(a, b, 1)
	bestB := s.Better(b, a, 1)
	out := fmt.Sprintf("pool %d queries, %d measured, %d errors", s.pool.Size(), measured, errors)
	if len(bestA) > 0 {
		out += fmt.Sprintf("; best for %s: %.2fx (#%d)", a, bestA[0].Ratio, bestA[0].Outcome.Entry.ID)
	}
	if len(bestB) > 0 {
		out += fmt.Sprintf("; best for %s: %.2fx (#%d)", b, bestB[0].Ratio, bestB[0].Outcome.Entry.ID)
	}
	return out
}
