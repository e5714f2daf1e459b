// Package sched implements the concurrent measurement scheduler of the
// sqalpel measurement plane. A round of the discriminative search produces a
// batch of (query, target) cells to measure; the scheduler fans the cells
// out across a configurable pool of workers, threads context cancellation
// and a per-repetition timeout through internal/metrics, and deduplicates
// work through a result cache keyed by (target, normalized SQL) — so
// re-measuring a morph whose SQL text collapses onto an already measured
// variant is free, and the same search can be re-entered without paying for
// completed cells again.
//
// The scheduler is deliberately deterministic at the edges: results come
// back positionally aligned with the submitted cells regardless of the
// completion order of the workers, which lets callers (the discriminative
// search, the experiment driver) produce bit-identical rankings at
// workers=1 and workers=N.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sqalpel/internal/metrics"
	"sqalpel/internal/plan"
)

// Options configure a scheduler.
type Options struct {
	// Workers is how many cells are measured at once; values below 1
	// select runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds a single query repetition; zero means no limit. It is
	// forwarded to metrics.Options.Timeout for every cell.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Cell is one unit of measurement work: a query to run on a named target.
type Cell struct {
	// Target is the name of the target system, the first dimension of the
	// result cache key.
	Target string
	// Runner executes the query. When Workers > 1 it must be safe for
	// concurrent use (the built-in engine targets are).
	Runner metrics.Target
	// SQL is the query text to measure; plan.Normalize(SQL) is its cache
	// identity, the plan cache's too.
	SQL string
	// Runs is the number of repetitions (see metrics.Options).
	Runs int
}

func (c Cell) key() string {
	// The repetition count is part of the identity: a 1-run probe must not
	// satisfy a later 10-run measurement of the same query.
	return fmt.Sprintf("%s\x00%d\x00%s", c.Target, c.Runs, plan.Normalize(c.SQL))
}

// Result pairs a cell with its measurement.
type Result struct {
	// Cell is the submitted cell, returned for convenience.
	Cell Cell
	// Measurement is the outcome; shared with other cells that hit the same
	// cache entry, so treat it as read-only.
	Measurement *metrics.Measurement
	// Cached reports whether the measurement came from the result cache
	// instead of a fresh execution.
	Cached bool
}

// cacheEntry is a singleflight slot: the first worker to claim a key
// measures it and closes done; everyone else waits and shares the pointer.
type cacheEntry struct {
	done chan struct{}
	m    *metrics.Measurement
}

// Scheduler executes measurement cells on a worker pool with a result cache.
// It is safe for concurrent use.
type Scheduler struct {
	opts Options

	mu       sync.Mutex
	cache    map[string]*cacheEntry
	measured int
	hits     int
}

// New creates a scheduler.
func New(opts Options) *Scheduler {
	return &Scheduler{opts: opts.withDefaults(), cache: map[string]*cacheEntry{}}
}

// Stats returns how many cells were freshly measured and how many were
// served from the result cache since the scheduler was created.
//
//lint:api the benchmark module's sched.cache_hit_ratio probe
func (s *Scheduler) Stats() (measured, cached int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.measured, s.hits
}

// Measure runs every cell and returns the results positionally aligned with
// the input. Cells whose (target, normalized SQL) identity was measured
// before — in this call or a previous one — share the cached measurement.
// Within the call, the first cell in input order that holds an identity is
// the one that measures it or replays it from an earlier call; a later cell
// with the same identity waits for that cell and replays its measurement,
// so which cell replays does not depend on which worker runs first. When
// the context is cancelled, the remaining cells are measured as failed with
// the context error and nothing new enters the cache.
func (s *Scheduler) Measure(ctx context.Context, cells []Cell) []Result {
	results := make([]Result, len(cells))
	if len(cells) == 0 {
		return results
	}
	// The keys are claimed in input order before dispatch, within the call
	// only: a cell waits for an earlier cell of its own call, which a worker
	// already runs, never for a claim that another call has not started.
	keys := make([]string, len(cells))
	first := make([]int, len(cells))
	done := make([]chan struct{}, len(cells))
	claims := make(map[string]int, len(cells))
	for i, c := range cells {
		keys[i] = c.key()
		j, claimed := claims[keys[i]]
		if !claimed {
			j, claims[keys[i]], done[i] = i, i, make(chan struct{})
		}
		first[i] = j
	}
	workers := s.opts.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	indexes := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				if j := first[i]; j != i {
					<-done[j]
				}
				results[i] = s.measureCell(ctx, cells[i], keys[i])
				if done[i] != nil {
					close(done[i])
				}
			}
		}()
	}
	for i := range cells {
		indexes <- i
	}
	close(indexes)
	wg.Wait()
	return results
}

// measureCell measures one cell, whose cache key is key, through the cache.
func (s *Scheduler) measureCell(ctx context.Context, c Cell, key string) Result {
	for {
		s.mu.Lock()
		e, ok := s.cache[key]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			s.cache[key] = e
			s.measured++
			s.mu.Unlock()

			e.m = metrics.MeasureContext(ctx, c.Runner, c.SQL, metrics.Options{Runs: c.Runs, Timeout: s.opts.Timeout})
			// A measurement aborted by cancellation says nothing about the
			// query; evict it — before waking the waiters, so they re-check
			// and measure for real with their own contexts — and a later
			// un-cancelled call starts fresh.
			if ctx.Err() != nil && e.m.Failed() {
				s.mu.Lock()
				delete(s.cache, key)
				s.measured--
				s.mu.Unlock()
			}
			close(e.done)
			return Result{Cell: c, Measurement: e.m}
		}
		s.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			// Don't block on someone else's measurement once our own
			// context is gone; this result is failed and never cached.
			return Result{Cell: c, Measurement: &metrics.Measurement{
				Err:   ctx.Err().Error(),
				Extra: map[string]string{},
			}}
		}
		// The claimer may have been cancelled and evicted its failed entry
		// before waking us; only adopt the measurement if it is still the
		// live cache entry, otherwise claim the key ourselves.
		s.mu.Lock()
		if cur, still := s.cache[key]; still && cur == e {
			s.hits++
			s.mu.Unlock()
			return Result{Cell: c, Measurement: e.m, Cached: true}
		}
		s.mu.Unlock()
	}
}
