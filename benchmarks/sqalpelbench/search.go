package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"sqalpel/internal/core"
	"sqalpel/internal/engine"
	"sqalpel/internal/pool"
	"sqalpel/internal/workload"
)

// searchSizes size search_variants. One cycle is one search round per
// baseline; the window repeats whole cycles. The baselines are the TPC-H
// queries with a large query space whose morphs all execute: Q3 and Q10 of
// the issue's list lose the "revenue" alias their ORDER BY needs in a
// quarter of their variants and fail with "unknown column revenue", so Q2
// and Q18 stand in for them. The pool is grown with the morphing strategies
// only: Project.SeedPool is left out because grammar.Generator.realize
// shuffles its literal classes in map order, so the same seed yields a
// different random sample on every call and the inputs would not repeat. The
// data is tiny on purpose: every cell is a new SQL text, and the front end is
// only visible when the executors have little to do.
type searchSizes struct {
	sf        float64
	growN     int // Project.GrowPool(n)
	runs      int // repetitions per cell
	workers   int // scheduler workers
	baselines []string
}

var (
	searchNormal = searchSizes{sf: 0.0002, growN: 60, runs: 3, workers: 1, baselines: []string{"Q1", "Q2", "Q12", "Q18"}}
	searchSmoke  = searchSizes{sf: 0.0002, growN: 10, runs: 2, workers: 2, baselines: []string{"Q1", "Q12"}}
)

var searchTargets = []string{vektor, fusil}

type searchVariants struct {
	cfg   config
	sizes searchSizes

	reg *engine.Registry
	db  *engine.Database
	// hashes are the variant-set hashes of the last window's rounds, kept for
	// verify. The projects themselves are dropped as soon as they are ranked:
	// holding every outcome of the window would make peak_rss_mb a measure of
	// the harness.
	hashes []string
}

func newSearchVariants(cfg config) *searchVariants {
	s := &searchVariants{cfg: cfg, sizes: searchNormal}
	if cfg.smoke {
		s.sizes = searchSmoke
	}
	return s
}

// setup generates the database and executes each baseline once per target,
// which imports the typed tables the vektor and fusil engines cache.
func (s *searchVariants) setup() error {
	s.reg = engine.NewRegistry()
	s.db = tpchDB(s.sizes.sf)
	s.hashes = nil
	for _, id := range s.sizes.baselines {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			return err
		}
		for _, key := range searchTargets {
			if _, err := s.reg.Get(key).Execute(s.db, q.SQL, engine.ExecOptions{Parallelism: 1}); err != nil {
				return fmt.Errorf("warm-up %s on %s: %w", id, key, err)
			}
		}
	}
	return nil
}

// newProject creates round i's project and grows its pool. The variant set
// is a pure function of (-seed, i): pool growth draws from the pool's own
// seeded generator and never sees a measured time, which is why the guided
// Project.Run — whose morphs follow the measurements — is left out.
func (s *searchVariants) newProject(i int, rec *recorder, parent int) (*core.Project, error) {
	id := s.sizes.baselines[i%len(s.sizes.baselines)]
	q, err := workload.TPCHQuery(id)
	if err != nil {
		return nil, err
	}
	sp := rec.begin(parent, "derive", "core.NewProject", "")
	p, err := core.NewProject(fmt.Sprintf("%s-%d", id, i), q.SQL, core.ProjectOptions{
		Runs:        s.sizes.runs,
		Parallelism: s.sizes.workers,
		Pool:        pool.Options{Seed: s.cfg.seed*1000 + int64(i) + 1},
	})
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("project %s: %w", id, err)
	}
	sp = rec.begin(parent, "pool", "Project.GrowPool", "")
	grown := p.GrowPool(s.sizes.growN)
	rec.end(sp)
	if grown != s.sizes.growN {
		return nil, fmt.Errorf("growing %s: %d variants, want %d", id, grown, s.sizes.growN)
	}
	return p, nil
}

// variantHash identifies a pool's variant set.
func variantHash(p *core.Project) string {
	h := sha256.New()
	for _, e := range p.Pool().Entries() {
		fmt.Fprintf(h, "%d|%s|%d|%s\n", e.ID, e.Strategy, e.ParentID, e.SQL)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *searchVariants) window(d time.Duration, rec *recorder) (*windowResult, error) {
	win := &windowResult{}
	var measureSpan atomic.Int64
	flight := &inflight{}
	cells := map[string]*cellTarget{}
	for _, key := range searchTargets {
		var eng engine.Engine = s.reg.Get(key)
		if rec != nil {
			eng = newTracedEngine(s.reg, key, rec, &measureSpan, flight)
		}
		var target contextTarget = &core.EngineTarget{Engine: eng, DB: s.db, Timeout: 30 * time.Second, Parallelism: 1}
		if rec != nil {
			target = &spanTarget{contextTarget: target, name: key, rec: rec, parent: &measureSpan, flight: flight}
		}
		cells[key] = &cellTarget{ContextTarget: target, runs: s.sizes.runs}
		if rec == nil {
			// The traced window samples the host between rounds only: a
			// kernel run from inside a cell would count as the time of
			// whichever layer's span is open around the target.
			cells[key].done = win.tick
		}
	}

	h0, m0 := s.reg.PlanCache().Stats()
	root := rec.begin(0, "harness", "window search_variants", "")
	start := time.Now()
	for i := 0; time.Since(start) < d; {
		// Whole cycles only, so the mix of baselines never varies.
		cycleStart := time.Now()
		var samples []sample
		ops := 0
		for range s.sizes.baselines {
			id := s.sizes.baselines[i%len(s.sizes.baselines)]
			rs := rec.begin(root, "harness", "round "+id, "")
			p, err := s.newProject(i, rec, rs)
			if err != nil {
				return nil, err
			}
			for _, key := range searchTargets {
				p.AddTarget(key, cells[key])
			}
			sp := rec.begin(rs, "sched", "Project.MeasureAll", "")
			measureSpan.Store(int64(sp))
			err = p.MeasureAll()
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("measuring %s: %w", id, err)
			}
			sp = rec.begin(rs, "discriminative", "Project.Discriminative", "")
			for _, pair := range [][2]string{{vektor, fusil}, {fusil, vektor}} {
				if _, err := p.Discriminative(pair[0], pair[1], 10); err != nil {
					return nil, fmt.Errorf("ranking %s: %w", id, err)
				}
			}
			rec.end(sp)
			rec.end(rs)
			for _, key := range searchTargets {
				for _, c := range cells[key].take() {
					samples = append(samples, sample{id + "." + key, ms(c)})
				}
			}
			ops += p.Pool().Size() * len(searchTargets)
			s.hashes = append(s.hashes, variantHash(p))
			i++
			win.tick()
		}
		win.ops += ops
		win.closeCycle(time.Since(cycleStart), ops, samples)
	}
	win.wall = time.Since(start)
	rec.end(root)
	h1, m1 := s.reg.PlanCache().Stats()
	win.planHits, win.planMisses = h1-h0, m1-m0
	for _, key := range searchTargets {
		win.failed += cells[key].failed
	}
	return win, nil
}

// verify regenerates every round's variant set without measuring anything
// and requires the same hash: the set must depend on -seed alone, not on
// the times the window happened to measure.
func (s *searchVariants) verify(rep *report, win *windowResult) {
	cycle := sha256.New()
	for i, hash := range s.hashes {
		p, err := s.newProject(i, nil, 0)
		if err != nil {
			rep.problem("regenerating round %d: %v", i, err)
			continue
		}
		if got := variantHash(p); got != hash {
			rep.problem("round %d: variant set %.12s is not the one the window measured (%.12s)", i, got, hash)
		}
		if i < len(s.sizes.baselines) {
			cycle.Write([]byte(hash))
		}
	}
	rep.note("%d rounds of GrowPool(%d) on SF %s, %d runs a cell, %d scheduler workers; variant sets regenerate identically",
		len(s.hashes), s.sizes.growN, sfKey(s.sizes.sf), s.sizes.runs, s.sizes.workers)
	rep.note("variant-set hash of the first cycle (a function of -seed only): %.16s", hex.EncodeToString(cycle.Sum(nil)))
	rep.note("cells_per_s %.4f  cell_p50_ms %.4f  cell_p95_ms %.4f", win.opsPerSecond(), win.p50(), win.p95())
}

func (s *searchVariants) close() {}
