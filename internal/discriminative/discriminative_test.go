package discriminative

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/analytics"
	"sqalpel/internal/grammar"
	"sqalpel/internal/metrics"
	"sqalpel/internal/pool"
	"sqalpel/internal/trace"
	"sqalpel/internal/workload"
)

// fakeTarget simulates a DBMS whose execution time depends on the query
// text: a base cost plus a per-term surcharge, so discriminative queries
// demonstrably exist between two differently tuned fakes.
type fakeTarget struct {
	base       time.Duration
	perComment time.Duration // surcharge when the query touches n_comment
	perFilter  time.Duration // surcharge when the query has a WHERE clause
	failOn     string
}

func (f *fakeTarget) Run(query string) (int, map[string]string, error) {
	if f.failOn != "" && strings.Contains(query, f.failOn) {
		return 0, nil, errors.New("simulated failure")
	}
	d := f.base
	if strings.Contains(query, "n_comment") {
		d += f.perComment
	}
	if strings.Contains(query, "WHERE") {
		d += f.perFilter
	}
	time.Sleep(d)
	return 1, map[string]string{"fake": "yes"}, nil
}

func newNationPool(t *testing.T) *pool.Pool {
	t.Helper()
	g, err := grammar.Parse(workload.NationSampleGrammar)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(g, pool.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SeedRandom(8); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSearchRequiresTwoTargets(t *testing.T) {
	p := newNationPool(t)
	_, err := New(p, map[string]metrics.Target{"only": &fakeTarget{}}, Options{})
	if err == nil {
		t.Error("expected error with a single target")
	}
}

func TestSearchFindsDiscriminativeQueries(t *testing.T) {
	p := newNationPool(t)
	// System A is slow on n_comment, system B is slow on filtered queries.
	// The surcharges dwarf scheduler noise so the assertions below stay
	// stable even when the suite runs under heavy parallel load.
	targets := map[string]metrics.Target{
		"sysA": &fakeTarget{base: 200 * time.Microsecond, perComment: 10 * time.Millisecond},
		"sysB": &fakeTarget{base: 200 * time.Microsecond, perFilter: 10 * time.Millisecond},
	}
	s, err := New(p, targets, Options{Runs: 1, GrowPerRound: 4, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := s.Run("sysA", "sysB", 2)
	if len(outcomes) < 9 {
		t.Fatalf("expected at least the seeded entries measured, got %d", len(outcomes))
	}
	// Queries better on sysA should avoid n_comment, queries better on sysB
	// should avoid WHERE.
	betterA := s.Better("sysA", "sysB", 3)
	betterB := s.Better("sysB", "sysA", 3)
	if len(betterA) == 0 || len(betterB) == 0 {
		t.Fatalf("expected discriminative queries in both directions (A: %d, B: %d)", len(betterA), len(betterB))
	}
	// Queries with a clear advantage (well above timing noise) must reflect
	// the cost model: sysA hates n_comment, sysB hates the filter. Queries
	// containing both terms have ratios near 1 and are not checked.
	for _, f := range betterA {
		if f.Ratio > 2 && strings.Contains(f.Outcome.Entry.SQL, "n_comment") {
			t.Errorf("query clearly better on sysA should avoid n_comment: %s", f.Outcome.Entry.SQL)
		}
		if f.Ratio <= 1 {
			t.Errorf("finding ratio %f should exceed 1", f.Ratio)
		}
	}
	for _, f := range betterB {
		if f.Ratio > 2 && strings.Contains(f.Outcome.Entry.SQL, "WHERE") {
			t.Errorf("query clearly better on sysB should avoid the filter: %s", f.Outcome.Entry.SQL)
		}
	}
	if betterA[0].Ratio < 2 && betterB[0].Ratio < 2 {
		t.Error("expected at least one clearly discriminative query")
	}
	// Findings are sorted by descending ratio.
	for i := 1; i < len(betterA); i++ {
		if betterA[i].Ratio > betterA[i-1].Ratio {
			t.Error("findings not sorted")
		}
	}
	if !strings.Contains(s.Summary("sysA", "sysB"), "pool") {
		t.Errorf("summary = %q", s.Summary("sysA", "sysB"))
	}
}

func TestSearchGrowsThePool(t *testing.T) {
	p := newNationPool(t)
	before := p.Size()
	targets := map[string]metrics.Target{
		"a": &fakeTarget{base: 50 * time.Microsecond, perComment: 500 * time.Microsecond},
		"b": &fakeTarget{base: 50 * time.Microsecond},
	}
	s, _ := New(p, targets, Options{Runs: 1, GrowPerRound: 5})
	s.Run("a", "b", 2)
	if p.Size() <= before {
		t.Errorf("pool did not grow: %d -> %d", before, p.Size())
	}
	// Every pool entry has been measured after Run.
	if len(s.Outcomes()) != p.Size() {
		t.Errorf("outcomes %d != pool size %d", len(s.Outcomes()), p.Size())
	}
}

func TestErrorsAreTracked(t *testing.T) {
	p := newNationPool(t)
	targets := map[string]metrics.Target{
		"ok":    &fakeTarget{base: 10 * time.Microsecond},
		"picky": &fakeTarget{base: 10 * time.Microsecond, failOn: "count(*)"},
	}
	s, _ := New(p, targets, Options{Runs: 1, GrowPerRound: 2})
	s.Run("ok", "picky", 1)
	sawError := false
	for _, o := range s.Outcomes() {
		if strings.Contains(o.Entry.SQL, "count(*)") {
			if !o.Failed() {
				t.Errorf("count(*) query should have failed on the picky target")
			}
			sawError = true
			for _, pair := range analytics.Pairs(s.Runs(), "ok", "picky") {
				if pair.QueryID == o.Entry.ID {
					t.Error("a failed outcome should have no ratio")
				}
			}
		}
	}
	if sawError && len(s.Errors()) == 0 {
		t.Error("Errors() should report the failed outcomes")
	}
	// Failed outcomes never appear among the discriminative findings.
	for _, f := range s.Better("ok", "picky", 0) {
		if f.Outcome.Failed() {
			t.Error("failed outcome reported as a finding")
		}
	}
}

func TestMeasureEntryRatio(t *testing.T) {
	p := newNationPool(t)
	// The gap between the two fakes is large enough that scheduler noise
	// (e.g. when the whole benchmark suite runs in parallel) cannot flip the
	// comparison.
	targets := map[string]metrics.Target{
		"fast": &fakeTarget{base: 100 * time.Microsecond},
		"slow": &fakeTarget{base: 25 * time.Millisecond},
	}
	s, _ := New(p, targets, Options{Runs: 2})
	o := s.MeasureEntry(p.Baseline())
	if o.Failed() {
		t.Fatalf("unexpected failure: %+v", o)
	}
	pairs := analytics.Pairs(s.Runs(), "slow", "fast")
	if len(pairs) != 1 || pairs[0].QueryID != o.Entry.ID || pairs[0].Ratio < 2 {
		t.Errorf("slow/fast pairs = %+v, want one for #%d clearly above 2", pairs, o.Entry.ID)
	}
	if len(pairs) == 1 && pairs[0].B.Seconds != o.ByTarget["fast"].Min().Seconds() {
		t.Errorf("a run's time = %v, want the measurement's minimum %v", pairs[0].B.Seconds, o.ByTarget["fast"].Min().Seconds())
	}
	// Measuring the same entry twice reuses the outcome.
	again := s.MeasureEntry(p.Baseline())
	if again != o {
		t.Error("MeasureEntry should cache outcomes")
	}
}

// TestMatrixThreeTargets measures three differently tuned fakes and checks
// that the pairwise discrimination matrix covers every ordered pair and
// surfaces the separations the fakes are built to show.
func TestMatrixThreeTargets(t *testing.T) {
	p := newNationPool(t)
	// The gaps between the tiers stay well above timer resolution so the
	// assertions hold under the race detector on a loaded box.
	targets := map[string]metrics.Target{
		"fast":   &fakeTarget{base: 50 * time.Microsecond},
		"steady": &fakeTarget{base: 5 * time.Millisecond},
		"picky":  &fakeTarget{base: 50 * time.Microsecond, perComment: 20 * time.Millisecond},
	}
	s, err := New(p, targets, Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.MeasurePending()

	cells := s.Matrix()
	if len(cells) != 6 {
		t.Fatalf("matrix cells = %d, want 6 ordered pairs", len(cells))
	}
	seen := map[string]MatrixCell{}
	for _, c := range cells {
		if c.Fast == c.Slow {
			t.Fatalf("matrix contains a diagonal cell %q", c.Fast)
		}
		seen[c.Fast+">"+c.Slow] = c
		if c.Best != nil && c.Best.Ratio <= 1 {
			t.Errorf("%s>%s best ratio = %v, want > 1", c.Fast, c.Slow, c.Best.Ratio)
		}
		if (c.Best == nil) != (c.Count == 0) {
			t.Errorf("%s>%s: best/count disagree", c.Fast, c.Slow)
		}
	}
	// Everything beats the uniformly slow target.
	for _, fast := range []string{"fast", "picky"} {
		c := seen[fast+">steady"]
		if c.Count == 0 {
			t.Errorf("%s should beat steady on some query", fast)
		}
	}
}

// simTarget is a deterministic simulator: instead of sleeping it reports
// its cost through metrics.SimulatedDurationKey, so two runs of the same
// search measure bit-identical timings whatever the scheduling order.
type simTarget struct {
	base       time.Duration
	perComment time.Duration
	perFilter  time.Duration
}

func (f *simTarget) Run(query string) (int, map[string]string, error) {
	d := f.base
	if strings.Contains(query, "n_comment") {
		d += f.perComment
	}
	if strings.Contains(query, "WHERE") {
		d += f.perFilter
	}
	// A per-query fingerprint keeps ratios distinct so rankings have no ties.
	for _, r := range query {
		d += time.Duration(r % 17)
	}
	return 1, map[string]string{metrics.SimulatedDurationKey: fmt.Sprintf("%d", d.Nanoseconds())}, nil
}

// searchFindings runs one full guided search at the given parallelism and
// returns the identifying trace: pool SQL texts plus the ranked finding ids
// in both directions.
func searchFindings(t *testing.T, workers int) (poolSQL []string, better []int) {
	t.Helper()
	p := newNationPool(t)
	targets := map[string]metrics.Target{
		"sysA": &simTarget{base: 200 * time.Microsecond, perComment: 12 * time.Millisecond},
		"sysB": &simTarget{base: 200 * time.Microsecond, perFilter: 12 * time.Millisecond},
	}
	s, err := New(p, targets, Options{Runs: 1, GrowPerRound: 4, TopK: 2, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	s.Run("sysA", "sysB", 2)
	for _, e := range p.Entries() {
		poolSQL = append(poolSQL, e.SQL)
	}
	for _, f := range append(s.Better("sysA", "sysB", 0), s.Better("sysB", "sysA", 0)...) {
		better = append(better, f.Outcome.Entry.ID)
	}
	return poolSQL, better
}

func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	// The guided walk must be a pure function of the pool seed: fanning the
	// measurements across 8 workers may only change wall-clock, never the
	// findings. The fake targets' surcharges dwarf scheduler noise so the
	// rankings are stable.
	serialPool, serialBetter := searchFindings(t, 1)
	parallelPool, parallelBetter := searchFindings(t, 8)
	if len(serialPool) != len(parallelPool) {
		t.Fatalf("pool diverged: %d vs %d entries", len(serialPool), len(parallelPool))
	}
	for i := range serialPool {
		if serialPool[i] != parallelPool[i] {
			t.Errorf("pool entry %d diverged:\n workers=1: %s\n workers=8: %s", i+1, serialPool[i], parallelPool[i])
		}
	}
	if len(serialBetter) != len(parallelBetter) {
		t.Fatalf("findings diverged: %v vs %v", serialBetter, parallelBetter)
	}
	for i := range serialBetter {
		if serialBetter[i] != parallelBetter[i] {
			t.Fatalf("finding order diverged: %v vs %v", serialBetter, parallelBetter)
		}
	}
}

func TestSearchResultCacheAcrossDuplicateSQL(t *testing.T) {
	p := newNationPool(t)
	targets := map[string]metrics.Target{
		"sysA": &fakeTarget{base: 100 * time.Microsecond},
		"sysB": &fakeTarget{base: 100 * time.Microsecond},
	}
	s, err := New(p, targets, Options{Runs: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.MeasurePending()
	measured, _ := s.Scheduler().Stats()
	if want := p.Size() * 2; measured != want {
		t.Errorf("measured %d cells, want %d", measured, want)
	}
	// Re-measuring the same pool is free.
	before, _ := s.Scheduler().Stats()
	s.MeasureEntry(p.Baseline())
	after, _ := s.Scheduler().Stats()
	if after != before {
		t.Errorf("already measured entry triggered %d new measurements", after-before)
	}
}

func TestRunContextCancellation(t *testing.T) {
	p := newNationPool(t)
	targets := map[string]metrics.Target{
		"sysA": &fakeTarget{base: time.Millisecond},
		"sysB": &fakeTarget{base: time.Millisecond},
	}
	s, err := New(p, targets, Options{Runs: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := p.Size()
	s.RunContext(ctx, "sysA", "sysB", 3)
	if p.Size() != before {
		t.Errorf("cancelled run grew the pool from %d to %d", before, p.Size())
	}
}

func TestCancelledMeasurementsAreRetried(t *testing.T) {
	p := newNationPool(t)
	targets := map[string]metrics.Target{
		"sysA": &fakeTarget{base: 100 * time.Microsecond},
		"sysB": &fakeTarget{base: 100 * time.Microsecond},
	}
	s, err := New(p, targets, Options{Runs: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.MeasurePendingContext(ctx)
	if n := len(s.Outcomes()); n != 0 {
		t.Fatalf("cancelled run recorded %d outcomes; they would never be re-measured", n)
	}
	// A later, un-cancelled call measures everything for real.
	s.MeasurePending()
	if n := len(s.Outcomes()); n != p.Size() {
		t.Fatalf("retry measured %d of %d entries", n, p.Size())
	}
	for _, o := range s.Outcomes() {
		if o.Failed() {
			t.Errorf("entry #%d still failed after the retry: %+v", o.Entry.ID, o.ByTarget)
		}
	}
}

// TestThirdTargetFailureKeepsPair checks that a ratio is pairwise: a query
// that fails on a third target is still ranked between the two that ran it,
// and one that fails on either of the two is not.
func TestThirdTargetFailureKeepsPair(t *testing.T) {
	p := newNationPool(t)
	failing := metrics.TargetFunc(func(q string) (int, map[string]string, error) {
		if strings.Contains(q, "WHERE") {
			return 0, nil, errors.New("simulated failure")
		}
		return 1, map[string]string{metrics.SimulatedDurationKey: "1000"}, nil
	})
	targets := map[string]metrics.Target{
		"fast":  &simTarget{base: 100 * time.Microsecond},
		"slow":  &simTarget{base: time.Millisecond},
		"flaky": failing,
	}
	s, err := New(p, targets, Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.MeasurePending()
	found := map[int]bool{}
	for _, f := range s.Better("fast", "slow", 0) {
		found[f.Outcome.Entry.ID] = true
	}
	thirdFailed := 0
	for _, o := range s.Outcomes() {
		if !found[o.Entry.ID] {
			t.Errorf("#%d runs 10x faster on fast but is no finding (failed: %v)", o.Entry.ID, o.Failed())
		}
		if o.ByTarget["flaky"].Failed() {
			thirdFailed++
		}
	}
	if thirdFailed == 0 {
		t.Fatal("no query failed on the third target; the test proves nothing")
	}
	for _, f := range s.Better("fast", "flaky", 0) {
		if f.Outcome.ByTarget["flaky"].Failed() {
			t.Errorf("#%d failed on flaky but is a finding against it", f.Outcome.Entry.ID)
		}
	}
}

// traceTarget reports a simulated time and a trace: a scan of scanNS, a
// project of 50 ns, and a pushdown filter of filterNS when the query has a
// WHERE clause. With failOn set, queries containing it fail.
type traceTarget struct {
	scanNS, filterNS int64
	failOn           string
}

func (f *traceTarget) Run(query string) (int, map[string]string, error) {
	if f.failOn != "" && strings.Contains(query, f.failOn) {
		return 0, nil, errors.New("simulated failure")
	}
	qt := trace.QueryTrace{SchemaVersion: trace.SchemaVersion, Spans: []trace.Span{
		{OpID: "scan.0", Kind: trace.KindScan, WallNS: f.scanNS},
		{OpID: "project", Kind: "project", WallNS: 50},
	}}
	if strings.Contains(query, "WHERE") {
		qt.Spans = append(qt.Spans, trace.Span{OpID: "filter.0", Kind: "filter", WallNS: f.filterNS})
	}
	data, err := qt.JSON()
	if err != nil {
		return 0, nil, err
	}
	return 1, map[string]string{
		metrics.SimulatedDurationKey: fmt.Sprint(f.scanNS),
		trace.MeasurementExtraKey:    string(data),
	}, nil
}

func TestOperatorRatios(t *testing.T) {
	p := newNationPool(t)
	targets := map[string]metrics.Target{
		"a": &traceTarget{scanNS: 300, filterNS: 120},
		"b": &traceTarget{scanNS: 100, filterNS: 40, failOn: "n_comment"},
		// An untraced third target that fails everywhere changes nothing.
		"c": &fakeTarget{failOn: "SELECT"},
	}
	s, err := New(p, targets, Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.MeasurePending()
	// Hand-sum the spans of every outcome where both a and b succeeded.
	var both, filtered int64
	for _, e := range p.Entries() {
		if strings.Contains(e.SQL, "n_comment") {
			continue
		}
		both++
		if strings.Contains(e.SQL, "WHERE") {
			filtered++
		}
	}
	if both == 0 || filtered == 0 || both == int64(p.Size()) {
		t.Fatalf("pool of %d: %d traced on both, %d filtered; the test proves nothing", p.Size(), both, filtered)
	}
	// filter and scan tie at 3: the kind breaks the tie.
	want := []string{
		fmt.Sprintf("filter:%d/%d:3", 120*filtered, 40*filtered),
		fmt.Sprintf("scan:%d/%d:3", 300*both, 100*both),
		fmt.Sprintf("project:%d/%d:1", 50*both, 50*both),
	}
	var got []string
	for _, r := range s.OperatorRatios("a", "b") {
		got = append(got, fmt.Sprintf("%s:%d/%d:%v", r.Kind, r.NanosA, r.NanosB, r.Ratio))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("OperatorRatios = %v, want %v", got, want)
	}
	if r := s.OperatorRatios("a", "c"); len(r) != 0 {
		t.Errorf("against an untraced target: %v, want no rows", r)
	}
}
