package main

import (
	"encoding/json"
	"fmt"

	"sqalpel/internal/workload"
)

// This file is the single definition of what the benchmark measures:
// BENCHMARK.json at the repository root is generated from it
// (sqalpelbench -catalogue) and a test keeps the two identical.

// runSeconds is the measured window the acceptance driver asks for.
const runSeconds = 20

// The engines the workloads exercise, by registry key.
const (
	vektor  = "vektor-2.0"
	fusil   = "fusil-1.0"
	columba = "columba-2.0"
)

var benchEngines = []string{vektor, fusil, columba}

// opKinds are the buckets operator spans are summed into.
var opKinds = []string{"scan", "filter", "join", "aggregate", "sort", "subquery", "other"}

// pageRoutes are the pages the reader of task_drain_readers loops over.
var pageRoutes = []string{"pool", "history", "results", "trace"}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"tpch_power", "22 TPC-H queries, hot plans, one client, three engines: the executors do all the work, so operator-core, fusil and typed-result changes must show here and front end or platform changes must not"},
	{"search_variants", "seeded pool morphs of Q1/Q2/Q12/Q18 measured on two engines over tiny data: every cell is new SQL, so parse, plan build, pool, sched and metrics overhead show; same engines as tpch_power, cold plans"},
	{"task_drain", "driver drains leased tasks over loopback HTTP into the durable store (fsync per mutation) on tiny data: lease, HTTP, handler and WAL dominate and the engines do little, the mirror of tpch_power"},
	{"task_drain_readers", "task_drain with one traced driver worker beside a reader looping over pool, history, results and trace pages of the drained projects: reads and writes contend for the same shard locks"},
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bounded(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// endToEnd are the metrics a user of the platform sees. Every workload
// reports all of them; what an "operation" is differs per workload (a query
// execution, a measured cell, a completed task) and is stated in the README.
// All times but peak_rss_mb are scaled to the reference host speed (see
// speed.go). Every bound is the largest the acceptance driver allows: on the
// reference box ten runs of one binary spread (interquartile range as a
// share of the median) by 2 to 5 per cent in an ordinary quarter of an hour,
// but the shared host has quarters of an hour in which no scaling keeps the
// spread under the issue's 10 per cent.
var endToEnd = []metricDef{
	bounded("ops_per_s", "1/s", "higher", 0.25),
	bounded("op_p50_ms", "ms", "lower", 0.25),
	bounded("op_p95_ms", "ms", "lower", 0.25),
	bounded("class_geomean_ms", "ms", "lower", 0.25),
	bounded("peak_rss_mb", "MB", "lower", 0.25),
	bounded("setup_s", "s", "lower", 0.25),
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	// From the traced window of the workload itself.
	for _, l := range layers {
		add("share."+l, "ratio", "lower")
	}
	add("trace.cover_ratio", "ratio", "higher")
	add("trace.window_overhead_ratio", "ratio", "lower")
	add("plan.cache_hit_ratio", "ratio", "higher")
	add("op_pmax_ms", "ms", "lower")
	add("op_pmax_pct", "%", "higher")
	add("driver.lease_lost", "count", "lower")
	// From the probes, which are the same on every workload.
	add("sqlparser.parse_us", "us", "lower")
	add("plan.build_us", "us", "lower")
	add("derive.grammar_ms", "ms", "lower")
	add("pool.seed_us_per_variant", "us", "lower")
	add("pool.grow_us_per_variant", "us", "lower")
	add("pool.exhaust_ms", "ms", "lower")
	add("discriminative.rank_ms", "ms", "lower")
	add("metrics.overhead_us_per_run", "us", "lower")
	add("sched.dispatch_us_per_cell", "us", "lower")
	add("sched.queue_wait_ms_p50", "ms", "lower")
	add("sched.cache_hit_ratio", "ratio", "higher")
	for _, e := range []string{vektor, fusil} {
		for _, q := range workload.TPCHIDs() {
			add("engine.query_ms."+e+"."+q, "ms", "lower")
		}
	}
	for _, e := range benchEngines {
		add("engine.power_s."+e, "s", "lower")
		add("engine.fixed_cost_us."+e, "us", "lower")
		add("engine.alloc_mb_per_pass."+e, "MB", "lower")
		add("engine.allocs_per_pass."+e, "count", "lower")
	}
	for _, k := range opKinds {
		add("vexec.op_ms."+k, "ms", "lower")
	}
	for _, k := range opKinds {
		add("cexec.op_ms."+k, "ms", "lower")
	}
	add("engine.rows_scanned_per_pass", "count", "lower")
	add("engine.blocks_skipped_per_pass", "count", "higher")
	add("engine.fallback_queries", "count", "lower")
	add("engine.typed_import_ms", "ms", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	add("repository.lease_us_p50", "us", "lower")
	add("repository.complete_us_p50", "us", "lower")
	add("repository.mem_complete_us_p50", "us", "lower")
	add("repository.wal_bytes_per_task", "bytes", "lower")
	add("repository.checkpoint_ms", "ms", "lower")
	add("repository.checkpoint_bytes", "bytes", "lower")
	add("repository.recover_ms", "ms", "lower")
	add("repository.results_read_us_p50", "us", "lower")
	add("server.request_us_p50", "us", "lower")
	add("server.complete_us_p50", "us", "lower")
	for _, r := range pageRoutes {
		add("server.page_ms_p50."+r, "ms", "lower")
	}
	add("driver.request_ms_p50", "ms", "lower")
	add("driver.report_ms_p50", "ms", "lower")
	add("driver.measure_ms_p50", "ms", "lower")
	return out
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding BENCHMARK.json: %w", err)
	}
	return append(data, '\n'), nil
}
