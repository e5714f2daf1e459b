// Command sqalpelbench is the benchmark of record of the sqalpel platform.
// One invocation runs one named workload in a fresh process, prints its
// metrics by name and unit, checks the outputs for correctness and ends with
// one JSON line for the acceptance driver:
//
//	sqalpelbench -workload tpch_power -seed 42 -seconds 20 -trace 0
//
// With -trace 0 it measures the end-to-end metrics over an untraced window.
// With -trace 1 it repeats a shortened window with harness-side spans around
// the calls into each layer, writes them to <out>/<workload>.trace.json, runs
// the per-layer probes and prints the per-layer metrics instead. See
// ../README.md for the workloads, the metric catalogue and how to read a
// trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool
	outDir   string
}

// report collects what one run prints.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	notes     []string
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check; any problem fails the run.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	var catalogue, golden, agree bool
	var agreeRuns int
	var other string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 42, "workload seed: pool seeds and operation order derive from it (the data seed is fixed)")
	flag.Float64Var(&seconds, "seconds", runSeconds, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced window and the per-layer probes instead of the end-to-end window")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes and a window of about a second; checks the harness, not the platform")
	flag.StringVar(&cfg.outDir, "out", "benchmarks/out", "directory for trace files and temporary stores")
	flag.BoolVar(&catalogue, "catalogue", false, "print BENCHMARK.json as generated from the metric catalogue and exit")
	flag.BoolVar(&golden, "golden", false, "print testdata/tpch_golden.json as the engines compute it now and exit")
	flag.BoolVar(&agree, "agree", false, "run every workload -runs times twice and fail if a metric's medians differ, or its runs spread, by more than its bound")
	flag.IntVar(&agreeRuns, "runs", 10, "with -agree: runs per workload and side")
	flag.StringVar(&other, "other", "", "with -agree: a second sqalpelbench binary (the parent commit's) to compare against instead of this one")
	flag.Parse()

	switch {
	case catalogue:
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case golden:
		data, err := printGolden()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case agree:
		if err := runAgree(agreeRuns, seconds, other); err != nil {
			fatal(err)
		}
	default:
		cfg.window = time.Duration(seconds * float64(time.Second))
		cfg.trace = traceFlag != 0
		os.Exit(runWorkload(cfg))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqalpelbench:", err)
	os.Exit(1)
}

// runWorkload runs one workload and prints its report; the exit code is 0
// only when the run completed and every correctness check passed.
func runWorkload(cfg config) int {
	impl := newWorkload(cfg)
	if impl == nil {
		fmt.Fprintf(os.Stderr, "sqalpelbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), workloadProcs(cfg.workload)))
	env := envStamp()

	rep := &report{metrics: map[string]float64{}}
	var err error
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		err = runTraced(cfg, impl, rep, env)
	} else {
		err = runEndToEnd(cfg, impl, rep)
	}
	impl.close()
	if err != nil {
		rep.problem("run aborted: %v", err)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s was not measured", d.Name)
			rep.metrics[d.Name] = 0
		}
	}
	if rep.attempted < 1 {
		rep.attempted = 1
		rep.failed = 1
	}

	fmt.Printf("workload %s seed %d window %s trace %v smoke %v\n", cfg.workload, cfg.seed, cfg.window, cfg.trace, cfg.smoke)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env %s: %s\n", k, env[k])
	}
	fmt.Println("flush policy: the store's own — every mutation is appended to its shard's log and fsynced before it returns")
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("operations attempted %d failed %d\n", rep.attempted, rep.failed)
	out := map[string]map[string]any{}
	for _, d := range defs {
		fmt.Printf("%-44s %14.6g %s\n", d.Name, rep.metrics[d.Name], d.Unit)
		out[d.Name] = map[string]any{"value": rep.metrics[d.Name], "unit": d.Unit}
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	line, jerr := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "sqalpelbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// envStamp describes the machine and build a number was measured on; it is
// printed with every run and stored in every trace file.
func envStamp() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        "unknown",
		"git":        "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The acceptance driver runs in a checkout without .git; there the SHA
	// stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["git"] = strings.TrimSpace(string(out))
	}
	return env
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
