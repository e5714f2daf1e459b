package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of one tree: they count work, they do not time it.
var exactCounts = []string{
	"engine.rows_scanned_per_pass", "engine.blocks_skipped_per_pass", "engine.fallback_queries",
	"driver.lease_lost", "sched.cache_hit_ratio",
}

// runResult is the last line a workload run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runOnce runs one workload in a fresh process and parses its result line.
func runOnce(bin, workload string, seed int, seconds float64, traced int) (*runResult, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err != nil {
		return nil, fmt.Errorf("%s -workload %s -seed %d: %w\n%s", bin, workload, seed, err, out)
	}
	var res runResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s -workload %s: last line is not a result: %w", bin, workload, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s -workload %s -seed %d: outputs incorrect", bin, workload, seed)
	}
	return &res, nil
}

// runAgree runs every workload runs times on each of two sides, alternating
// which side goes first, and prints the median and quartiles of every
// end-to-end metric per side. Without other, both sides are this binary and
// the medians must agree within each metric's bound in either direction —
// the benchmark's own repeatability. With other (the parent commit's
// binary) this binary is the change: it fails only where it is worse. A
// metric whose runs spread wider than its bound is reported as unresolved,
// which also fails.
func runAgree(runs int, seconds float64, other string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sides := [2]string{self, self}
	labels := [2]string{"first", "second"}
	if other != "" {
		sides[0] = other
		labels = [2]string{"parent", "change"}
	}
	var failures []string
	for _, w := range workloadDefs {
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				res, err := runOnce(sides[side], w.Name, 1000+i, seconds, 0)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[side][name] = append(values[side][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s (%d runs a side)\n", w.Name, runs)
		fmt.Printf("  %-18s %-7s %12s %12s %12s %8s\n", "metric", "side", "q1", "median", "q3", "spread")
		for _, d := range endToEnd {
			var med [2]float64
			for side := range sides {
				q1, q2, q3 := quartiles(values[side][d.Name])
				med[side] = q2
				spread := 0.0
				if q2 != 0 {
					spread = (q3 - q1) / q2
				}
				fmt.Printf("  %-18s %-7s %12.5g %12.5g %12.5g %7.2f%%\n", d.Name, labels[side], q1, q2, q3, 100*spread)
				// The set-up time is bounded on its medians only.
				if spread > *d.Bound && d.Name != "setup_s" {
					failures = append(failures, fmt.Sprintf("%s %s (%s): unresolved, spread %.1f%% exceeds the bound %.0f%%", w.Name, d.Name, labels[side], 100*spread, 100**d.Bound))
				}
			}
			if med[0] == 0 {
				failures = append(failures, fmt.Sprintf("%s %s: median is 0", w.Name, d.Name))
				continue
			}
			worse := (med[1] - med[0]) / med[0]
			if d.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("  %-18s %s is %+.2f%% worse than %s (bound %.0f%%)\n", d.Name, labels[1], 100*worse, labels[0], 100**d.Bound)
			if worse > *d.Bound || (other == "" && -worse > *d.Bound) {
				failures = append(failures, fmt.Sprintf("%s %s: medians differ by %.1f%%, bound %.0f%%", w.Name, d.Name, 100*worse, 100**d.Bound))
			}
		}
		// One traced run a side: the counts must repeat exactly.
		var traced [2]*runResult
		for side := range sides {
			if traced[side], err = runOnce(sides[side], w.Name, 1000, seconds, 1); err != nil {
				return err
			}
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			fmt.Printf("  %-34s %s %.6g  %s %.6g\n", name, labels[0], a, labels[1], b)
			if a != b && other == "" {
				failures = append(failures, fmt.Sprintf("%s %s: %v and %v, an exact count must repeat", w.Name, name, a, b))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d disagreements:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("\nall end-to-end metrics agree within their bounds")
	return nil
}
