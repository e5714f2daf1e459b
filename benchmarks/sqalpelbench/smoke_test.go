package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Every workload, untraced and traced, at smoke size: the run must complete,
// report every metric of its mode and pass its own correctness checks.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				cfg := config{workload: w.Name, seed: 7, window: 300 * time.Millisecond, trace: traced, smoke: true, outDir: out}
				if code := runWorkload(cfg); code != 0 {
					t.Fatalf("runWorkload exited with %d; its report is above", code)
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
						t.Errorf("the traced run left no trace file: %v", err)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(out, "tmp", "*")); len(left) > 0 {
					t.Errorf("temporary stores left behind: %v", left)
				}
			})
		}
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	if code := runWorkload(config{workload: "no_such_workload", outDir: t.TempDir()}); code == 0 {
		t.Error("an unknown workload must not exit with 0")
	}
}
