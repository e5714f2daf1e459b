package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the catalogue; if this fails, run
// `go run ./sqalpelbench -catalogue > ../BENCHMARK.json` from benchmarks/.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the catalogue generates; regenerate it with sqalpelbench -catalogue")
	}
}

// The limits the acceptance driver puts on BENCHMARK.json.
func TestCatalogueWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s with unit s, lower is better, is required")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	if data, _ := benchmarkJSON(); len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}
