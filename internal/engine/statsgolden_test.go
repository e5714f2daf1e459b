package engine_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"sqalpel/internal/engine"
	"sqalpel/internal/workload"
)

// Regenerate only for an intended change of a modelled cost:
//
//	go test ./internal/engine -run TestInterpreterStatsGolden -update-stats-golden
var updateStatsGolden = flag.Bool("update-stats-golden", false, "rewrite testdata/interp_stats_golden.json")

// TestInterpreterStatsGolden pins every counter of plan.Stats.Map() per
// (interpreter engine, TPC-H query): the counters are the costs the
// paradigms model (tuple reconstruction, one pass per conjunct, guard casts,
// sub-query re-execution), so an interpreter speed-up must leave all of them
// where they were. The file was generated at the commit before the
// interpreters moved to plan-assigned column slots.
func TestInterpreterStatsGolden(t *testing.T) {
	const path = "testdata/interp_stats_golden.json"
	reg := engine.NewRegistry()
	got := map[string]map[string]map[string]int64{}
	for _, key := range []string{"tuplestore-1.0", "columba-1.0", "columba-2.0"} {
		got[key] = map[string]map[string]int64{}
		for _, q := range workload.TPCH() {
			res, err := reg.Get(key).Execute(tpchDB, q.SQL, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", key, q.ID, err)
			}
			got[key][q.ID] = res.Stats.Map()
		}
	}
	doc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	doc = append(doc, '\n')
	if *updateStatsGolden {
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-stats-golden): %v", err)
	}
	if string(doc) != string(want) {
		t.Errorf("interpreter counters drifted from %s; a modelled cost moved", path)
		var old map[string]map[string]map[string]int64
		if json.Unmarshal(want, &old) == nil {
			for key, queries := range got {
				for id, stats := range queries {
					for name, v := range stats {
						if w := old[key][id][name]; w != v {
							t.Errorf("%s %s %s = %d, golden %d", key, id, name, v, w)
						}
					}
				}
			}
		}
	}
}
