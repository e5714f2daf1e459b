package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/fuzzdiff"
	"sqalpel/internal/workload"
)

// TestSlotsMatchNameLookupOnWorkloads replays every workload query and the
// differential fuzzer's seed-42 corpus on both interpreter layouts with every
// column read held to the name lookup in the runtime scope chain
// (engine.CheckSlots): wherever plan.Build's replay of the interpreters'
// scopes and layouts differed from what execution builds, a read fails here.
func TestSlotsMatchNameLookupOnWorkloads(t *testing.T) {
	fuzzQueries, fuzzDB, err := fuzzdiff.Corpus(fuzzdiff.Options{Seed: 42, Queries: 520})
	if err != nil {
		t.Fatal(err)
	}
	fuzz := make([]workload.Query, len(fuzzQueries))
	for i, sql := range fuzzQueries {
		fuzz[i] = workload.Query{ID: fmt.Sprint(i), SQL: sql}
	}
	workloads := []struct {
		name    string
		db      *engine.Database
		queries []workload.Query
		// mayFail: the fuzz grammar derives a few statements every engine
		// rejects alike; the reads up to the error are still checked.
		mayFail bool
	}{
		{"tpch", tpchDB, workload.TPCH(), false},
		{"ssb", datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003}), workload.SSB(), false},
		{"airtraffic", datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000}), workload.Airtraffic(), false},
		{"fuzz-seed-42", fuzzDB, fuzz, true},
	}
	reg := engine.NewRegistry()
	opts := engine.ExecOptions{}
	for _, wl := range workloads {
		for _, key := range []string{"tuplestore-1.0", "columba-1.0"} {
			t.Run(wl.name+"/"+key, func(t *testing.T) {
				stop := engine.CheckSlots(t)
				for _, q := range wl.queries {
					if _, err := reg.Get(key).Execute(wl.db, q.SQL, opts); err != nil && !wl.mayFail {
						t.Errorf("%s: %v", q.ID, err)
					}
				}
				if reads := stop(); reads < len(wl.queries) {
					t.Errorf("the oracle checked %d column reads over %d queries", reads, len(wl.queries))
				}
			})
		}
	}
}

// TestOnePlanExecutedConcurrently runs one cached plan on the row and the
// column interpreter from several goroutines at once. The plan carries both
// slot tables and both layouts; executions only read them, which is what the
// race detector checks here (CI runs this under -race).
func TestOnePlanExecutedConcurrently(t *testing.T) {
	reg := engine.NewRegistry()
	opts := engine.ExecOptions{}
	for _, id := range []string{"Q4", "Q13", "Q19", "Q21"} {
		q, err := workload.TPCHQuery(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reg.Get("vektor-1.0").Execute(tpchDB, q.SQL, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			key := []string{"tuplestore-1.0", "columba-2.0", "columba-1.0"}[w%3]
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := reg.Get(key).Execute(tpchDB, q.SQL, opts)
				if err != nil {
					t.Errorf("%s %s: %v", id, key, err)
				} else if res.Fingerprint() != want.Fingerprint() {
					t.Errorf("%s %s: answer differs from the one computed alone", id, key)
				}
			}()
		}
		wg.Wait()
	}
	if hits, misses := reg.PlanCache().Stats(); misses != 4 || hits != 4*6 {
		t.Errorf("plan cache: %d hits, %d misses; want every concurrent execution to share its query's one plan", hits, misses)
	}
}
