package trace_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqalpel/internal/datagen"
	"sqalpel/internal/engine"
	"sqalpel/internal/fuzzdiff"
	"sqalpel/internal/trace"
	"sqalpel/internal/workload"
)

// Regenerate the span golden only for an intended change of the operator-id
// scheme or of what an operator counts:
//
//	go test ./internal/trace/ -run TestSpansGolden -update-spans
var updateSpans = flag.Bool("update-spans", false, "rewrite testdata/spans_golden.txt")

// spanShapes are the statement shapes the workloads miss: set operations,
// sub-queries in every clause and nesting the id scheme numbers (or, inside
// explicit JOIN trees, deliberately does not), and derived inputs.
var spanShapes = []workload.Query{
	{ID: "union-all", SQL: "SELECT n_name FROM nation WHERE n_regionkey = 1 UNION ALL SELECT r_name FROM region"},
	{ID: "except-scalar-sub", SQL: "SELECT n_nationkey FROM nation EXCEPT SELECT n_nationkey FROM nation WHERE n_regionkey = (SELECT min(r_regionkey) FROM region)"},
	{ID: "join-on-sub", SQL: "SELECT count(*) FROM nation JOIN region ON n_regionkey = r_regionkey AND r_regionkey IN (SELECT n_regionkey FROM nation WHERE n_nationkey < 5)"},
	{ID: "join-tree-derived-sub", SQL: "SELECT count(*) FROM nation JOIN (SELECT r_regionkey FROM region WHERE r_regionkey < (SELECT max(n_regionkey) FROM nation)) r ON n_regionkey = r.r_regionkey"},
	{ID: "derived-sub", SQL: "SELECT t.c FROM (SELECT count(*) AS c FROM nation WHERE n_regionkey IN (SELECT r_regionkey FROM region WHERE r_name LIKE 'A%')) t"},
	{ID: "nested-exists", SQL: "SELECT c_custkey FROM customer WHERE EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey AND EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45)) ORDER BY c_custkey LIMIT 10"},
	{ID: "projection-having-sub", SQL: "SELECT n_regionkey, count(*) AS n, (SELECT count(*) FROM region) AS rc FROM nation GROUP BY n_regionkey HAVING count(*) > (SELECT min(r_regionkey) FROM region) ORDER BY n_regionkey"},
	{ID: "distinct-limit-offset", SQL: "SELECT DISTINCT n_regionkey FROM nation ORDER BY n_regionkey LIMIT 3 OFFSET 1"},
	{ID: "two-derived-joined", SQL: "SELECT a.k, b.c FROM (SELECT n_regionkey AS k, count(*) AS n FROM nation GROUP BY n_regionkey) a, (SELECT r_regionkey AS rk, r_name AS c FROM region) b WHERE a.k = b.rk ORDER BY a.k"},
}

// TestSpansGolden pins what every engine traces: for each query and each of
// the six engines, every span's operator id, kind, rows, batches, calls and
// skipped blocks (wall time and allocation are timing-dependent and left
// out). Operator ids are a pure function of the plan, so a diff here is a
// change of the id scheme or of an operator's counting. The workloads and the
// shapes are listed in full; the seed-42 fuzz corpus is one digest per query.
func TestSpansGolden(t *testing.T) {
	fuzzSQL, fuzzDB, err := fuzzdiff.Corpus(fuzzdiff.Options{Seed: 42, Queries: 520})
	if err != nil {
		t.Fatal(err)
	}
	fuzz := make([]workload.Query, len(fuzzSQL))
	for i, sql := range fuzzSQL {
		fuzz[i] = workload.Query{ID: fmt.Sprint(i), SQL: sql}
	}
	tpch := datagen.TPCH(datagen.TPCHOptions{ScaleFactor: 0.001, Seed: 11})
	workloads := []struct {
		name    string
		db      *engine.Database
		queries []workload.Query
		// digest lists a query as one hash line; its statements may fail (the
		// fuzz grammar derives a few every engine rejects alike).
		digest bool
	}{
		{"tpch", tpch, workload.TPCH(), false},
		{"ssb", datagen.SSB(datagen.SSBOptions{ScaleFactor: 0.0003}), workload.SSB(), false},
		{"airtraffic", datagen.Airtraffic(datagen.AirtrafficOptions{Flights: 2000}), workload.Airtraffic(), false},
		{"shapes", tpch, spanShapes, false},
		{"fuzz-seed-42", fuzzDB, fuzz, true},
	}
	reg := engine.NewRegistry()
	var out bytes.Buffer
	for _, wl := range workloads {
		for _, q := range wl.queries {
			var listing bytes.Buffer
			for _, key := range reg.Keys() {
				tr := trace.NewTracer()
				if _, err := reg.Get(key).Execute(wl.db, q.SQL, engine.ExecOptions{Tracer: tr}); err != nil {
					if !wl.digest {
						t.Fatalf("%s %s %s: %v", wl.name, q.ID, key, err)
					}
					fmt.Fprintf(&listing, "%s error\n", key)
				}
				for _, sp := range tr.Trace(key).Spans {
					fmt.Fprintf(&listing, "%s %s %s rows=%d batches=%d calls=%d skipped=%d\n",
						key, sp.OpID, sp.Kind, sp.Rows, sp.Batches, sp.Calls, sp.BlocksSkipped)
				}
			}
			if wl.digest {
				fmt.Fprintf(&out, "%s/%s %x\n", wl.name, q.ID, sha256.Sum256(listing.Bytes()))
				continue
			}
			fmt.Fprintf(&out, "== %s/%s\n", wl.name, q.ID)
			for _, line := range strings.SplitAfter(listing.String(), "\n") {
				if line != "" {
					out.WriteString("  " + line)
				}
			}
		}
	}
	path := filepath.Join("testdata", "spans_golden.txt")
	if *updateSpans {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate: go test ./internal/trace/ -run TestSpansGolden -update-spans): %v", err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("spans drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("spans drifted from %s: %d lines, want %d", path, len(got), len(exp))
	}
}
