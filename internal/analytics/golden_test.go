package analytics

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateSampleGolden = flag.Bool("update-sample-golden", false, "rewrite testdata/sample_golden.txt from the current analytics")

// TestSampleRunsGolden pins every analytics output over sampleRuns: History,
// Components, Speedup in both directions, Diff and the CSV export. The JSON
// encoding writes each float64 in its shortest round-trip form, so the
// golden holds every bit.
func TestSampleRunsGolden(t *testing.T) {
	runs := sampleRuns()
	var b strings.Builder
	put := func(name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", name, data)
	}
	for _, target := range []string{"columba", "tuplestore"} {
		put("history "+target, History(runs, target))
		put("components "+target, Components(runs, target))
	}
	put("speedup tuplestore columba", Speedup(runs, "tuplestore", "columba"))
	put("speedup columba tuplestore", Speedup(runs, "columba", "tuplestore"))
	for _, pair := range [][2]int{{1, 2}, {2, 3}, {3, 4}} {
		d, err := Diff(runs, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		put(fmt.Sprintf("diff %d %d", pair[0], pair[1]), d)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, runs); err != nil {
		t.Fatal(err)
	}
	b.WriteString("csv\n")
	b.Write(csv.Bytes())

	path := filepath.Join("testdata", "sample_golden.txt")
	if *updateSampleGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("analytics output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
