package trace

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// readTraceCases reads testdata/trace_cases.txt: Go string literals, one
// a line; blank lines and lines that begin with // are skipped.
func readTraceCases(tb testing.TB) []string {
	data, err := os.ReadFile("testdata/trace_cases.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var cases []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		c, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%q: %v", line, err)
		}
		cases = append(cases, c)
	}
	return cases
}

// escapedNames is a trace whose names hold <, > and &, which JSON escapes:
// the scan refuses its bytes, and ParseTrace reads them with encoding/json.
var escapedNames = &QueryTrace{SchemaVersion: SchemaVersion, Engine: "vek<tor>&", Spans: []Span{
	{OpID: "scan.<0>", Kind: "a&b", WallNS: 5, Rows: 2, Calls: 1},
	{OpID: "filter.0", Kind: KindFilter, WallNS: 7, Rows: 1, Batches: 3, BlocksSkipped: 2},
}}

// FuzzParseTrace holds ParseTrace to encoding/json, the oracle: for
// arbitrary bytes it fails exactly when json.Unmarshal into a QueryTrace
// fails, with the same error, and otherwise returns the same tree, whether
// ScanCanonical read the bytes or encoding/json did; and JSON writes for
// that tree what json.Marshal writes. The seeds are
// testdata/trace_cases.txt and a trace with <>& in its names.
func FuzzParseTrace(f *testing.F) {
	for _, c := range readTraceCases(f) {
		f.Add([]byte(c))
	}
	data, err := escapedNames.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		var want QueryTrace
		errWant := json.Unmarshal(data, &want)
		got, err := ParseTrace(data)
		if (errWant == nil) != (err == nil) || errWant != nil && errWant.Error() != err.Error() {
			t.Fatalf("%q: json.Unmarshal: %v; ParseTrace: %v", data, errWant, err)
		}
		if err == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("%q: ParseTrace = %+v, json.Unmarshal = %+v", data, *got, want)
		}
		if err == nil {
			marshalled, _ := json.Marshal(&want)
			if appended, _ := want.JSON(); string(appended) != string(marshalled) {
				t.Fatalf("%q: JSON = %s, json.Marshal = %s", data, appended, marshalled)
			}
		}
	})
}

// TestJSONIsCanonical: JSON writes what json.Marshal writes; for a trace
// of plain names — what an engine target hands the measurement — it is read
// by the scan, and for a trace with <>& in its names by encoding/json, into
// the same tree.
func TestJSONIsCanonical(t *testing.T) {
	tr := NewTracer()
	tr.Span("scan.0", KindScan).Merge(SpanDelta{WallNS: 1200, Rows: 25, Batches: 1, BlocksSkipped: 4})
	tr.Span("aggregate.0", KindAgg).Start().Done(1)
	tr.Span("project.0", KindProject)
	for _, qt := range []*QueryTrace{tr.Trace("vektor-2.0"), {SchemaVersion: SchemaVersion}, escapedNames, nil} {
		data, err := qt.JSON()
		if want, _ := json.Marshal(qt); err != nil || string(data) != string(want) {
			t.Fatalf("JSON = %s, %v; json.Marshal writes %s", data, err, want)
		}
		if qt == nil {
			continue
		}
		if canonical := ScanCanonical(data, nil); canonical != (qt != escapedNames) {
			t.Errorf("%s: ScanCanonical = %v", data, canonical)
		}
		if got, err := ParseTrace(data); err != nil || !reflect.DeepEqual(got, qt) {
			t.Errorf("%s: ParseTrace = %+v, %v; want %+v", data, got, err, qt)
		}
	}
}
