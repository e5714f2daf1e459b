package repository

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/trace"
)

// traceCases are span trees as JSON text a driver could send, the cases
// internal/trace/testdata/trace_cases.txt describes.
var traceCases = readTraceCases("../trace/testdata/trace_cases.txt")

// readTraceCases reads a file of Go string literals, one a line; blank
// lines and lines that begin with // are skipped.
func readTraceCases(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	var cases []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		c, err := strconv.Unquote(line)
		if err != nil {
			panic(fmt.Sprintf("%s: %q: %v", path, line, err))
		}
		cases = append(cases, c)
	}
	return cases
}

// FuzzResultRowJSON holds the results page's row encoder to encoding/json,
// the oracle: for a row of arbitrary strings, seconds, creation time, extras
// and span tree, Result.appendJSON must append what json.NewEncoder writes
// for the row, without the newline, and the row sealed must pass
// checkSealed. The span tree's bytes go through
// TraceJSON.UnmarshalJSON, which must fail exactly when decoding them into
// a *trace.QueryTrace fails, with the same error, and otherwise store that
// trace's canonical encoding — bare and as a row field that may come twice.
// Bytes that decode into a trace, given or stored, must Decode into what
// encoding/json decodes, whether trace.ScanCanonical reads them or not.
// Extras or a trace that do not decode are built from the strings instead,
// invalid UTF-8 and all. The seeds are testdata/extras_cases.txt and
// traceCases.
func FuzzResultRowJSON(f *testing.F) {
	extras := readExtrasCases(f)
	for i, c := range extras {
		tc := traceCases[i%len(traceCases)]
		f.Add(c.json, []byte(tc), "00112233445566778899aabbccddeeff", "", 0.25, int64(1760529600123456789), 0)
	}
	for i, tc := range traceCases {
		f.Add([]byte(`{"q":"a<b && c>d"}`), []byte(tc), "vektor<2>& ", "boom \"x\" é \x01", 1e-7*float64(i+1), int64(i), 60*i-300)
		f.Add([]byte(`null`), []byte(`{"trace":`+tc+`,"trace":{"engine":"x"}}`), "\xff", "", 1e21, int64(-1), 1439)
	}
	f.Fuzz(func(t *testing.T, extra, spans []byte, name, errMsg string, second float64, nanos int64, zoneMinutes int) {
		var want *trace.QueryTrace
		var got TraceJSON
		errWant, errGot := json.Unmarshal(spans, &want), got.UnmarshalJSON(spans)
		if (errWant == nil) != (errGot == nil) || errWant != nil && errWant.Error() != errGot.Error() {
			t.Fatalf("%q: decoding into a *trace.QueryTrace: %v; into TraceJSON: %v", spans, errWant, errGot)
		}
		if errWant == nil && !bytes.Equal(got, EncodeTrace(want)) {
			t.Fatalf("%q: stored %q, want %q", spans, got, EncodeTrace(want))
		}
		for _, b := range []TraceJSON{got, TraceJSON(spans)} {
			var viaJSON *trace.QueryTrace
			if json.Unmarshal(b, &viaJSON) == nil && viaJSON != nil && !reflect.DeepEqual(b.Decode(), viaJSON) {
				t.Fatalf("%q decodes as %+v, encoding/json as %+v", b, b.Decode(), viaJSON)
			}
		}
		var wantRow struct {
			Trace *trace.QueryTrace `json:"trace,omitempty"`
		}
		var gotRow struct {
			Trace TraceJSON `json:"trace,omitempty"`
		}
		errWant, errGot = json.Unmarshal(spans, &wantRow), json.Unmarshal(spans, &gotRow)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%q: decoding a row with a *trace.QueryTrace: %v; with TraceJSON: %v", spans, errWant, errGot)
		}
		if errWant == nil && !bytes.Equal(gotRow.Trace, EncodeTrace(wantRow.Trace)) {
			t.Fatalf("%q: the row stored %q, want %q", spans, gotRow.Trace, EncodeTrace(wantRow.Trace))
		}

		if math.IsInf(second, 0) || math.IsNaN(second) {
			return // no encoder writes the row
		}
		r := &Result{
			ID: int(nanos), ProjectID: zoneMinutes, ExperimentID: -1, QueryID: len(name),
			ContributorKey: name, DBMSKey: errMsg, PlatformKey: name + errMsg,
			Seconds: []float64{second, -second, second * 1e-9, second * 1e15},
			Error:   errMsg, Hidden: nanos%2 == 0,
			Created: time.Unix(0, nanos).In(time.FixedZone("", zoneMinutes*60)),
		}
		if len(name) > 3 {
			r.Seconds = nil
		}
		if r.Extra.UnmarshalJSON(extra) != nil {
			r.Extra = EncodeExtras(map[string]string{name: errMsg, errMsg: string(extra)})
		}
		r.Trace = got
		if errGot != nil {
			r.Trace = EncodeTrace(&trace.QueryTrace{Engine: name, Spans: []trace.Span{{OpID: errMsg, Kind: string(spans), WallNS: nanos}}})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			return // a creation time no encoder writes (a year past 9999)
		}
		oracle := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if row, _, _ := r.appendJSON([]byte("[")); !bytes.Equal(row[1:], oracle) || row[0] != '[' {
			t.Fatalf("appendJSON wrote\n%s\nencoding/json\n%s", row, oracle)
		}
		r.seal(new(arena))
		checkSealed(t, r)
	})
}

// TestAppendJSONAllocatesNothing pins that appending a row to a buffer with
// room for it allocates nothing — a driver's row, with extras and a span
// tree holding <>&, and creation time in a named zone.
func TestAppendJSONAllocatesNothing(t *testing.T) {
	qt := driverTrace(7)
	r := &Result{
		ID: 1, ProjectID: 2, ExperimentID: 3, QueryID: 4,
		ContributorKey: "00112233445566778899aabbccddeeff", DBMSKey: "vektor-2.0", PlatformKey: "laptop",
		Seconds: []float64{0.0011, 1e-7, 1e21}, Error: "plain error", Hidden: true,
		Created: time.Date(2026, 10, 17, 3, 0, 0, 123456789, time.FixedZone("CEST", 7200)),
	}
	if err := json.Unmarshal(driverExtras(7), &r.Extra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bytes.Replace(qt, []byte("vektor"), []byte("vek<tor>&"), 1), &r.Trace); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64<<10)
	if allocs := testing.AllocsPerRun(100, func() { buf, _, _ = r.appendJSON(buf[:0]) }); allocs != 0 {
		t.Fatalf("appendJSON allocates %.0f times per row", allocs)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(r); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := r.appendJSON(nil); !bytes.Equal(append(got, '\n'), want.Bytes()) {
		t.Fatalf("appendJSON wrote\n%s\nencoding/json\n%s", got, want.Bytes())
	}
	if got := r.Trace.Decode(); got == nil || len(got.Spans) != 16 || !reflect.DeepEqual(EncodeTrace(got), r.Trace) {
		t.Fatalf("the trace decodes as %+v", got)
	}
}

// TestDriverTracesAreCanonical pins that what a driver sends — a trace's
// json.Marshal — and what EncodeTrace writes take UnmarshalJSON's copy
// path, so a completion's trace is not decoded and encoded again.
func TestDriverTracesAreCanonical(t *testing.T) {
	for i := 0; i < 4; i++ {
		data := driverTrace(i)
		if !trace.ScanCanonical(data, nil) {
			t.Fatalf("a driver's trace is not taken as canonical: %s", data)
		}
		if qt := TraceJSON(data).Decode(); !trace.ScanCanonical(EncodeTrace(qt), nil) {
			t.Fatalf("EncodeTrace wrote what it does not take as canonical: %s", EncodeTrace(qt))
		}
	}
}
