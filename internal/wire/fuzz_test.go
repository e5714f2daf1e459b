package wire_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sqalpel/internal/repository"
	"sqalpel/internal/wire"
)

// corpus returns the inputs of a fuzz target's seed corpus directory.
func corpus(tb testing.TB, dir string) [][]byte {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no seed corpus in %s: %v", dir, err)
	}
	var out [][]byte
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		out = append(out, []byte(text))
	}
	return out
}

// replaced reports whether text holds the escape of U+FFFD, which the
// appenders write for invalid UTF-8 and the scanners read as the rune
// itself: text that holds it is not the appender's bytes for what it
// decodes to.
func replaced(text []byte) bool { return bytes.Contains(text, []byte(`\ufffd`)) }

// FuzzScanCompletion holds the server's scanners to encoding/json: whenever
// ScanCompletions takes a body, the server's decoder takes it too and makes
// the same request — key, items, Extras and TraceJSON bytes — and so for
// ScanLeaseRequest, which must moreover only take what AppendLeaseRequest
// writes. Seeds are FuzzTaskComplete's corpus and appended bodies.
func FuzzScanCompletion(f *testing.F) {
	for _, seed := range corpus(f, filepath.Join("..", "server", "testdata", "fuzz", "FuzzTaskComplete")) {
		f.Add(seed)
	}
	r := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 8; i++ {
		var reports []wire.Report
		for n := 1 + r.IntN(3); n > 0; n-- {
			reports = append(reports, wire.Report{TaskID: r.IntN(9), Seconds: []float64{randSecond(r)}, Error: randString(r), Extra: randExtra(r), Trace: randTrace(r)})
		}
		body, _ := wire.AppendReports(nil, randString(r), reports)
		f.Add(body)
		f.Add(wire.AppendLeaseRequest(nil, &wire.LeaseRequest{Key: randString(r), ExperimentID: i, DBMS: randString(r), Platform: randString(r), Max: i}))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var scanned wire.CompletionRequest
		if wire.ScanCompletions(body, &scanned) {
			var decoded wire.CompletionRequest
			if err := decodeStrict(body, &decoded); err != nil || !reflect.DeepEqual(scanned, decoded) {
				t.Fatalf("%q: scanned %+v, decoded %+v (%v)", body, scanned, decoded, err)
			}
		}
		var req wire.LeaseRequest
		if wire.ScanLeaseRequest(body, &req) {
			var decoded wire.LeaseRequest
			if err := decodeStrict(body, &decoded); err != nil || req != decoded {
				t.Fatalf("%q: scanned %+v, decoded %+v (%v)", body, req, decoded, err)
			}
			if again := wire.AppendLeaseRequest(nil, &req); !replaced(body) && !bytes.Equal(again, body) {
				t.Fatalf("%q was taken, but the appender writes %q for it", body, again)
			}
		}
	})
}

// FuzzScanLease holds the driver's scanners to encoding/json, for an answer
// of the server is input a driver must not trust either: whenever
// ScanLease (single or batch) or ScanCompletionResults takes an answer, the
// driver's decoder makes the same of it, and the appender writes exactly
// the answer for what was read.
func FuzzScanLease(f *testing.F) {
	r := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 8; i++ {
		tasks := []*repository.Task{randTask(r), randTask(r)}
		for _, batch := range []bool{false, true} {
			if answer, ok := wire.AppendLease(nil, tasks, batch); ok {
				f.Add(answer)
			}
		}
		f.Add(wire.AppendCompletionResults(nil, []wire.CompletionResult{{TaskID: i, Status: 201}, {TaskID: i + 1, Status: 409, Error: randString(r)}}))
	}
	f.Add([]byte(`{"tasks":[]}` + "\n"))
	f.Add([]byte(`{"results":null}` + "\n"))
	f.Fuzz(func(t *testing.T, answer []byte) {
		decode := func(v any) error { return json.NewDecoder(bytes.NewReader(answer)).Decode(v) }
		for _, batch := range []bool{false, true} {
			tasks, ok := wire.ScanLease(answer, batch)
			if !ok {
				continue
			}
			var decoded []*repository.Task
			var err error
			if batch {
				var resp struct {
					Tasks []*repository.Task `json:"tasks"`
				}
				err, decoded = decode(&resp), resp.Tasks
			} else {
				var task repository.Task
				err, decoded = decode(&task), []*repository.Task{&task}
			}
			if err != nil || !reflect.DeepEqual(tasks, decoded) {
				t.Fatalf("%q (batch %v): scanned %+v, decoded %+v (%v)", answer, batch, tasks, decoded, err)
			}
			if again, _ := wire.AppendLease(nil, tasks, batch); !replaced(answer) && !bytes.Equal(again, answer) {
				t.Fatalf("%q was taken, but the appender writes %q for it", answer, again)
			}
		}
		if results, ok := wire.ScanCompletionResults(answer); ok {
			var resp struct {
				Results []wire.CompletionResult `json:"results"`
			}
			if err := decode(&resp); err != nil || !reflect.DeepEqual(results, resp.Results) {
				t.Fatalf("%q: scanned %+v, decoded %+v (%v)", answer, results, resp.Results, err)
			}
			if again := wire.AppendCompletionResults(nil, results); !replaced(answer) && !bytes.Equal(again, answer) {
				t.Fatalf("%q was taken, but the appender writes %q for it", answer, again)
			}
		}
	})
}
