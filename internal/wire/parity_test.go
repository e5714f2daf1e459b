package wire_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
	"sqalpel/internal/wire"
)

// pieces are what the random strings are made of: plain text and every
// byte or rune encoding/json escapes or replaces — <>&, quote and
// backslash, control bytes, U+2028/U+2029, invalid and truncated UTF-8.
var pieces = []string{
	"a", "Z", "0", " ", "SELECT ", "'", "/", "<", ">", "&", `"`, `\`, "\n", "\t", "\r", "\b", "\f",
	"\x00", "\x01", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\ufffd", "\xff", "\xe2\x80", "😀", "\u00a0",
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.IntN(6); n > 0; n-- {
		b.WriteString(pieces[r.IntN(len(pieces))])
	}
	return b.String()
}

var seconds = []float64{0, math.Copysign(0, -1), 1e-9, 1e-6, 9.99e-7, 0.1, 0.0015, 1, 123456789.123, 1e20, 1e21, 1e22, 5e-324, math.MaxFloat64, -1.5}

func randSecond(r *rand.Rand) float64 {
	if r.IntN(2) == 0 {
		return seconds[r.IntN(len(seconds))]
	}
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

var zones = []*time.Location{time.UTC, time.Local, time.FixedZone("", 5*3600+1800), time.FixedZone("W", -(23*3600 + 59*60)), time.FixedZone("", 24*3600)}

func randTime(r *rand.Rand) time.Time {
	switch r.IntN(8) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date([]int{-1, 0, 9999, 10000}[r.IntN(4)], 12, 31, 23, 59, 59, r.IntN(1e9), time.UTC)
	}
	return time.Unix(r.Int64N(1<<34), r.Int64N(1e9)*int64(r.IntN(2))).In(zones[r.IntN(len(zones))])
}

func randInt(r *rand.Rand) int {
	return []int{0, 1, -1, 7, 1 << 40, math.MaxInt, math.MinInt}[r.IntN(7)]
}

func randTask(r *rand.Rand) *repository.Task {
	return &repository.Task{ID: randInt(r), ProjectID: r.IntN(9), ExperimentID: r.IntN(9), QueryID: randInt(r), SQL: randString(r),
		ContributorKey: randString(r), DBMSKey: randString(r), PlatformKey: randString(r), Status: repository.TaskStatus(randString(r)),
		Assigned: randTime(r), Deadline: randTime(r), Finished: randTime(r)}
}

// randTrace returns a span tree as a target may write it: nil; what
// json.Marshal writes, with strings plain or escaped; canonical with raw
// <, > and &; valid JSON in another order or spacing; JSON that is no
// trace; no JSON at all.
func randTrace(r *rand.Rand) []byte {
	qt := &trace.QueryTrace{SchemaVersion: r.IntN(3), Engine: []string{"", "vektor-2.0", "a<b>&c"}[r.IntN(3)]}
	for n := r.IntN(4); n > 0; n-- {
		qt.Spans = append(qt.Spans, trace.Span{OpID: []string{"scan.0", "f<1>", "x&y"}[r.IntN(3)], Kind: "scan",
			WallNS: r.Int64N(1e9), Rows: r.Int64N(100), Batches: r.Int64N(2), BlocksSkipped: r.Int64N(2)})
	}
	switch r.IntN(8) {
	case 0:
		return nil
	case 1:
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(qt)
		return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
	case 2:
		return []byte(` {"spans": [], "schema_version": 1} `)
	case 3:
		return []byte([]string{"[1,2]", "null", `{"spans":`, "not json", `{"spans":"x"}`}[r.IntN(5)])
	}
	b, _ := json.Marshal(qt)
	return b
}

func randExtra(r *rand.Rand) map[string]string {
	switch r.IntN(5) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	}
	m := map[string]string{}
	for n := r.IntN(6); n > 0; n-- {
		m[randString(r)] = randString(r)
	}
	return m
}

// report is a completion as the driver sent it before the codec: the span
// tree it decoded from the target's bytes, if they decoded.
type report struct {
	TaskID  int               `json:"task_id"`
	Seconds []float64         `json:"seconds"`
	Error   string            `json:"error"`
	Extra   map[string]string `json:"extra"`
	Trace   *trace.QueryTrace `json:"trace,omitempty"`
}

// decodeStrict is how the server decodes a body the scanner does not take.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode is what a json.Encoder writes for v.
func encode(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// TestAppendersMatchEncodingJSON holds every appender to encoding/json —
// json.Marshal for the driver's bodies, a json.Encoder for the server's
// answers — over random values, and every scanner to what encoding/json
// decodes from the appender's bytes, which the scanner must take.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 2026))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		// Lease request.
		req := wire.LeaseRequest{Key: randString(r), ExperimentID: randInt(r), DBMS: randString(r), Platform: randString(r)}
		fields := map[string]any{"key": req.Key, "experiment_id": req.ExperimentID, "dbms": req.DBMS, "platform": req.Platform}
		if r.IntN(2) == 0 {
			req.Max = 1 + r.IntN(64)
			fields["max"] = req.Max
		}
		got := wire.AppendLeaseRequest(nil, &req)
		if want, _ := json.Marshal(fields); !bytes.Equal(got, want) {
			t.Fatalf("lease request %+v:\n got %s\nwant %s", req, got, want)
		}
		var scanned, decoded wire.LeaseRequest
		if !wire.ScanLeaseRequest(got, &scanned) || decodeStrict(got, &decoded) != nil || scanned != decoded {
			t.Fatalf("lease request %s: scanned %+v, decoded %+v", got, scanned, decoded)
		}

		// Lease answer, single and batch.
		tasks := []*repository.Task{randTask(r)}
		for n := r.IntN(3); n > 0; n-- {
			tasks = append(tasks, randTask(r))
		}
		for _, batch := range []bool{false, true} {
			var v any = tasks[0]
			if batch {
				v = map[string]any{"tasks": tasks}
			}
			want, err := encode(v)
			got, ok := wire.AppendLease(nil, tasks, batch)
			if ok != (err == nil) || ok && !bytes.Equal(got, want) {
				t.Fatalf("lease answer (batch %v): ok %v, encoder error %v\n got %s\nwant %s", batch, ok, err, got, want)
			}
			if !ok {
				continue
			}
			scannedTasks, ok := wire.ScanLease(got, batch)
			var decodedTasks []*repository.Task
			if batch {
				var resp struct{ Tasks []*repository.Task }
				err = json.Unmarshal(got, &resp)
				decodedTasks = resp.Tasks
			} else {
				var task repository.Task
				err = json.Unmarshal(got, &task)
				decodedTasks = []*repository.Task{&task}
			}
			if !ok || err != nil || !reflect.DeepEqual(scannedTasks, decodedTasks) {
				t.Fatalf("lease answer %s: scanned (%v) %+v, decoded (%v) %+v", got, ok, scannedTasks[0], err, decodedTasks[0])
			}
		}

		// Completion body.
		key := randString(r)
		var reports []wire.Report
		var old []report
		for n := 1 + r.IntN(3); n > 0; n-- {
			rp := wire.Report{TaskID: randInt(r), Error: randString(r), Extra: randExtra(r), Trace: randTrace(r)}
			if r.IntN(6) > 0 {
				rp.Seconds = []float64{}
				for n := r.IntN(4); n > 0; n-- {
					rp.Seconds = append(rp.Seconds, randSecond(r))
				}
			}
			if r.IntN(200) == 0 {
				rp.Seconds = append(rp.Seconds, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)])
			}
			o := report{TaskID: rp.TaskID, Seconds: rp.Seconds, Error: rp.Error, Extra: rp.Extra}
			if len(rp.Trace) > 0 {
				if qt, err := trace.ParseTrace(rp.Trace); err == nil {
					o.Trace = qt
				}
			}
			reports, old = append(reports, rp), append(old, o)
		}
		want, werr := json.Marshal(map[string]any{"key": key, "tasks": old})
		body, err := wire.AppendReports(nil, key, reports)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() || err == nil && !bytes.Equal(body, want) {
			t.Fatalf("completion body: error %v, json.Marshal's %v\n got %s\nwant %s", err, werr, body, want)
		}
		if err != nil {
			continue
		}
		var scannedReq, decodedReq wire.CompletionRequest
		if !wire.ScanCompletions(body, &scannedReq) {
			t.Fatalf("the scanner refused an appended body: %s", body)
		}
		if err := decodeStrict(body, &decodedReq); err != nil || !reflect.DeepEqual(scannedReq, decodedReq) {
			t.Fatalf("completion body %s:\nscanned %+v\ndecoded %+v (%v)", body, scannedReq, decodedReq, err)
		}

		// Completion answer.
		results := []wire.CompletionResult{}
		for n := r.IntN(4); n > 0; n-- {
			res := wire.CompletionResult{TaskID: randInt(r), Status: []int{201, 403, 409}[r.IntN(3)]}
			if res.Status != 201 {
				res.Error = randString(r)
			}
			results = append(results, res)
		}
		if r.IntN(50) == 0 {
			results = nil
		}
		want, _ = encode(map[string]any{"results": results})
		got = wire.AppendCompletionResults(nil, results)
		if !bytes.Equal(got, want) {
			t.Fatalf("completion answer:\n got %s\nwant %s", got, want)
		}
		scannedResults, ok := wire.ScanCompletionResults(got)
		var decodedResults struct{ Results []wire.CompletionResult }
		if err := json.Unmarshal(got, &decodedResults); !ok || err != nil || !reflect.DeepEqual(scannedResults, decodedResults.Results) {
			t.Fatalf("completion answer %s: scanned (%v) %+v, decoded %+v", got, ok, scannedResults, decodedResults.Results)
		}
	}
}
