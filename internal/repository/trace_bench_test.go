package repository

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"sqalpel/internal/trace"
)

// driverTrace is the span tree a traced driver reports with a result, as
// JSON: 16 spans of a join query, counters varying with i.
func driverTrace(i int) []byte {
	qt := trace.QueryTrace{SchemaVersion: trace.SchemaVersion, Engine: "vektor-2.0"}
	for s, kind := range []string{trace.KindScan, trace.KindFilter, trace.KindHashJoin, trace.KindAgg} {
		for j := 0; j < 4; j++ {
			qt.Spans = append(qt.Spans, trace.Span{
				OpID: fmt.Sprintf("%s.%d", kind, j), Kind: kind, WallNS: int64(i*1000 + s*100 + j),
				Rows: int64(i + j), Batches: int64(j), Calls: int64(s), BlocksSkipped: int64(j % 2),
			})
		}
	}
	data, err := json.Marshal(qt)
	if err != nil {
		panic(err)
	}
	return data
}

// BenchmarkLogTracedBatch logs the record of a reported batch of four
// traced completions, each with a driver's extras, as the shard does under
// its lock: encoding and framing, into a sink that keeps nothing. The file
// is self-contained, so it runs on a parent checkout too.
func BenchmarkLogTracedBatch(b *testing.B) {
	recs := make(completeRecord, 4)
	for i := range recs {
		r := &Result{ID: i + 1, ProjectID: 1, ExperimentID: 1, QueryID: i + 1,
			ContributorKey: "00112233445566778899aabbccddeeff", DBMSKey: "vektor-2.0", PlatformKey: "laptop",
			Seconds: []float64{0.0011}, Created: time.Date(2026, 10, 17, 3, 0, 0, 123456789, time.UTC)}
		if err := json.Unmarshal([]byte(`{"batches":"59","rows_out":"114","rows_scanned":"59986"}`), &r.Extra); err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(driverTrace(i), &r.Trace); err != nil {
			b.Fatal(err)
		}
		recs[i] = walTaskComplete{TaskID: i + 1, Status: TaskDone, Finished: r.Created, Result: r}
	}
	w := &walWriter{sink: &memSink{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.log(opTaskComplete, recs); err != nil {
			b.Fatal(err)
		}
		w.sink = &memSink{}
	}
}
