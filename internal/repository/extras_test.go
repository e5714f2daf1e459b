package repository

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateExtras = flag.Bool("update-extras-golden", false, "rewrite testdata/extras_*.golden and append the extras records to testdata/records.golden")

// extrasCase is one completion extra as the JSON text a driver sends.
type extrasCase struct {
	name string
	json []byte
}

// readExtrasCases reads testdata/extras_cases.txt: a name and a Go-quoted
// JSON text per line.
func readExtrasCases(tb testing.TB) []extrasCase {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "extras_cases.txt"))
	if err != nil {
		tb.Fatal(err)
	}
	var cases []extrasCase
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, quoted, _ := strings.Cut(line, " ")
		text, err := strconv.Unquote(quoted)
		if err != nil {
			tb.Fatalf("extras case %q: %v", name, err)
		}
		cases = append(cases, extrasCase{name, []byte(text)})
	}
	return cases
}

// goldenMaps are extras a Go caller hands AddResult: raw <>&, raw line
// separators and control characters in a map, and no extras at all.
var goldenMaps = []map[string]string{
	nil,
	{},
	{"q": "a<b && c>d", "ls": "x\u2028y\u2029z", "ctl": "\x01\t\n\x7f", "é": "ü"},
}

// extrasGoldenStore runs the golden's rows through a one-shard store that
// logs to sink: the cases, decoded from their JSON text as the server decodes
// a completion, reported as one batch, then one direct result per golden
// map. The store starts from a snapshot and runs on a fixed clock, so every
// byte it writes is the same on every run.
func extrasGoldenStore(t *testing.T, sink walSink) *shard {
	t.Helper()
	cases := readExtrasCases(t)
	fixed := time.Date(2026, 10, 15, 12, 0, 0, 0, time.UTC)
	const key = "00112233445566778899aabbccddeeff"
	s := NewStoreShards(1)
	s.now = func() time.Time { return fixed }
	pool := make([]QueryRecord, len(cases)+len(goldenMaps))
	for i := range pool {
		pool[i] = QueryRecord{ID: i + 1, SQL: fmt.Sprintf("SELECT %d", i+1)}
	}
	s.mergeSnapshot(snapshot{
		Users: []*User{{Nickname: "martin", Email: "martin@example.org", Created: fixed}},
		Projects: []*Project{{
			ID: 1, Name: "extras", Owner: "martin", Public: true, Created: fixed,
			Contributors: []*Contributor{{Nickname: "martin", Key: key, Invited: fixed}},
			Experiments:  []*Experiment{{ID: 1, Title: "extras", Queries: pool, Created: fixed}},
		}},
	})
	sh := s.shards[0]
	sh.wal = &walWriter{sink: sink}
	tasks, err := s.RequestTasks(key, 1, "vektor-2.0", "laptop", len(cases))
	if err != nil || len(tasks) != len(cases) {
		t.Fatalf("lease: %d tasks, %v", len(tasks), err)
	}
	batch := make([]Completion, len(cases))
	for i, c := range cases {
		batch[i] = Completion{TaskID: tasks[i].ID, Seconds: []float64{0.25}}
		if err := json.Unmarshal(c.json, &batch[i].Extra); err != nil {
			t.Fatalf("extras case %s: %v", c.name, err)
		}
	}
	for i, out := range s.CompleteTasks(key, batch) {
		if out.Err != nil {
			t.Fatalf("extras case %s: %v", cases[i].name, out.Err)
		}
	}
	for i, m := range goldenMaps {
		if _, err := s.AddResultTraced(key, 1, len(cases)+i+1, "vektor-2.0", "cloud", []float64{0.5}, "", m, nil); err != nil {
			t.Fatal(err)
		}
	}
	return sh
}

// TestExtrasGolden pins three of the four encodings of a result's extras —
// the log record, a history frame and a snapshot; the server's results page
// is the fourth (server.TestResultsPageExtrasGolden) — for extras that are
// unsorted, duplicated, spaced, escaped or not, invalid UTF-8, empty or
// null. The goldens were written before extras were stored as bytes: the
// records are lines of testdata/records.golden, which TestRecordsGolden also
// decodes and logs again, the frame and the snapshot are
// testdata/extras_hist.golden and extras_snapshot.golden. Regenerating them
// from the current code proves nothing. A frame and a snapshot must also
// decode and encode to the same bytes, as recovery and the next checkpoint
// do with them.
func TestExtrasGolden(t *testing.T) {
	sink := &memSink{}
	sh := extrasGoldenStore(t, sink)
	var records [][]byte
	for off := 0; off < len(sink.buf); {
		body, problem := frameAt(sink.buf[off:])
		if problem != "" {
			t.Fatal(problem)
		}
		if off > 0 { // the lease holds no extras
			records = append(records, body)
		}
		off += walHeaderSize + len(body)
	}
	var hist bytes.Buffer
	if _, err := writeFrames(&hist, sh.results, sh.settled); err != nil {
		t.Fatal(err)
	}
	var payloads []byte
	for off := 0; off < hist.Len(); {
		body, problem := frameAt(hist.Bytes()[off:])
		if problem != "" {
			t.Fatal(problem)
		}
		payloads = append(append(payloads, body...), '\n')
		off += walHeaderSize + len(body)
	}
	snap := encodeSnapshot(t, snapshot{Results: sh.results, SavedAt: sh.store.now()})

	recordsPath := filepath.Join("testdata", "records.golden")
	golden, err := os.ReadFile(recordsPath)
	if err != nil {
		t.Fatal(err)
	}
	if *updateExtras {
		for _, rec := range records {
			if !bytes.Contains(golden, append(rec, '\n')) {
				golden = append(append(golden, rec...), '\n')
			}
		}
		writeGolden(t, recordsPath, golden)
		writeGolden(t, filepath.Join("testdata", "extras_hist.golden"), payloads)
		writeGolden(t, filepath.Join("testdata", "extras_snapshot.golden"), snap)
	}
	for _, rec := range records {
		if !bytes.Contains(golden, append(rec, '\n')) {
			t.Errorf("logged a record testdata/records.golden does not hold:\n%s", rec)
		}
	}
	checkGolden(t, filepath.Join("testdata", "extras_hist.golden"), payloads)
	checkGolden(t, filepath.Join("testdata", "extras_snapshot.golden"), snap)

	results, tasks, err := readFrames(bytes.NewReader(hist.Bytes()), int64(hist.Len()), "history")
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := writeFrames(&again, results, tasks); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), hist.Bytes()) {
		t.Errorf("a decoded history frame encodes as\n%s\nwant\n%s", again.Bytes(), hist.Bytes())
	}
	decoded, err := decodeSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeSnapshot(t, decoded); !bytes.Equal(got, snap) {
		t.Errorf("a decoded snapshot encodes as\n%s\nwant\n%s", got, snap)
	}
}

func encodeSnapshot(t *testing.T, snap snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.encode(bufio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n%s\nwant\n%s", path, got, want)
	}
}

// driverExtras is the extra a driver reports with a result, as JSON: 15
// engine counters and 8 load samples, values varying with i.
func driverExtras(i int) []byte {
	m := map[string]string{}
	for _, k := range []string{"batches", "blocks_skipped", "filter_passes", "guard_casts", "hash_builds",
		"hash_probes", "join_rows", "plan_cache_hit", "rows_out", "rows_scanned", "sorts", "subqueries",
		"tuples_materialized", "typed_import_hit", "vectors"} {
		m[k] = strconv.Itoa(i*len(k) + 7)
	}
	for _, side := range []string{"before_", "after_"} {
		for _, k := range []string{"load_avg_1", "load_avg_5", "load_avg_15", "mem_free_mb"} {
			m[side+k] = strconv.FormatFloat(float64(i%97)/100+0.01, 'f', 2, 64)
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return data
}

// TestStoredResultRetainsFewObjects pins what a stored result costs the
// collector, which marks every live object on every cycle, and the heap:
// after n completions whose 23-entry extras and 16-span trace are decoded
// from JSON as the server decodes them, the heap holds at most 2.5 objects
// and 2,700 bytes per result — the row, its seconds, and its share of the
// arena block it was sealed into, which holds its extras and trace, and of
// the shard's and its lane's slices. It measures 2.1 and 2,628; the margin
// is for the slack of those slices, which grow by doubling. Kept as a map,
// the extras and the decoder's strings the map pointed to made it 34
// objects; with a trace kept as structs — the trace, its spans and their
// strings — it was 29 per traced result; with the extras and the trace
// beside the sealed row instead of inside it, the bytes would be about
// 4,000; with each row sealed into an allocation of its own, 3 objects and
// 2,820 bytes.
func TestStoredResultRetainsFewObjects(t *testing.T) {
	const n, perBatch = 3000, 10
	s := NewStoreShards(1)
	key, expID := drainFixture(t, s, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		tasks, err := s.RequestTasks(key, expID, "vektor", "laptop", 100)
		if err != nil || len(tasks) == 0 {
			t.Fatalf("lease: %d tasks, %v", len(tasks), err)
		}
		for _, task := range tasks {
			ids = append(ids, task.ID)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i += perBatch {
		batch := make([]Completion, 0, perBatch)
		for _, id := range ids[i : i+perBatch] {
			c := Completion{TaskID: id, Seconds: []float64{0.0011, 0.0009}}
			if err := json.Unmarshal(driverExtras(id), &c.Extra); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(driverTrace(id), &c.Trace); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, c)
		}
		for _, out := range s.CompleteTasks(key, batch) {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s) // the rows are what is measured
	runtime.KeepAlive(ids)
	perResult := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / n
	bytesPerResult := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f retained heap objects and %.0f bytes per stored result", perResult, bytesPerResult)
	if perResult > 2.5 || bytesPerResult > 2700 {
		t.Fatalf("%.1f heap objects and %.0f bytes retained per stored result, want at most 2.5 and 2,700", perResult, bytesPerResult)
	}
}

// FuzzExtras holds Extras to the map it replaced, which is the oracle. For
// arbitrary bytes, UnmarshalJSON must fail exactly when decoding them into a
// map[string]string fails; when both succeed the bytes must be EncodeExtras
// of that map, Map must give the map back, and every sink's encoder must
// write the same row for either. Decoded as a row whose "extra" may come
// twice or as null, the bytes must likewise fail for both fields or encode
// alike. Cut at NUL bytes into keys and values in turn, they also make a map
// of arbitrary strings — invalid UTF-8 too, which JSON text cannot carry
// into a map — whose EncodeExtras every encoder must write as it writes the
// map with each invalid byte replaced by U+FFFD, and which recovery must
// decode back into the same bytes. The seeds are testdata/extras_cases.txt, bare and as a row, and
// objects that are almost canonical.
func FuzzExtras(f *testing.F) {
	for _, c := range readExtrasCases(f) {
		f.Add(c.json)
		f.Add(append(append([]byte(`{"extra":`), c.json...), '}'))
	}
	for _, text := range []string{
		`{"a":"1"}}`, `{"a":"1"} `, `{"a":"1","b"}`, `{"a":"1",}`, `{"a":"1"`, `{"a":1}`, `{"a","1"}`, `{"a":"1";"b":"2"}`,
		`{"extra":{"b":"1","a":"1"},"extra":{"a":"2"}}`, `{"extra":{"a":"1"},"extra":null}`,
		"\xff<\x00a&\xfe\xc3b\x00\xfe\x00two keys that become one\x00", // invalid UTF-8 cut into a map
	} {
		f.Add([]byte(text))
	}
	if data, err := json.Marshal(Extras(nil)); string(data) != "null" {
		f.Fatalf("no extras encode as %s, %v; a nil map as null", data, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string]string
		var e Extras
		errMap, errExtras := json.Unmarshal(data, &m), e.UnmarshalJSON(data)
		if (errMap == nil) != (errExtras == nil) {
			t.Fatalf("%q: decoding into a map: %v; into Extras: %v", data, errMap, errExtras)
		}
		if errMap == nil {
			if want := EncodeExtras(m); !bytes.Equal(e, want) {
				t.Fatalf("%q: stored %q, want %q", data, e, want)
			}
			if got := e.Map(); len(got)+len(m) > 0 && !reflect.DeepEqual(got, m) {
				t.Fatalf("%q: Map gives %v, want %v", data, got, m)
			}
			sameEncodings(t, mapRow{m}, row{e})
		}
		var mr mapRow
		var r row
		errMap, errExtras = json.Unmarshal(data, &mr), json.Unmarshal(data, &r)
		if (errMap == nil) != (errExtras == nil) {
			t.Fatalf("%q: decoding a row with a map: %v; with Extras: %v", data, errMap, errExtras)
		}
		if errMap == nil {
			sameEncodings(t, mr, r)
		}
		raw := map[string]string{}
		pieces := bytes.Split(data, []byte{0})
		for i := 0; i+1 < len(pieces); i += 2 {
			raw[string(pieces[i])] = string(pieces[i+1])
		}
		stored := EncodeExtras(raw)
		sameEncodings(t, mapRow{validMap(raw)}, row{stored})
		var recovered Extras
		if err := recovered.UnmarshalJSON(stored); len(stored) > 0 && (err != nil || !bytes.Equal(recovered, stored)) {
			t.Fatalf("%q: stored %q, which decodes as %q, %v", raw, stored, recovered, err)
		}
	})
}

// mapRow and row are a result's extras with the map and as Extras.
type (
	mapRow struct {
		Extra map[string]string `json:"extra,omitempty"`
	}
	row struct {
		Extra Extras `json:"extra,omitempty"`
	}
)

// sameEncodings checks that the row with Extras is written as the row with
// the map: by json.Marshal's escaping (the log; pages, through the default
// encoder) and by an encoder that leaves <>& alone (history frames and
// snapshots).
func sameEncodings(t *testing.T, m mapRow, e row) {
	t.Helper()
	for _, escapeHTML := range []bool{true, false} {
		encode := func(v any) []byte {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(escapeHTML)
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if got, want := encode(e), encode(m); !bytes.Equal(got, want) {
			t.Fatalf("escapeHTML %v: the row encodes as %q, with the map as %q", escapeHTML, got, want)
		}
	}
}
