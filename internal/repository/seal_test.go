package repository

import (
	"bytes"
	"encoding/json"
	"testing"

	"sqalpel/internal/jsonenc"
	"sqalpel/internal/trace"
)

// checkSealed holds a stored row to its encoders: the bytes it was sealed
// into must be what encoding/json and appendJSON write for the row as it
// stands, and its extras and span tree must point into those bytes — with
// no room to grow — exactly when they hold no <, > or &.
func checkSealed(tb testing.TB, r *Result) {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		tb.Fatal(err)
	}
	want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	if row, _, _ := r.appendJSON(nil); !bytes.Equal(row, want) {
		tb.Fatalf("result %d: appendJSON wrote\n%s\nencoding/json\n%s", r.ID, row, want)
	}
	if !bytes.Equal(r.JSON(), want) {
		tb.Fatalf("result %d: sealed\n%s\nencoding/json\n%s", r.ID, r.JSON(), want)
	}
	for _, f := range []struct {
		name string
		b    []byte
	}{{"extra", r.Extra}, {"trace", r.Trace}} {
		if len(f.b) > 0 && insideOf(r.JSON(), f.b) != jsonenc.Verbatim(f.b) {
			tb.Fatalf("result %d: %s %q points into the sealed row: %v", r.ID, f.name, f.b, insideOf(r.JSON(), f.b))
		}
	}
}

// insideOf reports whether b is a slice of whole, clipped to its length.
func insideOf(whole, b []byte) bool {
	for i := range whole {
		if &whole[i] == &b[0] {
			return i+len(b) <= len(whole) && cap(b) == len(b)
		}
	}
	return false
}

// TestSealedRowsMatchEncoder stores hostile rows through every path a row
// enters a shard by — AddResult and AddResultTraced, a single and a batch
// completion, WAL replay, recovery from a snapshot and its history frames,
// and moderation hiding a row and showing it again — and checks every row
// of every store with checkSealed, and against the bytes it had in the
// live store: a restart must not change a row's bytes. The extras are
// testdata/extras_cases.txt decoded as the server decodes a completion
// (<>&, U+2028 and U+2029, invalid UTF-8 in keys, unsorted, duplicate and
// spaced objects) and the maps a Go caller hands AddResult, invalid UTF-8
// among them; the traces are traceCases that decode and one built in Go
// with invalid UTF-8.
func TestSealedRowsMatchEncoder(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	cases := readExtrasCases(t)
	key, expID := drainFixture(t, s, 4*len(cases))
	badKeys := map[string]string{"\xff<": "a&b", " ": "\xfe", "k": "plain"}
	hostileTrace := &trace.QueryTrace{SchemaVersion: 1, Engine: "vek<tor>& ", Spans: []trace.Span{{OpID: "scan.\xff", Kind: "scan", Rows: 1}}}
	for i, m := range append(goldenMaps, badKeys) {
		if _, err := s.AddResultTraced(key, expID, 1, "vektor<&>", "laptop ", []float64{0.5}, "", m, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddResultTraced(key, expID, 2, "vektor-2.0", "laptop", []float64{1e-7}, "boom <&>", m, []*trace.QueryTrace{nil, hostileTrace}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	task, err := leaseOne(s, key, expID, "vektor", "laptop")
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	if _, err := s.CompleteTaskTraced(task.ID, key, []float64{0.25}, "", badKeys, hostileTrace); err != nil {
		t.Fatal(err)
	}
	tasks, err := s.RequestTasks(key, expID, "vektor", "laptop", len(cases))
	if err != nil || len(tasks) != len(cases) {
		t.Fatalf("lease: %d tasks, %v", len(tasks), err)
	}
	var batch []Completion
	for i, c := range cases {
		done := Completion{TaskID: tasks[i].ID, Seconds: []float64{0.001 * float64(i)}}
		if json.Unmarshal(c.json, &done.Extra) != nil {
			done.Error = "the extras do not decode: " + c.name
		}
		if json.Unmarshal([]byte(traceCases[i%len(traceCases)]), &done.Trace) != nil {
			done.Trace = EncodeTrace(hostileTrace)
		}
		batch = append(batch, done)
	}
	for _, out := range s.CompleteTasks(key, batch) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	rows := imageOf(s).Results
	for _, hidden := range []bool{true, false} {
		for _, r := range rows[:3] {
			if err := s.HideResult("martin", r.ID, hidden); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.HideResult("martin", rows[3].ID, true); err != nil {
		t.Fatal(err)
	}

	live := map[int][]byte{}
	check := func(s *Store, stage string) {
		t.Helper()
		rows := imageOf(s).Results
		if want := len(cases) + 2*len(goldenMaps) + 3; len(rows) != want {
			t.Fatalf("%s: %d rows, want %d", stage, len(rows), want)
		}
		hidden := 0
		for _, r := range rows {
			checkSealed(t, r)
			if r.Hidden {
				hidden++
			}
			if was, ok := live[r.ID]; !ok {
				live[r.ID] = r.JSON()
			} else if !bytes.Equal(r.JSON(), was) {
				t.Fatalf("%s: result %d is\n%s\nand was stored live as\n%s", stage, r.ID, r.JSON(), was)
			}
		}
		if hidden != 1 {
			t.Fatalf("%s: %d hidden rows, want 1", stage, hidden)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	check(replayed, "WAL replay")
	if err := replayed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := open(dir, 2, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	check(recovered, "snapshot and history")
}

// TestSealedRunsCoverEveryRow seals rows of every size into one arena —
// small ones that fill blocks and cross into the next, and ones longer than
// a block — and walks them with SealedRun: each row must read back as what
// appendJSON wrote, the runs must hold the rows in order, each followed by
// "\n,", and a run must end exactly where the next row is not back to back
// with it: at a block's end or at a row longer than a block.
func TestSealedRunsCoverEveryRow(t *testing.T) {
	var a arena
	var rows []*Result
	var want []byte
	for i, size := range []int{10, 3000, 40000, 30000, arenaBlockSize, 5, arenaBlockSize * 2, 20000, 20000, 20000, 20000, 1} {
		r := &Result{ID: i + 1, Error: string(bytes.Repeat([]byte("x"), size))}
		r.seal(&a)
		row, _, _ := r.appendJSON(nil)
		if !bytes.Equal(r.JSON(), row) {
			t.Fatalf("row %d of %d bytes reads back as %d bytes", r.ID, len(row), len(r.JSON()))
		}
		rows = append(rows, r)
		want = append(append(want, row...), rowSep...)
	}
	var got []byte
	for rest := rows; len(rest) > 0; {
		run, n := SealedRun(rest)
		if n < len(rest) && rest[n].blk == rest[n-1].blk && rest[n].off == rest[n-1].end+len(rowSep) {
			t.Fatalf("the run ending at row %d stops before row %d, which follows it in its block", rest[n-1].ID, rest[n].ID)
		}
		got, rest = append(got, run...), rest[n:]
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the runs hold %d bytes, the rows and their separators %d", len(got), len(want))
	}
}
