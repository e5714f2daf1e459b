package sysload

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestParseProcLoadavg(t *testing.T) {
	l, ok := ParseProcLoadavg([]byte("0.42 0.36 0.30 1/123 456\n"))
	if !ok {
		t.Fatal("expected parse to succeed")
	}
	if l.Avg1 != 0.42 || l.Avg5 != 0.36 || l.Avg15 != 0.30 {
		t.Errorf("parsed = %+v", l)
	}
	if l.Source != "proc" {
		t.Errorf("source = %q", l.Source)
	}
	if _, ok := ParseProcLoadavg([]byte("garbage")); ok {
		t.Error("garbage should not parse")
	}
	if _, ok := ParseProcLoadavg([]byte("a b c")); ok {
		t.Error("non numeric fields should not parse")
	}
	if _, ok := ParseProcLoadavg([]byte("0.1 0.2")); ok {
		t.Error("two fields should not parse")
	}
	if l, ok := ParseProcLoadavg([]byte("\t 1.5\n\n2.25  3e1")); !ok || l.Avg1 != 1.5 || l.Avg5 != 2.25 || l.Avg15 != 30 {
		t.Errorf("white space runs: %+v, %v", l, ok)
	}
}

func TestSampleNeverFails(t *testing.T) {
	l := Sample()
	if l.Source != "proc" && l.Source != "runtime" {
		t.Errorf("unexpected source %q", l.Source)
	}
	if l.Avg1 < 0 {
		t.Errorf("negative load %f", l.Avg1)
	}
	if !strings.Contains(l.String(), l.Source) {
		t.Errorf("String() = %q should mention the source", l.String())
	}
	if Keys != [4]string{"load_avg_1", "load_avg_5", "load_avg_15", "load_source"} {
		t.Errorf("Keys = %q", Keys)
	}
	if v := l.Values(); v[3] != l.Source {
		t.Errorf("Values() = %q", v)
	}
}

// pointAt points procLoadavgPath at path for the rest of the test.
func pointAt(t *testing.T, path string) {
	old := procLoadavgPath
	procLoadavgPath = path
	t.Cleanup(func() { procLoadavgPath = old })
}

func TestSampleFallsBackWithoutProc(t *testing.T) {
	pointAt(t, "/nonexistent/loadavg")
	l := Sample()
	if l.Source != "runtime" {
		t.Errorf("expected runtime fallback, got %q", l.Source)
	}
}

// TestSampleReadsFixtureFresh: the file a sample keeps open is read again
// on every sample, so a fixture rewritten in place is seen at once, and
// pointing procLoadavgPath at another file reopens it.
func TestSampleReadsFixtureFresh(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(a, "0.42 0.36 0.30 1/123 456\n")
	write(b, "7.00 8.00 9.00 1/1 1\n")
	pointAt(t, a)
	if l := Sample(); l != (Load{0.42, 0.36, 0.30, "proc"}) {
		t.Fatalf("first sample = %+v", l)
	}
	write(a, "1.5 2.5 3.5 2/200 999\n")
	if l := Sample(); l != (Load{1.5, 2.5, 3.5, "proc"}) {
		t.Fatalf("after rewriting the fixture = %+v", l)
	}
	write(a, "12.25 0.01 0.00 1/1 1\n")
	if l := Sample(); l != (Load{12.25, 0.01, 0, "proc"}) {
		t.Fatalf("after a longer rewrite = %+v", l)
	}
	procLoadavgPath = b
	if l := Sample(); l != (Load{7, 8, 9, "proc"}) {
		t.Fatalf("after repointing = %+v", l)
	}
	procLoadavgPath = filepath.Join(dir, "missing")
	if l := Sample(); l.Source != "runtime" {
		t.Fatalf("after pointing at a missing file = %+v", l)
	}
	procLoadavgPath = a
	if l := Sample(); l != (Load{12.25, 0.01, 0, "proc"}) {
		t.Fatalf("after pointing back = %+v", l)
	}
}

// TestConcurrentSamples is for -race: samples from many goroutines share
// the open file.
func TestConcurrentSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loadavg")
	if err := os.WriteFile(path, []byte("0.42 0.36 0.30 1/123 456\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pointAt(t, path)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if l := Sample(); l != (Load{0.42, 0.36, 0.30, "proc"}) {
					t.Errorf("sample = %+v", l)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// raceBuild is set when the race detector is on: its build moves the read
// buffer of a sample to the heap.
var raceBuild bool

// TestSampleAllocs bounds what a sample of the proc path allocates: the
// file stays open and its bytes are parsed where they were read.
func TestSampleAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loadavg")
	if err := os.WriteFile(path, []byte("0.42 0.36 0.30 1/123 456\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pointAt(t, path)
	bound := 0.0
	if raceBuild {
		bound = 1
	}
	if n := testing.AllocsPerRun(100, func() { Sample() }); n > bound {
		t.Errorf("Sample allocates %.1f times, want at most %.0f", n, bound)
	}
}

// TestValuesMatchSprintf: the strings attached to results are what
// fmt.Sprintf("%.2f") writes, at the edges too.
func TestValuesMatchSprintf(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), -1.005, 0.005, 0.015, 0.125, 1e300, -1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := Load{Avg1: v, Avg5: -v, Avg15: v / 3, Source: "proc"}
		got := l.Values()
		want := [4]string{fmt.Sprintf("%.2f", l.Avg1), fmt.Sprintf("%.2f", l.Avg5), fmt.Sprintf("%.2f", l.Avg15), "proc"}
		if got != want {
			t.Errorf("%v: Values = %q, want %q", v, got, want)
		}
	}
}

// BenchmarkSample samples the load of the machine it runs on.
func BenchmarkSample(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sample()
	}
}
