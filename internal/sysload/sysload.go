// Package sysload captures the CPU load averages the experiment driver
// reports alongside each measurement, mirroring the paper's use of the
// Linux 1/5/15-minute load averages as an indication of processor load
// during a run. On systems without /proc/loadavg a portable fallback based
// on the Go runtime is used so the reporting shape stays identical.
// Sampling is safe for concurrent use, so the scheduler's measurement
// workers can sample around overlapping runs.
package sysload

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"

	"sqalpel/internal/ftoa"
)

// Load is a snapshot of the system load.
type Load struct {
	// Avg1, Avg5 and Avg15 are the 1, 5 and 15 minute load averages.
	Avg1  float64
	Avg5  float64
	Avg15 float64
	// Source documents where the numbers came from: "proc" for
	// /proc/loadavg, "runtime" for the portable fallback.
	Source string
}

// String renders the load the way `uptime` does.
func (l Load) String() string {
	return fmt.Sprintf("%.2f %.2f %.2f (%s)", l.Avg1, l.Avg5, l.Avg15, l.Source)
}

// Keys are the names under which a load is attached to experiment results,
// in the order of Values.
var Keys = [4]string{"load_avg_1", "load_avg_5", "load_avg_15", "load_source"}

// Values returns the load as the strings attached to experiment results, in
// the order of Keys: the averages as %.2f formats them, then the source.
func (l Load) Values() [4]string {
	return [4]string{format2(l.Avg1), format2(l.Avg5), format2(l.Avg15), l.Source}
}

// format2 formats v as %.2f does.
func format2(v float64) string {
	var buf [24]byte
	return string(ftoa.AppendFixed(buf[:0], v, 2))
}

// procLoadavgPath is a variable so tests can point it at a fixture.
var procLoadavgPath = "/proc/loadavg"

// proc is the file a sample reads, kept open between samples: a read at
// offset 0 makes procfs generate /proc/loadavg afresh, so an open file
// reads the current load every time. A fixture is read fresh as long as it
// is rewritten in place.
var proc struct {
	sync.Mutex
	f    *os.File
	path string // the procLoadavgPath f was opened on
}

// Sample captures the current load.
func Sample() Load {
	if l, ok := fromProc(); ok {
		return l
	}
	return fromRuntime()
}

// fromProc reads and parses /proc/loadavg when available, reopening the
// file when procLoadavgPath has been pointed elsewhere.
func fromProc() (Load, bool) {
	proc.Lock()
	defer proc.Unlock()
	if proc.f == nil || proc.path != procLoadavgPath {
		if proc.f != nil {
			proc.f.Close()
		}
		f, err := os.Open(procLoadavgPath)
		if err != nil {
			proc.f = nil
			return Load{}, false
		}
		proc.f, proc.path = f, procLoadavgPath
	}
	var buf [128]byte
	n, err := proc.f.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF {
		return Load{}, false
	}
	return ParseProcLoadavg(buf[:n])
}

// ParseProcLoadavg parses the /proc/loadavg format: "0.42 0.36 0.30 1/123 456".
// Fields are separated by ASCII white space.
func ParseProcLoadavg(content []byte) (Load, bool) {
	var avg [3]float64
	i := 0
	for k := range avg {
		for i < len(content) && isSpace(content[i]) {
			i++
		}
		start := i
		for i < len(content) && !isSpace(content[i]) {
			i++
		}
		v, err := strconv.ParseFloat(string(content[start:i]), 64)
		if err != nil {
			return Load{}, false
		}
		avg[k] = v
	}
	return Load{Avg1: avg[0], Avg5: avg[1], Avg15: avg[2], Source: "proc"}, true
}

// isSpace reports whether c is ASCII white space.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// fromRuntime approximates load from the number of running goroutines
// relative to the number of CPUs; it keeps the reporting pipeline working on
// platforms without /proc.
func fromRuntime() Load {
	load := float64(runtime.NumGoroutine()) / float64(runtime.NumCPU())
	return Load{Avg1: load, Avg5: load, Avg15: load, Source: "runtime"}
}
