package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The layers a span can be charged to. They are package names of the
// repository, except "http" (the loopback transport between driver and
// server: net/http client, kernel, net/http server) and "harness" (the
// benchmark's own loop — the window's root span). "sched" also carries the
// metrics discipline and the discriminative glue that Project.MeasureAll
// runs between two target calls, and "server" carries the repository calls
// its handlers make: neither boundary can be wrapped from outside, the
// peeled probe passes split them. "repository" is only what the harness
// itself calls on the store (the checkpoints).
var layers = []string{
	"sqlparser", "plan", "engine", "vexec", "cexec", "core", "sched",
	"derive", "pool", "discriminative", "driver", "http", "server", "repository", "harness",
}

// opSpan is one operator span as the engine's own trace plane reported it
// (ExecOptions.Tracer); it has a duration but no position in time.
type opSpan struct {
	OpID   string `json:"op"`
	Kind   string `json:"kind"`
	WallNS int64  `json:"wall_ns"`
	Rows   int64  `json:"rows"`
}

// span is one harness-side record around a call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the window's root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// OpID is shared by the spans of one operation (a query, a cell, a task).
	OpID  string   `json:"op_id,omitempty"`
	Start int64    `json:"start_ns"`
	End   int64    `json:"end_ns"`
	Ops   []opSpan `json:"ops,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: begin returns 0 and end does nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(parent int, layer, name, opID string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, OpID: opID, Start: now})
	return id
}

func (r *recorder) end(id int) { r.endOps(id, nil) }

// endOps closes the span and attaches the engine's operator spans to it.
func (r *recorder) endOps(id int, ops []opSpan) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Ops = ops
	r.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (two workers under one parent) and may stick out of the parent; the
// covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := map[int][]iv{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.lo, k.hi
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// layerShares turns the per-layer self times into shares of their sum. With
// one client the sum is the root span's duration; with two it exceeds it by
// the time the clients overlap, so shares are of client-time, not wall time.
func layerShares(spans []span) map[string]float64 {
	self := layerSelf(spans)
	var total int64
	for _, v := range self {
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range self {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// traceFile is the document written to <out>/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]string  `json:"env"`
	SelfMS   map[string]float64 `json:"layer_self_ms"`
	Shares   map[string]float64 `json:"layer_share"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes the recorded spans and their per-layer summary.
func writeTrace(dir, workload string, seed int64, env map[string]string, spans []span) (string, error) {
	doc := traceFile{Workload: workload, Seed: seed, Env: env, Spans: spans,
		SelfMS: map[string]float64{}, Shares: layerShares(spans)}
	for l, v := range layerSelf(spans) {
		doc.SelfMS[l] = float64(v) / 1e6
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
