package main

import (
	"math"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "harness", Start: 0, End: 100},
		// Two workers under one parent, overlapping from 30 to 50.
		{ID: 2, Parent: 1, Layer: "driver", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "driver", Start: 30, End: 70},
		// A child that sticks out of its parent is clipped to it.
		{ID: 4, Parent: 1, Layer: "driver", Start: 90, End: 120},
		// A child wholly inside a sibling's interval adds nothing.
		{ID: 5, Parent: 1, Layer: "driver", Start: 35, End: 45},
		// Grandchildren shorten their own parent only.
		{ID: 6, Parent: 2, Layer: "server", Start: 20, End: 30},
		{ID: 7, Parent: 2, Layer: "server", Start: 25, End: 40},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (60 + 10), // children cover [10,70] and [90,100]
		2: 40 - 20,         // children cover [20,40]
		3: 40, 4: 30, 5: 10, 6: 10, 7: 15,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeSequentialChildrenSumToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "harness", Start: 0, End: 90},
		{ID: 2, Parent: 1, Layer: "sqlparser", Start: 0, End: 30},
		{ID: 3, Parent: 1, Layer: "plan", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "vexec", Start: 60, End: 80},
	}
	by := layerSelf(spans)
	var sum int64
	for _, v := range by {
		sum += v
	}
	if sum != 90 {
		t.Errorf("with one client the self times must sum to the root's duration: %d", sum)
	}
	if by["harness"] != 10 {
		t.Errorf("harness self time = %d, want the uncovered 10", by["harness"])
	}
	shares := layerShares(spans)
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if math.Abs(shares["sqlparser"]-1.0/3) > 1e-12 {
		t.Errorf("sqlparser share = %v, want 1/3", shares["sqlparser"])
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	id := r.begin(0, "harness", "x", "")
	r.end(id)
	r.endOps(id, nil)
	if id != 0 {
		t.Errorf("a nil recorder must hand out span 0, got %d", id)
	}
}

func TestRecorderSnapshotDropsOpenSpans(t *testing.T) {
	r := newRecorder()
	a := r.begin(0, "harness", "closed", "")
	r.begin(a, "driver", "left open", "")
	r.end(a)
	got := r.snapshot()
	if len(got) != 1 || got[0].Name != "closed" {
		t.Errorf("snapshot = %+v, want only the closed span", got)
	}
}
