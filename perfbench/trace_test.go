package main

import (
	"testing"
	"time"
)

func TestSelfTimeFromNestedSpans(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60), which overlap;
	// a has a grandchild [15,25). Self time subtracts the union of the
	// children, so the overlap [30,40) is not subtracted twice.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: "x", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Layer: "y", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "a1", Layer: "y", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 30, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	tab := tabulate(spans)
	if tab.Wall != 100 || tab.Unaccounted != 50 || tab.Self["x"] != 20 || tab.Self["y"] != 40 {
		t.Errorf("tabulate = %+v", tab)
	}
	if tab.reconciles() {
		t.Error("half the wall time is unaccounted for; want the run flagged")
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 10, End: 20},
		{ID: 2, Parent: 1, Layer: "x", Start: 5, End: 15}, // starts before its parent
	}
	if got := selfTimes(spans)[1]; got != 5 {
		t.Errorf("parent self %d, want 5", got)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	root := tr.reserve(0, 0, "traced", "")
	op := tr.newOp()
	call := tr.add(root, op, "call", layerBench, t0, t0.Add(3*time.Millisecond))
	tr.add(call, op, "multiply", layerExec, t0, t0.Add(2*time.Millisecond))
	tr.finish(root, t0, t0.Add(4*time.Millisecond))
	tab := tabulate(tr.spans)
	if tab.Wall != int64(4*time.Millisecond) || tab.Self[layerExec] != int64(2*time.Millisecond) ||
		tab.Self[layerBench] != int64(time.Millisecond) || tab.Unaccounted != int64(time.Millisecond) {
		t.Errorf("tabulate = %+v", tab)
	}
	if tr.spans[2].Op != op || tr.spans[1].Op != op || tr.spans[2].Parent != call {
		t.Errorf("spans of one operation must share its ID and chain parents: %+v", tr.spans)
	}
	var none *tracer
	if id := none.add(0, 0, "x", "", t0, t0); id != 0 {
		t.Errorf("a nil tracer recorded span %d", id)
	}
}
