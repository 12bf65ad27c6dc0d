package main

import (
	"testing"
	"time"
)

func TestSelfTimesSyntheticTree(t *testing.T) {
	// root  [0,100] with 10 of leaf time
	//   a   [10,40]
	//     a1 [15,20]
	//   b   [30,60]       overlaps a: the union [10,60] is covered once
	//   c   [90,120]      runs past root's end: clipped to [90,100]
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100, LeafNs: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 6, Name: "other-root", Start: 0, End: 7},
	}
	want := map[uint64]time.Duration{
		1: 100 - 50 - 10 - 10, // minus [10,60], [90,100] and the leaf time
		2: 30 - 5,
		3: 5,
		4: 30,
		5: 30,
		6: 7,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 10, LeafNs: 8},
		{ID: 2, Parent: 1, Start: 2, End: 9},
	}
	if got := SelfTimes(spans)[1]; got != 0 {
		t.Errorf("self time = %d, want 0", got)
	}
}

func TestTracerStackChargesLeavesToParent(t *testing.T) {
	tr := NewTracer()
	tr.Push("outer")
	tr.Push("inner")
	tr.Pop(false, "alloc") // not kept: charged to outer as leaf time
	tr.Leaf("alloc", 3*time.Millisecond)
	tr.Push("cycle")
	tr.Pop(true, "")
	tr.Pop(true, "")
	if err := tr.checkStack(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("kept %d spans, want 2 (cycle, outer)", len(spans))
	}
	cycle, outer := spans[0], spans[1]
	if cycle.Parent != outer.ID || cycle.Trace != outer.Trace || outer.Parent != 0 {
		t.Errorf("cycle parent/trace = %d/%d, outer id/trace = %d/%d", cycle.Parent, cycle.Trace, outer.ID, outer.Trace)
	}
	if outer.LeafNs < 3*time.Millisecond {
		t.Errorf("outer leaf time %v does not include the 3ms leaf", outer.LeafNs)
	}
	tm := tr.Timings()
	if tm["alloc"].Count != 2 {
		t.Errorf("alloc leaf count = %d, want 2", tm["alloc"].Count)
	}
	if want := outer.Dur() - outer.LeafNs - cycle.Dur(); tm["outer"].Self != max(want, 0) {
		t.Errorf("outer self = %v, want %v", tm["outer"].Self, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := TailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(1001-i))
	}
	if got := Percentile(d, 50); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := Tail(d); got != 990 {
		t.Errorf("tail (p99 of 1000) = %d, want 990", got)
	}
	if got := Tail([]time.Duration{5, 9, 7}); got != 9 {
		t.Errorf("tail of 3 samples = %d, want their maximum 9", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestLeafReservoirIsBounded(t *testing.T) {
	var l leafStats
	l.rng = 1
	for i := 0; i < maxLeafSamples+1000; i++ {
		l.add(time.Duration(i))
	}
	if len(l.samples) != maxLeafSamples || l.count != maxLeafSamples+1000 {
		t.Errorf("kept %d samples of %d calls", len(l.samples), l.count)
	}
}
