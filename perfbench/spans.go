package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the call. Start and End are host time
// since the tracer was created. Spans of one upload, fetch or simulation
// share a Trace id; Parent is the id of the span that caused this one (0
// for a root). LeafNs is host time spent in this span's aggregated leaf
// calls (see Tracer.Leaf), which are counted but not kept as spans.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	LeafNs time.Duration `json:"leaf_ns,omitempty"`
}

// Dur is the span's host duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// leafStats aggregates a high-frequency call that is too frequent to keep
// as spans (an allocation, a recorded allocation): count, total and a
// bounded sample of durations for the percentiles.
type leafStats struct {
	count   int64
	total   time.Duration
	samples []time.Duration
	rng     uint64
}

// maxLeafSamples bounds the duration sample kept per leaf call name; past
// it, reservoir sampling keeps a uniform sample of all calls.
const maxLeafSamples = 1 << 18

func (l *leafStats) add(d time.Duration) {
	l.count++
	l.total += d
	if len(l.samples) < maxLeafSamples {
		l.samples = append(l.samples, d)
		return
	}
	// xorshift64 with a fixed start: the kept sample does not depend on
	// anything but the call sequence.
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	if j := l.rng % uint64(l.count); j < maxLeafSamples {
		l.samples[j] = d
	}
}

// Tracer keeps spans in memory and writes them out when the run ends.
// Simulation spans nest through an implicit stack (the simulation is
// single-threaded); fleet spans name their parent explicitly because a
// client call and the handler serving it run on different goroutines.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nextID uint64
	spans  []Span
	stack  []Span // open simulation spans, innermost last
	leaves map[string]*leafStats
}

// NewTracer starts a tracer; all span times are relative to now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), leaves: make(map[string]*leafStats)}
}

func (t *Tracer) now() time.Duration { return time.Since(t.t0) }

// Push opens a span nested in the innermost open span of the stack. A
// root span starts a new trace id.
func (t *Tracer) Push(name string) {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := Span{ID: t.nextID, Name: name, Start: start, Trace: t.nextID}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
		s.Trace = t.stack[n-1].Trace
	}
	t.stack = append(t.stack, s)
}

// Pop closes the innermost open span. keep=false drops it from the kept
// spans and charges its duration to the enclosing span as leaf time under
// the given leaf name instead; the caller decides after the call returns
// (an allocation is kept only when it ran a GC cycle).
func (t *Tracer) Pop(keep bool, leafName string) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	s := t.stack[n-1]
	t.stack = t.stack[:n-1]
	s.End = end
	if keep {
		t.spans = append(t.spans, s)
		return
	}
	t.leafLocked(leafName, s.Dur())
}

// Leaf records one aggregated leaf call of duration d inside the innermost
// open span.
func (t *Tracer) Leaf(name string, d time.Duration) {
	t.mu.Lock()
	t.leafLocked(name, d)
	t.mu.Unlock()
}

func (t *Tracer) leafLocked(name string, d time.Duration) {
	l := t.leaves[name]
	if l == nil {
		l = &leafStats{rng: 0x9e3779b97f4a7c15}
		t.leaves[name] = l
	}
	l.add(d)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].LeafNs += d
	}
}

// Begin opens a span with an explicit parent, for spans that do not
// follow the simulation stack (fleet clients and handlers). trace is the
// request's id; 0 starts a new one.
func (t *Tracer) Begin(name string, parent, trace uint64) Span {
	start := t.now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	if trace == 0 {
		trace = id
	}
	return Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start}
}

// End closes a span opened by Begin and keeps it.
func (t *Tracer) End(s Span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the kept spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the kept spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes maps every kept span id to its self time: its duration minus
// its leaf time minus the part of its interval its kept child spans
// cover. Children are clipped to the parent's interval and overlapping
// children are counted once, so a child running on another goroutine (a
// handler serving a client call) can neither be charged twice nor push
// the self time below zero.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		covered := coveredTime(s, children[s.ID])
		d := s.Dur() - covered - s.LeafNs
		if d < 0 {
			d = 0
		}
		self[s.ID] = d
	}
	return self
}

// coveredTime is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredTime(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// Timing summarizes one span or leaf name: call count, total and self
// host time, the median and the tail percentile the sample supports.
type Timing struct {
	Count int64
	Total time.Duration
	Self  time.Duration
	P50   time.Duration
	Tail  time.Duration
}

// Timings summarizes the tracer by span and leaf name.
func (t *Tracer) Timings() map[string]Timing {
	spans := t.Spans()
	self := SelfTimes(spans)
	durs := make(map[string][]time.Duration)
	out := make(map[string]Timing)
	for _, s := range spans {
		tm := out[s.Name]
		tm.Count++
		tm.Total += s.Dur()
		tm.Self += self[s.ID]
		out[s.Name] = tm
		durs[s.Name] = append(durs[s.Name], s.Dur())
	}
	t.mu.Lock()
	for name, l := range t.leaves {
		tm := out[name]
		tm.Count += l.count
		tm.Total += l.total
		tm.Self += l.total
		out[name] = tm
		durs[name] = append(durs[name], l.samples...)
	}
	t.mu.Unlock()
	for name, d := range durs {
		tm := out[name]
		tm.P50 = Percentile(d, 50)
		tm.Tail = Tail(d)
		out[name] = tm
	}
	return out
}

// tailLadder is the percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// TailPercentile is the highest percentile of tailLadder that has at
// least ten samples beyond it in a sample of n, or 0 when none has (n <
// 20: too few samples for any tail claim).
func TailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// Tail is d's percentile at TailPercentile(len(d)), or its maximum when
// the sample is too small to have a tail. d is sorted in place.
func Tail(d []time.Duration) time.Duration {
	p := TailPercentile(len(d))
	if p == 0 {
		p = 100
	}
	return Percentile(d, p)
}

// rank is the 1-based nearest rank of the p-th percentile in a sample of
// n: the smallest rank with at least p% of the sample at or below it.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// Percentile returns the p-th percentile of d by the nearest-rank rule;
// 0 for an empty sample. d is sorted in place.
func Percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[rank(p, len(d))-1]
}

// checkStack reports an unbalanced Push/Pop sequence, a bug in a wrapper.
func (t *Tracer) checkStack() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) != 0 {
		return fmt.Errorf("perfbench: %d spans still open (innermost %q)", len(t.stack), t.stack[len(t.stack)-1].Name)
	}
	return nil
}
