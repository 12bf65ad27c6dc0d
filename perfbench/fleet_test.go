package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"polm2/internal/analyzer"
)

func TestOpenLoopStats(t *testing.T) {
	ms := time.Millisecond
	ts := []timing{
		// Sender idle at the due time, woke 1ms late: lateness 1, latency 5.
		{due: 0, start: 1 * ms, end: 5 * ms, upload: true},
		// Due while the sender was busy until 5: sent at once, so no
		// lateness, but the wait counts against its latency.
		{due: 2 * ms, start: 5 * ms, end: 7 * ms},
		// Due after the sender freed up; sent 2ms late.
		{due: 10 * ms, start: 12 * ms, end: 13 * ms, upload: true},
		// A failed request has no latency but its lateness still counts.
		{due: 20 * ms, start: 20 * ms, end: 21 * ms, err: errors.New("refused")},
		// Due while the failed request ran; the sender was free at 21.
		{due: 20500 * time.Microsecond, start: 22 * ms, end: 30 * ms},
	}
	up, fe, late := openLoopStats(ts)
	if want := []time.Duration{5 * ms, 3 * ms}; !reflect.DeepEqual(up, want) {
		t.Errorf("upload latencies = %v, want %v", up, want)
	}
	if want := []time.Duration{5 * ms, 9500 * time.Microsecond}; !reflect.DeepEqual(fe, want) {
		t.Errorf("fetch latencies = %v, want %v", fe, want)
	}
	if want := []time.Duration{1 * ms, 0, 2 * ms, 0, 1 * ms}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
}

func TestScheduleIsOneUploadAndOnePollPerRound(t *testing.T) {
	insts := []*instance{{id: "a"}, {id: "b"}, {id: "c"}}
	cadence := time.Second
	draw := func(from, length time.Duration) []request {
		return schedule(insts, cadence, from, length, 7)
	}
	a := draw(0, 4*time.Second)
	if !reflect.DeepEqual(a, draw(0, 4*time.Second)) {
		t.Fatal("the same seed drew two different schedules")
	}
	per := map[string][2]int{}
	for i, q := range a {
		if q.due < 0 || q.due >= 4*time.Second || (i > 0 && q.due < a[i-1].due) {
			t.Fatalf("request %d due at %v: out of [0,4s) or out of order", i, q.due)
		}
		n := per[q.inst.id]
		if q.upload {
			n[0]++
		} else {
			n[1]++
		}
		per[q.inst.id] = n
	}
	for _, inst := range insts {
		if n := per[inst.id]; n != [2]int{4, 4} {
			t.Errorf("%s: %d uploads and %d polls in 4 rounds, want 4 and 4", inst.id, n[0], n[1])
		}
	}
	// A later stretch continues the same rounds: together the two halves
	// are the whole schedule, shifted by the split.
	first, second := draw(0, 2500*time.Millisecond), draw(2500*time.Millisecond, 1500*time.Millisecond)
	for i := range second {
		second[i].due += 2500 * time.Millisecond
	}
	if got := append(first, second...); !reflect.DeepEqual(got, a) {
		t.Error("splitting the schedule into two stretches changed it")
	}
	ms := time.Millisecond
	if got, want := syncTimes(cadence, 0, 4*time.Second), []time.Duration{500 * ms, 1500 * ms, 2500 * ms, 3500 * ms}; !reflect.DeepEqual(got, want) {
		t.Errorf("sync passes due at %v, want %v", got, want)
	}
	if got, want := syncTimes(cadence, 2500*ms, 1500*ms), []time.Duration{0, time.Second}; !reflect.DeepEqual(got, want) {
		t.Errorf("sync passes of a later stretch due at %v, want %v", got, want)
	}
}

func TestEvidenceIsValidAndSharesSites(t *testing.T) {
	base := &analyzer.Profile{App: "App", Workload: "W", Sites: []analyzer.SiteStat{
		{Trace: "A.main:1;A.alloc:2", Allocated: 100, Buckets: []uint64{60, 30, 10}},
		{Trace: "A.main:1;B.alloc:3", Allocated: 7, Buckets: []uint64{7}},
		{Trace: "A.main:1;C.alloc:4", Allocated: 1000, Buckets: []uint64{1, 999}},
		{Trace: "A.main:1;D.alloc:5", Allocated: 50, Buckets: []uint64{25, 25}},
	}}
	shared := func(p *analyzer.Profile) []bool {
		var out []bool
		for i, s := range p.Sites {
			out = append(out, s.Trace == base.Sites[i].Trace)
		}
		return out
	}
	e1 := buildEvidence(base, 1, 0.5, 3)
	e2 := buildEvidence(base, 2, 0.5, 4)
	if !reflect.DeepEqual(shared(e1), shared(e2)) {
		t.Errorf("instances disagree on which sites are shared: %v vs %v", shared(e1), shared(e2))
	}
	for _, round := range []int{1, 3} {
		ev := evidenceRound(e1, round)
		if err := checkBuckets(ev); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
		if ev.Sites[0].Allocated != uint64(round)*e1.Sites[0].Allocated {
			t.Errorf("round %d does not scale the counts", round)
		}
	}
	if _, err := analyzer.MergeProfiles(analyzer.Options{}, e1, e2); err != nil {
		t.Errorf("merging the evidence: %v", err)
	}
}

func checkBuckets(p *analyzer.Profile) error {
	for _, s := range p.Sites {
		var sum uint64
		for _, b := range s.Buckets {
			sum += b
		}
		if sum != s.Allocated {
			return errors.New(s.Trace + ": buckets do not sum to the allocation count")
		}
	}
	return nil
}

func TestRescale(t *testing.T) {
	for _, c := range []struct {
		b        []uint64
		from, to uint64
	}{
		{[]uint64{60, 30, 10}, 100, 117},
		{[]uint64{1, 999}, 1000, 3},
		{[]uint64{5}, 5, 1},
		{nil, 0, 4},
	} {
		var sum uint64
		for _, v := range rescale(c.b, c.from, c.to) {
			sum += v
		}
		if sum != c.to {
			t.Errorf("rescale(%v, %d, %d) sums to %d", c.b, c.from, c.to, sum)
		}
	}
}
