package analyzer

import (
	"math/rand"
	"slices"
	"testing"

	"polm2/internal/heap"
	"polm2/internal/snapshot"
)

// naiveView is the oracle's live-heap view: the snapshot chain replayed
// into one flat page map, exactly as CRIU's restore side reads it.
type naiveView map[heap.PageKey][]heap.ObjectID

func (v naiveView) apply(snap *snapshot.Snapshot) {
	if !snap.Incremental {
		clear(v)
	} else {
		for key := range v {
			if !slices.Contains(snap.Regions, key.Region) {
				delete(v, key)
			}
		}
		for _, key := range snap.NoNeed {
			delete(v, key)
		}
	}
	for _, pr := range snap.Pages {
		v[pr.Key] = pr.HeaderIDs
	}
}

// naiveReplay is the oracle for replaySnapshots: after every snapshot it
// walks the whole view and counts one survival per recorded id occurrence.
// An id recorded by several sites belongs to the last in ascending order.
func naiveReplay(recorded map[heap.SiteID][]heap.ObjectID, snaps []*snapshot.Snapshot) map[heap.SiteID][]uint64 {
	idSite := make(map[heap.ObjectID]heap.SiteID)
	for _, sid := range sortedSites(recorded) {
		for _, oid := range recorded[sid] {
			idSite[oid] = sid
		}
	}
	ordered := slices.Clone(snaps)
	slices.SortFunc(ordered, func(a, b *snapshot.Snapshot) int { return a.Seq - b.Seq })
	idSurvived := make(map[heap.ObjectID]int)
	view := naiveView{}
	for _, snap := range ordered {
		view.apply(snap)
		for _, ids := range view {
			for _, oid := range ids {
				if _, ok := idSite[oid]; ok {
					idSurvived[oid]++
				}
			}
		}
	}
	maxBucket := len(ordered)
	for _, k := range idSurvived {
		maxBucket = max(maxBucket, k)
	}
	out := make(map[heap.SiteID][]uint64, len(recorded))
	for sid := range recorded {
		out[sid] = make([]uint64, maxBucket+1)
	}
	for oid, sid := range idSite {
		out[sid][idSurvived[oid]]++
	}
	return out
}

// randomChain builds a shuffled snapshot chain over a few regions that
// exercises every way a page enters and leaves the view: full snapshots in
// mid-chain, unmapped regions, no-need pages, pages captured again, one id
// on two pages, and ids no site recorded (above maxRecorded).
func randomChain(rng *rand.Rand, maxRecorded int) []*snapshot.Snapshot {
	const regions, pagesPerRegion = 5, 6
	n := 3 + rng.Intn(30)
	snaps := make([]*snapshot.Snapshot, 0, n)
	seq := 0
	for i := 0; i < n; i++ {
		seq += 1 + rng.Intn(3)
		snap := &snapshot.Snapshot{Seq: seq, Incremental: i == 0 || rng.Intn(6) != 0}
		for r := 0; r < regions; r++ {
			if rng.Intn(5) != 0 {
				snap.Regions = append(snap.Regions, heap.RegionID(r))
			}
		}
		key := func() heap.PageKey {
			return heap.PageKey{Region: heap.RegionID(rng.Intn(regions)), Index: uint32(rng.Intn(pagesPerRegion))}
		}
		for k := rng.Intn(4); k > 0; k-- {
			snap.NoNeed = append(snap.NoNeed, key())
		}
		for k := rng.Intn(8); k > 0; k-- {
			pr := snapshot.PageRecord{Key: key()}
			for m := rng.Intn(5); m > 0; m-- {
				pr.HeaderIDs = append(pr.HeaderIDs, heap.ObjectID(1+rng.Intn(maxRecorded+maxRecorded/4)))
			}
			snap.Pages = append(snap.Pages, pr)
		}
		if len(snap.Pages) >= 2 && rng.Intn(3) == 0 {
			// One id on two pages of the same snapshot.
			id := heap.ObjectID(1 + rng.Intn(maxRecorded))
			snap.Pages[0].HeaderIDs = append(snap.Pages[0].HeaderIDs, id)
			snap.Pages[1].HeaderIDs = append(snap.Pages[1].HeaderIDs, id)
		}
		snaps = append(snaps, snap)
	}
	rng.Shuffle(len(snaps), func(i, j int) { snaps[i], snaps[j] = snaps[j], snaps[i] })
	return snaps
}

// TestCreditReplayMatchesNaiveWalk checks the page-credit replay against the
// walk-the-view oracle on random chains, bucket for bucket, and the credit
// store's view against the oracle's after every snapshot.
func TestCreditReplayMatchesNaiveWalk(t *testing.T) {
	const maxRecorded = 60
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recorded := make(map[heap.SiteID][]heap.ObjectID)
		for id := 1; id <= maxRecorded; id++ {
			sid := heap.SiteID(1 + rng.Intn(4))
			recorded[sid] = append(recorded[sid], heap.ObjectID(id))
		}
		// One id recorded by two sites.
		dup := heap.ObjectID(1 + rng.Intn(maxRecorded))
		recorded[5] = append(recorded[5], dup)
		snaps := randomChain(rng, maxRecorded)

		evidence := make(map[heap.SiteID]*siteEvidence, len(recorded))
		for sid, ids := range recorded {
			addSiteEvidence(evidence, sid, nil, slices.Clone(ids))
		}
		if err := replaySnapshots(evidence, snaps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := naiveReplay(recorded, snaps)
		for sid, ev := range evidence {
			if !slices.Equal(ev.survived, want[sid]) {
				t.Fatalf("seed %d site %d: credit replay buckets %v, naive walk %v", seed, sid, ev.survived, want[sid])
			}
			if ev.total != uint64(len(recorded[sid])) {
				t.Fatalf("seed %d site %d: total %d, want %d", seed, sid, ev.total, len(recorded[sid]))
			}
		}

		ordered := slices.Clone(snaps)
		slices.SortFunc(ordered, func(a, b *snapshot.Snapshot) int { return a.Seq - b.Seq })
		store, view := snapshot.NewStore(), naiveView{}
		for _, snap := range ordered {
			if err := store.Apply(snap); err != nil {
				t.Fatal(err)
			}
			view.apply(snap)
			var ids []heap.ObjectID
			for _, pids := range view {
				ids = append(ids, pids...)
			}
			slices.Sort(ids)
			if got := store.LiveIDs(); !slices.Equal(got, ids) || store.Len() != len(ids) {
				t.Fatalf("seed %d seq %d: store view %v (Len %d), naive view %v", seed, snap.Seq, got, store.Len(), ids)
			}
		}
	}
}

// TestCreditStoreSpans pins the span a page is credited with for each way
// it can leave the view.
func TestCreditStoreSpans(t *testing.T) {
	type credit struct {
		id    heap.ObjectID
		snaps int
	}
	var got []credit
	s := snapshot.NewCreditStore(func(ids []heap.ObjectID, snaps int) {
		for _, id := range ids {
			got = append(got, credit{id, snaps})
		}
	})
	pk := func(r heap.RegionID, i uint32) heap.PageKey { return heap.PageKey{Region: r, Index: i} }
	page := func(key heap.PageKey, ids ...heap.ObjectID) snapshot.PageRecord {
		return snapshot.PageRecord{Key: key, HeaderIDs: ids}
	}
	chain := []*snapshot.Snapshot{
		{Seq: 1, Incremental: true, Regions: []heap.RegionID{1, 2, 3},
			Pages: []snapshot.PageRecord{page(pk(1, 0), 10), page(pk(2, 0), 20), page(pk(3, 0), 30)}},
		// Region 2 is unmapped; page (1,0) is captured again.
		{Seq: 2, Incremental: true, Regions: []heap.RegionID{1, 3},
			Pages: []snapshot.PageRecord{page(pk(1, 0), 11)}},
		// Page (3,0) turns no-need.
		{Seq: 3, Incremental: true, Regions: []heap.RegionID{1, 3},
			NoNeed: []heap.PageKey{pk(3, 0)}},
		{Seq: 4, Incremental: true, Regions: []heap.RegionID{1, 3},
			Pages: []snapshot.PageRecord{page(pk(3, 1), 40)}},
		// A full snapshot replaces everything.
		{Seq: 5, Pages: []snapshot.PageRecord{page(pk(1, 0), 50)}},
	}
	for _, snap := range chain {
		if err := s.Apply(snap); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	want := []credit{{10, 1}, {11, 3}, {20, 1}, {30, 2}, {40, 1}, {50, 1}}
	slices.SortFunc(got, func(a, b credit) int { return int(a.id) - int(b.id) })
	if !slices.Equal(got, want) {
		t.Fatalf("credits %v, want %v", got, want)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after Drain = %d, want 0", s.Len())
	}
}
