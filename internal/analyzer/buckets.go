package analyzer

import (
	"fmt"
	"slices"

	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/recorder"
	"polm2/internal/snapshot"
)

// Estimator selects how a site's target generation is derived from its
// survival-count distribution.
type Estimator int

// Estimators. The paper uses the mode: "the number of collections that most
// objects allocated in a particular stack trace survive" (§3.3). The 90th
// percentile variant is an ablation.
const (
	EstimatorMode Estimator = iota + 1
	EstimatorP90
)

// siteEvidence is the per-site survival evidence assembled by replaying the
// snapshot sequence against the allocation records.
type siteEvidence struct {
	id    heap.SiteID
	trace jvm.StackTrace
	// recorded holds the site's object ids until the replay indexes them.
	recorded []heap.ObjectID
	// survived[k] counts objects seen live in exactly k snapshots.
	survived []uint64
	total    uint64
	// tainted counts allocations whose evidence came from damaged
	// recordings (see SiteStat.Tainted).
	tainted uint64
}

// gatherEvidence implements the first half of §3.3's algorithm:
//
//   - load allocation stack traces, associating a bucket sequence to each;
//   - load allocated object ids into bucket zero of their stack trace;
//   - replay snapshots in creation order, moving every object found live
//     into the next bucket.
//
// The result is, per site, the distribution of "number of snapshots
// survived".
func gatherEvidence(recordsDir string, snaps []*snapshot.Snapshot) (map[heap.SiteID]*siteEvidence, error) {
	table, err := recorder.LoadSiteTable(recordsDir)
	if err != nil {
		return nil, err
	}

	evidence := make(map[heap.SiteID]*siteEvidence, len(table))
	for _, sid := range sortedSites(table) {
		ids, err := recorder.ReadIDs(recordsDir, sid)
		if err != nil {
			return nil, err
		}
		addSiteEvidence(evidence, sid, table[sid], ids)
	}
	if err := replaySnapshots(evidence, snaps); err != nil {
		return nil, err
	}
	return evidence, nil
}

// sortedSites returns the map's site ids in ascending order.
func sortedSites[V any](m map[heap.SiteID]V) []heap.SiteID {
	ids := make([]heap.SiteID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// addSiteEvidence registers one site's recorded ids.
func addSiteEvidence(evidence map[heap.SiteID]*siteEvidence, sid heap.SiteID, trace jvm.StackTrace, ids []heap.ObjectID) {
	evidence[sid] = &siteEvidence{id: sid, trace: trace, total: uint64(len(ids)), recorded: ids}
}

// replaySnapshots replays the snapshot sequence, counting how many
// snapshots each recorded object appears in, and fills every site's
// survival buckets. Survivals are credited per page as it leaves the view
// (DESIGN.md §4): the same count as walking the view after every snapshot,
// for O(captured ids) work. An id several sites recorded belongs to the
// last of them in ascending site order.
func replaySnapshots(evidence map[heap.SiteID]*siteEvidence, snaps []*snapshot.Snapshot) error {
	sids := sortedSites(evidence)
	n := 0
	for _, sid := range sids {
		n += len(evidence[sid].recorded)
	}
	slot := make(map[heap.ObjectID]int32, n)
	site := make([]heap.SiteID, 0, n)
	for _, sid := range sids {
		ev := evidence[sid]
		for _, oid := range ev.recorded {
			if i, ok := slot[oid]; ok {
				site[i] = sid
				continue
			}
			slot[oid] = int32(len(site))
			site = append(site, sid)
		}
		ev.recorded = nil
	}

	survived := make([]int32, len(site))
	store := snapshot.NewCreditStore(func(ids []heap.ObjectID, snapshots int) {
		for _, oid := range ids {
			if i, ok := slot[oid]; ok {
				survived[i] += int32(snapshots)
			}
		}
	})
	ordered := slices.Clone(snaps)
	slices.SortFunc(ordered, func(a, b *snapshot.Snapshot) int { return a.Seq - b.Seq })
	for _, snap := range ordered {
		if err := store.Apply(snap); err != nil {
			return fmt.Errorf("analyzer: replaying snapshots: %w", err)
		}
	}
	store.Drain()

	// An id on two pages of one view counts twice for that snapshot.
	maxBucket := len(ordered)
	for _, k := range survived {
		maxBucket = max(maxBucket, int(k))
	}
	for _, ev := range evidence {
		ev.survived = make([]uint64, maxBucket+1)
	}
	for i, sid := range site {
		evidence[sid].survived[survived[i]]++
	}
	return nil
}

// targetGen estimates the site's target generation from its survival
// distribution: zero keeps the site young (uninstrumented).
func (ev *siteEvidence) targetGen(est Estimator, minSamples uint64, minOldFraction float64, maxGen int) int {
	if ev.total < minSamples {
		return 0
	}
	var old uint64
	for k := 1; k < len(ev.survived); k++ {
		old += ev.survived[k]
	}
	if float64(old) < minOldFraction*float64(ev.total) {
		// Most objects at this site die before the first snapshot:
		// they follow the weak generational hypothesis and belong in
		// the young generation.
		return 0
	}
	var gen int
	switch est {
	case EstimatorP90:
		// Smallest k such that at least 90% of objects survived
		// fewer than or exactly k snapshots.
		threshold := (ev.total*9 + 9) / 10
		var cum uint64
		for k, n := range ev.survived {
			cum += n
			if cum >= threshold {
				gen = k
				break
			}
		}
	default: // EstimatorMode
		// Ties prefer the higher bucket: a site whose objects survive
		// "at least k" snapshots uniformly (objects that outlive the
		// whole profiling window produce flat tails) belongs with the
		// longest-lived generation it reaches.
		var best uint64
		for k := 1; k < len(ev.survived); k++ {
			if ev.survived[k] >= best && ev.survived[k] > 0 {
				best = ev.survived[k]
				gen = k
			}
		}
	}
	if gen > maxGen {
		gen = maxGen
	}
	return gen
}
