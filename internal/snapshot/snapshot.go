// Package snapshot defines heap snapshots and the store that reconstructs a
// full live-heap view from a sequence of incremental snapshots.
//
// A CRIU-style incremental snapshot (§4.2 of the POLM2 paper) contains only
// the pages dirtied since the previous snapshot, omits pages carrying the
// no-need bit, and implicitly drops pages of unmapped (freed) regions. The
// Analyzer therefore cannot look at one snapshot in isolation: the Store
// replays the sequence, carrying clean pages forward and discarding no-need
// and unmapped pages, exactly as CRIU's restore side assembles a process
// image from an incremental dump chain.
package snapshot

import (
	"fmt"
	"slices"
	"time"

	"polm2/internal/heap"
)

// PageRecord is the captured content of one page: the identity hashes of
// the objects whose headers lie on the page. Reading headers out of dumped
// pages is how the paper's Analyzer matches Recorder ids against snapshots
// (§4.3).
type PageRecord struct {
	Key       heap.PageKey
	HeaderIDs []heap.ObjectID
}

// Snapshot is one heap snapshot, full (jmap-style) or incremental
// (CRIU-style). A snapshot is immutable once emitted: stores alias its
// slices instead of copying them.
type Snapshot struct {
	// Seq is the snapshot's position in the dump sequence, starting at 1.
	Seq int
	// Cycle is the GC cycle after which the snapshot was taken.
	Cycle uint64
	// TakenAt is the simulated instant of the dump.
	TakenAt time.Duration
	// Incremental marks CRIU-style snapshots; a full snapshot replaces
	// the entire store view.
	Incremental bool
	// Regions lists the regions mapped at dump time. Pages of any other
	// region are gone.
	Regions []heap.RegionID
	// Pages holds the captured page contents.
	Pages []PageRecord
	// NoNeed lists pages excluded because the collector marked them as
	// holding no reachable data.
	NoNeed []heap.PageKey
	// SizeBytes is the modeled on-disk size of the snapshot.
	SizeBytes uint64
	// Duration is the modeled time the dump took.
	Duration time.Duration
}

// Store reconstructs the live-heap view from a snapshot sequence. The view
// is kept per region, so an unmapped region leaves it in one step, and it
// aliases the applied snapshots' HeaderIDs instead of copying them.
type Store struct {
	regions map[heap.RegionID]map[uint32]viewPage
	// ids counts the header ids in the view.
	ids, applied, lastSeq int
	credit                func(ids []heap.ObjectID, snapshots int)
}

// viewPage is a captured page and the number of snapshots applied before
// the one that captured it.
type viewPage struct {
	ids   []heap.ObjectID
	since int
}

// NewStore returns an empty store.
func NewStore() *Store { return NewCreditStore(nil) }

// NewCreditStore returns an empty store that calls credit for every page
// leaving the view (by a full snapshot, an unmapped region, a no-need mark,
// a newer capture of the page, or Drain) with the page's header ids and the
// number of applied snapshots whose view held the page. The ids belong to
// the snapshot and must not be modified.
func NewCreditStore(credit func(ids []heap.ObjectID, snapshots int)) *Store {
	return &Store{regions: make(map[heap.RegionID]map[uint32]viewPage), credit: credit}
}

// Apply folds one snapshot into the view. Snapshots must be applied in
// sequence order.
func (s *Store) Apply(snap *Snapshot) error {
	if snap.Seq <= s.lastSeq {
		return fmt.Errorf("snapshot: applying snapshot %d after %d", snap.Seq, s.lastSeq)
	}
	s.lastSeq = snap.Seq

	if !snap.Incremental {
		// A full dump replaces the whole view.
		s.Drain()
	} else {
		// Unmapped regions disappear.
		mapped := make(map[heap.RegionID]struct{}, len(snap.Regions))
		for _, r := range snap.Regions {
			mapped[r] = struct{}{}
		}
		for id, pages := range s.regions {
			if _, ok := mapped[id]; !ok {
				s.dropRegion(id, pages)
			}
		}
		// No-need pages hold no reachable data anymore.
		for _, key := range snap.NoNeed {
			s.leave(s.regions[key.Region], key.Index)
		}
	}
	for _, pr := range snap.Pages {
		pages := s.regions[pr.Key.Region]
		if pages == nil {
			pages = make(map[uint32]viewPage)
			s.regions[pr.Key.Region] = pages
		}
		s.leave(pages, pr.Key.Index)
		pages[pr.Key.Index] = viewPage{ids: pr.HeaderIDs, since: s.applied}
		s.ids += len(pr.HeaderIDs)
	}
	s.applied++
	return nil
}

// leave takes a page, if present, out of the view and credits it.
func (s *Store) leave(pages map[uint32]viewPage, index uint32) {
	pg, ok := pages[index]
	if !ok {
		return
	}
	delete(pages, index)
	s.ids -= len(pg.ids)
	if s.credit != nil && len(pg.ids) > 0 {
		s.credit(pg.ids, s.applied-pg.since)
	}
}

// dropRegion takes a whole region out of the view.
func (s *Store) dropRegion(id heap.RegionID, pages map[uint32]viewPage) {
	for index := range pages {
		s.leave(pages, index)
	}
	delete(s.regions, id)
}

// Drain empties the view, crediting every page in it with the snapshots it
// was visible in up to the last applied one.
func (s *Store) Drain() {
	for id, pages := range s.regions {
		s.dropRegion(id, pages)
	}
}

// Applied returns how many snapshots have been folded in.
func (s *Store) Applied() int { return s.applied }

// Len returns the number of identity hashes in the current view, counting
// an id once per page that carries it.
func (s *Store) Len() int { return s.ids }

// LiveIDs returns the identity hashes visible in the current view, sorted.
func (s *Store) LiveIDs() []heap.ObjectID {
	out := make([]heap.ObjectID, 0, s.ids)
	for _, pages := range s.regions {
		for _, pg := range pages {
			out = append(out, pg.ids...)
		}
	}
	slices.Sort(out)
	return out
}

// Contains reports whether the id is visible in the current view. It sorts
// the whole view; tests and tools use it for spot checks.
func (s *Store) Contains(id heap.ObjectID) bool {
	_, found := slices.BinarySearch(s.LiveIDs(), id)
	return found
}

// LiveSet returns the current view as a set.
func (s *Store) LiveSet() map[heap.ObjectID]struct{} {
	out := make(map[heap.ObjectID]struct{}, s.ids)
	for _, id := range s.LiveIDs() {
		out[id] = struct{}{}
	}
	return out
}
