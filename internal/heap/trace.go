package heap

import "slices"

// RegionLiveness summarizes what a trace found live inside one region.
type RegionLiveness struct {
	Objects int
	Bytes   uint64
}

// LiveSet is the result of tracing the heap from its roots. Membership is
// implemented with per-object epoch marks rather than a hash set, so
// building a LiveSet allocates almost nothing; a LiveSet is only valid
// until the next Trace call on the same heap (the traversal buffer it views
// is the heap's reusable trace queue).
type LiveSet struct {
	h     *Heap
	epoch uint64
	objs  []*Object

	// Objects, Bytes and Edges describe the traversal: reachable object
	// count, their total size, and the number of reference edges scanned
	// (counting multiplicity). The collectors' cost models charge for
	// these quantities.
	Objects int
	Bytes   uint64
	Edges   uint64
}

// Marked reports whether obj was reachable.
func (ls *LiveSet) Marked(obj *Object) bool { return obj.mark == ls.epoch }

// Region returns the liveness summary for one region. The summary is stored
// on the region itself, stamped with the trace epoch, so tracing allocates
// no per-region map.
func (ls *LiveSet) Region(id RegionID) RegionLiveness {
	r := ls.h.regions[id]
	if r == nil || r.traceEpoch != ls.epoch {
		return RegionLiveness{}
	}
	return RegionLiveness{Objects: r.liveObjects, Bytes: r.liveBytes}
}

// Trace performs a full breadth-first traversal from the root set and
// returns the live set. The simulation traces the whole heap on every
// collection (cheap at simulation scale); the collectors charge pause cost
// only for the work their collection set implies, so policy realism is
// preserved without remembered-set-limited tracing.
//
// Tracing invalidates any LiveSet from a previous Trace of this heap: the
// BFS queue backing is owned by the heap and reused across traces.
func (h *Heap) Trace() *LiveSet {
	h.epoch++
	ls := &LiveSet{h: h, epoch: h.epoch}
	queue := h.traceQueue[:0]
	for _, obj := range h.roots {
		obj.mark = h.epoch
		queue = append(queue, obj)
	}
	for head := 0; head < len(queue); head++ {
		obj := queue[head]
		ls.Objects++
		ls.Bytes += uint64(obj.Size)
		r := obj.region
		if r.traceEpoch != h.epoch {
			r.traceEpoch = h.epoch
			r.liveObjects = 0
			r.liveBytes = 0
		}
		r.liveObjects++
		r.liveBytes += uint64(obj.Size)
		// Iterate the edge store inline (rather than through each) so the
		// hottest loop of the simulation pays no closure call per edge.
		refs := &obj.refs
		for i := int32(0); i < refs.inlineLen; i++ {
			e := &refs.inline[i]
			ls.Edges += uint64(e.n)
			if e.obj.mark != h.epoch {
				e.obj.mark = h.epoch
				queue = append(queue, e.obj)
			}
		}
		for i := range refs.spill {
			e := &refs.spill[i]
			ls.Edges += uint64(e.n)
			if e.obj.mark != h.epoch {
				e.obj.mark = h.epoch
				queue = append(queue, e.obj)
			}
		}
	}
	h.traceQueue = queue
	ls.objs = queue
	return ls
}

// MarkNoNeedPages sets the no-need bit on every page of every active region
// that is not covered by any live object's storage. This is the paper's
// §4.2 madvise pass the Recorder triggers before asking the Dumper for a
// snapshot; the Dumper skips no-need pages entirely.
func (h *Heap) MarkNoNeedPages(live *LiveSet) {
	for _, rid := range h.activeIDs {
		r := h.regions[rid]
		rp := r.pages
		words := (rp.n + 63) / 64
		cv := h.noNeedCov
		if uint32(cap(cv)) < words {
			cv = newBitset(rp.n)
			h.noNeedCov = cv
		}
		cv = cv[:words]
		cv.clearAll()
		for obj := r.head; obj != nil; obj = obj.next {
			if !live.Marked(obj) {
				continue
			}
			first, last := obj.pageSpan(h.cfg.PageSize)
			for i := first; i <= last && i < rp.n; i++ {
				cv.set(i)
			}
		}
		for i := uint32(0); i < rp.n; i++ {
			if !cv.get(i) {
				rp.flags.noNeed.set(i)
			}
		}
	}
}

// Pages calls f for every page of every active region, in ascending
// (region, index) order. Freed regions are skipped: their memory is
// unmapped from the dumper's point of view.
//
// The Headers slice passed to f aliases the page table and is only valid
// for the duration of the callback: callers that keep header ids (the
// dumpers) must copy them out. Objects appear in placement order, which is
// deterministic because the whole simulation is.
func (h *Heap) Pages(f func(PageState)) {
	for _, rid := range h.activeIDs {
		rp := h.regions[rid].pages
		for i := uint32(0); i < rp.n; i++ {
			f(PageState{
				Key:      PageKey{Region: rid, Index: i},
				Dirty:    rp.flags.dirty.get(i),
				NoNeed:   rp.flags.noNeed.get(i),
				Headers:  rp.headers[i],
				Occupied: rp.coverage[i] > 0,
			})
		}
	}
}

// ClearDirtyPages clears the dirty bit of every page of every active
// region. The Dumper calls this after completing a snapshot, exactly as
// CRIU resets the kernel soft-dirty bit (§4.2).
func (h *Heap) ClearDirtyPages() {
	for _, rid := range h.activeIDs {
		h.regions[rid].pages.flags.dirty.clearAll()
	}
}

// ActiveRegionIDs returns the ids of all non-freed regions in ascending
// order. The heap maintains the order incrementally; the returned slice is
// a copy that callers (the dumpers' snapshots) may keep indefinitely.
func (h *Heap) ActiveRegionIDs() []RegionID {
	return slices.Clone(h.activeIDs)
}

// CheckRemsetInvariant recomputes every active region's remembered-set size
// from scratch and compares it with the incrementally maintained counter.
// It returns the ids of regions whose counters disagree; an empty result
// means the invariant holds. Tests use this to validate the incremental
// maintenance in Link/Unlink/Evacuate/Remove.
func (h *Heap) CheckRemsetInvariant() []RegionID {
	want := make(map[RegionID]int)
	for _, r := range h.regions {
		for obj := r.head; obj != nil; obj = obj.next {
			obj.refs.each(func(child *Object, n int32) {
				if child.Region != obj.Region {
					want[child.Region] += int(n)
				}
			})
		}
	}
	var bad []RegionID
	for id, r := range h.regions {
		if r.remsetEntries != want[id] {
			bad = append(bad, id)
		}
	}
	slices.Sort(bad)
	return bad
}

// CheckPageInvariant recomputes every active region's page coverage and
// header lists from its residents and compares them with the incrementally
// maintained page tables, returning the regions that disagree. Tests use
// it to validate the bookkeeping in Allocate/Evacuate/Remove.
func (h *Heap) CheckPageInvariant() []RegionID {
	var bad []RegionID
	for id, r := range h.regions {
		rp := r.pages
		coverage := make([]uint16, rp.n)
		headers := make([][]*Object, rp.n)
		for obj := r.head; obj != nil; obj = obj.next {
			first, last := obj.pageSpan(h.cfg.PageSize)
			for i := first; i <= last && i < rp.n; i++ {
				coverage[i]++
			}
			hp := obj.headerPage(h.cfg.PageSize)
			headers[hp] = append(headers[hp], obj)
		}
		ok := slices.Equal(coverage, rp.coverage[:rp.n])
		for i := uint32(0); i < rp.n && ok; i++ {
			// The rebuilt list holds each resident once, so equal
			// lengths plus containment make the lists permutations.
			ok = len(headers[i]) == len(rp.headers[i])
			for _, o := range headers[i] {
				ok = ok && slices.Contains(rp.headers[i], o)
			}
		}
		if !ok {
			bad = append(bad, id)
		}
	}
	slices.Sort(bad)
	return bad
}
