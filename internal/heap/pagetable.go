package heap

// PageKey names one page of simulated memory: the page with index Index
// inside region Region. Region ids are never reused, so a PageKey is stable
// for the lifetime of a heap.
type PageKey struct {
	Region RegionID
	Index  uint32
}

// pageFlags is the simulated kernel page-table entry the paper's Dumper
// relies on (§4.2): a dirty bit set whenever the page is written (allocation,
// evacuation target, or a reference-field store) and cleared by the Dumper
// after every snapshot, plus a no-need bit set by the collector for pages
// holding no reachable data and cleared as soon as the page is written
// again.
type pageFlags struct {
	dirty  bitset
	noNeed bitset
}

// bitset is a minimal fixed-capacity bitset.
type bitset []uint64

func newBitset(n uint32) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) set(i uint32)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i uint32)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) get(i uint32) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) setAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

func (b bitset) clearAll() {
	for i := range b {
		b[i] = 0
	}
}

// regionPages holds the page-table slice for one region, including the
// incrementally maintained page contents (which objects' headers lie on
// each page, and how many objects' storage overlaps it) so that dumpers
// never have to rescan residents.
type regionPages struct {
	flags pageFlags
	n     uint32
	// coverage counts resident objects overlapping each page.
	coverage []uint16
	// headers holds, per page index, the resident objects whose header
	// lies on it. The per-page slices keep their backing arrays across
	// reset, so a recycled page table reaches its steady-state capacity
	// once and then stops allocating.
	headers [][]*Object
}

func newRegionPages(n uint32) *regionPages {
	return &regionPages{
		flags:    pageFlags{dirty: newBitset(n), noNeed: newBitset(n)},
		n:        n,
		coverage: make([]uint16, n),
		headers:  make([][]*Object, n),
	}
}

// reset clears the page table for reuse by a fresh region, keeping every
// backing array (bitsets, coverage counters, per-page header slices).
func (rp *regionPages) reset() {
	rp.flags.dirty.clearAll()
	rp.flags.noNeed.clearAll()
	for i := range rp.coverage {
		rp.coverage[i] = 0
	}
	for i := range rp.headers {
		rp.headers[i] = rp.headers[i][:0]
	}
}

// touch marks the page range [first, last] dirty and clears its no-need
// bits: written memory is live memory from the kernel's perspective.
func (rp *regionPages) touch(first, last uint32) {
	for i := first; i <= last && i < rp.n; i++ {
		rp.flags.dirty.set(i)
		rp.flags.noNeed.clear(i)
	}
}

// place records a resident object's storage on the page table.
func (rp *regionPages) place(obj *Object, pageSize uint32) {
	first, last := obj.pageSpan(pageSize)
	for i := first; i <= last && i < rp.n; i++ {
		rp.coverage[i]++
	}
	hp := obj.headerPage(pageSize)
	rp.headers[hp] = append(rp.headers[hp], obj)
}

// displace removes a resident object's storage from the page table.
func (rp *regionPages) displace(obj *Object, pageSize uint32) {
	first, last := obj.pageSpan(pageSize)
	for i := first; i <= last && i < rp.n; i++ {
		rp.coverage[i]--
	}
	hp := obj.headerPage(pageSize)
	hs := rp.headers[hp]
	for i, o := range hs {
		if o == obj {
			last := len(hs) - 1
			hs[i] = hs[last]
			hs[last] = nil
			rp.headers[hp] = hs[:last]
			break
		}
	}
}

// PageState is the externally visible state of one page, consumed by the
// dumpers.
type PageState struct {
	Key    PageKey
	Dirty  bool
	NoNeed bool
	// Headers lists the objects whose header lies on this page; a
	// snapshot that includes the page lets the Analyzer recover exactly
	// their ids (§4.3).
	Headers []*Object
	// Occupied reports whether any resident object's storage overlaps the
	// page; unoccupied pages carry no data worth snapshotting.
	Occupied bool
}
