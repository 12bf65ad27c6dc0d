package heap

import (
	"math/rand"
	"testing"
)

// shadowHeap mirrors the object graph and the root pins a test applies to a
// Heap, keyed by handle.
type shadowHeap struct {
	pins  map[*Object]int
	edges map[*Object]map[*Object]int
	live  []*Object
}

// reachable returns the set of live objects reachable from pinned ones.
func (s *shadowHeap) reachable() map[*Object]bool {
	seen := make(map[*Object]bool)
	var queue []*Object
	for obj, n := range s.pins {
		if n > 0 {
			seen[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for child := range s.edges[obj] {
			if !seen[child] {
				seen[child] = true
				queue = append(queue, child)
			}
		}
	}
	return seen
}

// TestRootListChurnProperty applies random pin, unpin, AddRoot, RemoveRoot,
// Link, Unlink and Remove operations against a shadow multiset and checks
// after every step that RootCount and IsRoot agree with it, that
// Stats().Objects equals the sum of the regions' resident lists, and that
// Trace marks exactly the shadow-reachable objects.
func TestRootListChurnProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		var regions []*Region
		for i := 0; i < 3; i++ {
			r, err := h.NewRegion(Young)
			if err != nil {
				t.Fatal(err)
			}
			regions = append(regions, r)
		}
		s := &shadowHeap{pins: make(map[*Object]int), edges: make(map[*Object]map[*Object]int)}
		pick := func() *Object { return s.live[rng.Intn(len(s.live))] }

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(8); {
			case op == 0 || len(s.live) < 2:
				obj, err := h.Allocate(regions[rng.Intn(len(regions))], uint32(16+rng.Intn(200)), 1)
				if err != nil {
					continue // region full
				}
				s.live = append(s.live, obj)
			case op == 1:
				obj := pick()
				h.PinRoot(obj)
				s.pins[obj]++
			case op == 2:
				obj := pick()
				if err := h.AddRoot(obj); err != nil {
					t.Fatalf("seed %d step %d: AddRoot: %v", seed, step, err)
				}
				s.pins[obj]++
			case op == 3:
				if obj := pick(); s.pins[obj] > 0 {
					h.UnpinRoot(obj)
					s.pins[obj]--
				}
			case op == 4:
				obj := pick()
				err := h.RemoveRoot(obj)
				if (err == nil) != (s.pins[obj] > 0) {
					t.Fatalf("seed %d step %d: RemoveRoot with %d pins: err=%v", seed, step, s.pins[obj], err)
				}
				if err == nil {
					s.pins[obj]--
				}
			case op == 5:
				p, c := pick(), pick()
				if err := h.Link(p, c); err != nil {
					t.Fatalf("seed %d step %d: Link: %v", seed, step, err)
				}
				if s.edges[p] == nil {
					s.edges[p] = make(map[*Object]int)
				}
				s.edges[p][c]++
			case op == 6:
				p, c := pick(), pick()
				err := h.Unlink(p, c)
				if (err == nil) != (s.edges[p][c] > 0) {
					t.Fatalf("seed %d step %d: Unlink of edge with multiplicity %d: err=%v", seed, step, s.edges[p][c], err)
				}
				if err == nil {
					if s.edges[p][c]--; s.edges[p][c] == 0 {
						delete(s.edges[p], c)
					}
				}
			case op == 7:
				i := rng.Intn(len(s.live))
				obj := s.live[i]
				if s.pins[obj] > 0 {
					continue
				}
				h.Remove(obj)
				s.live[i] = s.live[len(s.live)-1]
				s.live = s.live[:len(s.live)-1]
				delete(s.pins, obj)
				delete(s.edges, obj)
				for _, out := range s.edges {
					delete(out, obj)
				}
			}

			rooted := 0
			for _, obj := range s.live {
				if obj.IsRoot() != (s.pins[obj] > 0) {
					t.Fatalf("seed %d step %d: IsRoot=%v with %d shadow pins", seed, step, obj.IsRoot(), s.pins[obj])
				}
				if s.pins[obj] > 0 {
					rooted++
				}
			}
			if h.RootCount() != rooted {
				t.Fatalf("seed %d step %d: RootCount %d, shadow %d", seed, step, h.RootCount(), rooted)
			}
			residents := 0
			for _, r := range h.ActiveRegions() {
				residents += r.ResidentCount()
			}
			if got := h.Stats().Objects; got != residents || got != len(s.live) {
				t.Fatalf("seed %d step %d: Stats().Objects %d, resident lists %d, shadow %d", seed, step, got, residents, len(s.live))
			}
			want := s.reachable()
			ls := h.Trace()
			if ls.Objects != len(want) {
				t.Fatalf("seed %d step %d: trace reached %d objects, shadow %d", seed, step, ls.Objects, len(want))
			}
			for _, obj := range s.live {
				if ls.Marked(obj) != want[obj] {
					t.Fatalf("seed %d step %d: %v marked=%v, shadow reachable=%v", seed, step, obj, ls.Marked(obj), want[obj])
				}
			}
		}
		if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
			t.Fatalf("seed %d: remset invariant broken in %v", seed, bad)
		}
	}
}

// TestAllocPinChurnZeroAllocs pins the engine's per-allocation root path at
// zero Go allocations once warm: the root list and the recycled Object
// structs and page tables absorb an Allocate→PinRoot→UnpinRoot→Remove
// cycle entirely.
func TestAllocPinChurnZeroAllocs(t *testing.T) {
	h, err := New(Config{RegionSize: 1 << 20, PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: fill a region with pinned objects, then release and free
	// it, so the root list, the freelist and the donated page table (with
	// its per-page header capacity) are all at their steady-state size.
	warm, err := h.NewRegion(Young)
	if err != nil {
		t.Fatal(err)
	}
	var objs []*Object
	for warm.Used()+64 <= h.Config().RegionSize {
		obj, err := h.Allocate(warm, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		h.UnpinRoot(obj)
		h.Remove(obj)
	}
	h.FreeRegion(warm)
	r, err := h.NewRegion(Young)
	if err != nil {
		t.Fatal(err)
	}
	// A long-lived root keeps the swap-remove path honest.
	keep, err := h.Allocate(r, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.PinRoot(keep)

	if got := testing.AllocsPerRun(1000, func() {
		obj, err := h.Allocate(r, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.PinRoot(obj)
		h.UnpinRoot(obj)
		h.Remove(obj)
	}); got != 0 {
		t.Fatalf("Allocate→PinRoot→UnpinRoot→Remove allocates %v per cycle, want 0", got)
	}
	if h.RootCount() != 1 || !keep.IsRoot() {
		t.Fatalf("root list lost the long-lived root: count %d", h.RootCount())
	}
}
