package heap

import (
	"errors"
	"testing"
)

func testHeap(t *testing.T) *Heap {
	t.Helper()
	h, err := New(Config{RegionSize: 64 * 1024, PageSize: 4096, MaxBytes: 16 * 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustRegion(t *testing.T, h *Heap, gen GenID) *Region {
	t.Helper()
	r, err := h.NewRegion(gen)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustAlloc(t *testing.T, h *Heap, r *Region, size uint32) *Object {
	t.Helper()
	obj, err := h.Allocate(r, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"region not multiple of page", Config{RegionSize: 5000, PageSize: 4096}, false},
		{"max smaller than region", Config{RegionSize: 1 << 20, PageSize: 4096, MaxBytes: 1000}, false},
		{"explicit valid", Config{RegionSize: 8192, PageSize: 4096, MaxBytes: 1 << 20}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New(%+v) error = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

func TestAllocateAssignsUniqueStableIDs(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	seen := make(map[ObjectID]bool)
	for i := 0; i < 100; i++ {
		obj := mustAlloc(t, h, r, 128)
		if seen[obj.ID] {
			t.Fatalf("duplicate object id %#x", uint64(obj.ID))
		}
		seen[obj.ID] = true
	}
	st := h.Stats()
	if st.TotalAllocatedObjects != 100 || st.TotalAllocatedBytes != 100*128 {
		t.Fatalf("allocation totals wrong: %+v", st)
	}
}

func TestAllocateBumpPointerAndFit(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 4000)
	b := mustAlloc(t, h, r, 4000)
	if a.Offset != 0 || b.Offset != 4000 {
		t.Fatalf("bump offsets wrong: a=%d b=%d", a.Offset, b.Offset)
	}
	if _, err := h.Allocate(r, 64*1024, 1); err == nil {
		t.Fatal("oversized allocation should fail")
	}
	if _, err := h.Allocate(r, 0, 1); err == nil {
		t.Fatal("zero-size allocation should fail")
	}
}

func TestOutOfMemory(t *testing.T) {
	h, err := New(Config{RegionSize: 8192, PageSize: 4096, MaxBytes: 2 * 8192})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewRegion(Young); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewRegion(Young); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewRegion(Young); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("third region error = %v, want ErrOutOfMemory", err)
	}
}

func TestFreeRegionReleasesCommitment(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	before := h.Stats().CommittedBytes
	h.FreeRegion(r)
	after := h.Stats()
	if after.CommittedBytes != before-64*1024 {
		t.Fatalf("committed after free = %d, want %d", after.CommittedBytes, before-64*1024)
	}
	if after.MaxCommittedBytes != before {
		t.Fatalf("max committed should keep high-water mark %d, got %d", before, after.MaxCommittedBytes)
	}
	if _, err := h.Allocate(r, 16, 1); err == nil {
		t.Fatal("allocation in freed region should fail")
	}
}

func TestFreeRegionPanicsOnResidents(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	mustAlloc(t, h, r, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeRegion with residents did not panic")
		}
	}()
	h.FreeRegion(r)
}

func TestRootsAndTrace(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	c := mustAlloc(t, h, r, 64)
	orphan := mustAlloc(t, h, r, 64)

	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(b, c); err != nil {
		t.Fatal(err)
	}

	ls := h.Trace()
	if ls.Objects != 3 {
		t.Fatalf("live objects = %d, want 3", ls.Objects)
	}
	if ls.Marked(orphan) {
		t.Fatal("orphan should be unreachable")
	}
	if ls.Bytes != 3*64 {
		t.Fatalf("live bytes = %d, want 192", ls.Bytes)
	}
	if got := ls.Region(r.ID()); got.Objects != 3 || got.Bytes != 192 {
		t.Fatalf("region liveness = %+v", got)
	}

	// Unlinking b->c kills c.
	if err := h.Unlink(b, c); err != nil {
		t.Fatal(err)
	}
	if ls := h.Trace(); ls.Marked(c) {
		t.Fatal("c should be dead after unlink")
	}

	// Removing the root kills everything.
	if err := h.RemoveRoot(a); err != nil {
		t.Fatal(err)
	}
	if ls := h.Trace(); ls.Objects != 0 {
		t.Fatalf("live objects after root removal = %d, want 0", ls.Objects)
	}
}

func TestRootPinCounting(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveRoot(a); err != nil {
		t.Fatal(err)
	}
	if !h.Trace().Marked(a) {
		t.Fatal("doubly pinned object should survive one unpin")
	}
	if err := h.RemoveRoot(a); err != nil {
		t.Fatal(err)
	}
	if h.Trace().Marked(a) {
		t.Fatal("object should die after final unpin")
	}
	if err := h.RemoveRoot(a); err == nil {
		t.Fatal("unpinning an unpinned object should fail")
	}
}

// TestLinkUnknownEndpoints checks that the handle-taking graph and root
// operations reject a freed handle without touching the heap, and that the
// recycling stamp tells a reused handle from the object it once was.
func TestLinkUnknownEndpoints(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Unlink(a, a); err == nil {
		t.Fatal("Unlink of absent edge should fail")
	}
	dead := mustAlloc(t, h, r, 64)
	stamp := dead.Stamp()
	h.Remove(dead)

	for name, op := range map[string]func() error{
		"Link parent":   func() error { return h.Link(dead, a) },
		"Link child":    func() error { return h.Link(a, dead) },
		"Unlink parent": func() error { return h.Unlink(dead, a) },
		"Unlink child":  func() error { return h.Unlink(a, dead) },
		"AddRoot":       func() error { return h.AddRoot(dead) },
		"RemoveRoot":    func() error { return h.RemoveRoot(dead) },
	} {
		if err := op(); err == nil {
			t.Errorf("%s with a freed handle succeeded", name)
		}
	}
	if a.OutDegree() != 0 || a.InDegree() != 0 || h.RootCount() != 1 {
		t.Fatalf("rejected operations mutated the heap: out=%d in=%d roots=%d",
			a.OutDegree(), a.InDegree(), h.RootCount())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in %v", bad)
	}

	// The freelist hands the struct to the next allocation: the old
	// handle is live again, as a different object the stamp gives away.
	reused := mustAlloc(t, h, r, 64)
	if reused != dead || reused.Freed() {
		t.Fatal("allocation did not recycle the freed handle")
	}
	if reused.Stamp() == stamp {
		t.Fatal("recycled handle kept its stamp")
	}
	if err := h.Link(a, reused); err != nil {
		t.Fatalf("Link to the recycled object: %v", err)
	}
}

func TestEdgeMultiplicity(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.Link(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if a.RefCount(b) != 3 {
		t.Fatalf("RefCount = %d, want 3", a.RefCount(b))
	}
	if err := h.Unlink(a, b); err != nil {
		t.Fatal(err)
	}
	if err := h.Unlink(a, b); err != nil {
		t.Fatal(err)
	}
	if !h.Trace().Marked(b) {
		t.Fatal("b should stay alive while one edge remains")
	}
	if err := h.Unlink(a, b); err != nil {
		t.Fatal(err)
	}
	if h.Trace().Marked(b) {
		t.Fatal("b should die when the last edge is removed")
	}
}

func TestCycleCollection(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(b, a); err != nil {
		t.Fatal(err)
	}
	if got := h.Trace().Objects; got != 2 {
		t.Fatalf("cycle with root: live = %d, want 2", got)
	}
	if err := h.RemoveRoot(a); err != nil {
		t.Fatal(err)
	}
	if got := h.Trace().Objects; got != 0 {
		t.Fatalf("unrooted cycle should be dead, live = %d", got)
	}
}

func TestEvacuatePreservesIdentityAndGraph(t *testing.T) {
	h := testHeap(t)
	src := mustRegion(t, h, Young)
	dst := mustRegion(t, h, GenID(1))
	a := mustAlloc(t, h, src, 64)
	b := mustAlloc(t, h, src, 64)
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(a, b); err != nil {
		t.Fatal(err)
	}
	id := b.ID
	if err := h.Evacuate(b, dst); err != nil {
		t.Fatal(err)
	}
	if b.ID != id {
		t.Fatal("evacuation changed identity hash")
	}
	if b.Region != dst.ID() || b.Gen != 1 {
		t.Fatalf("evacuated object location wrong: %v", b)
	}
	if !h.Trace().Marked(b) {
		t.Fatal("evacuated object fell out of the graph")
	}
	if src.ResidentCount() != 1 || dst.ResidentCount() != 1 {
		t.Fatalf("resident counts wrong: src=%d dst=%d", src.ResidentCount(), dst.ResidentCount())
	}
}

func TestEvacuateErrors(t *testing.T) {
	h := testHeap(t)
	src := mustRegion(t, h, Young)
	a := mustAlloc(t, h, src, 64)
	if err := h.Evacuate(a, src); err == nil {
		t.Fatal("evacuating into own region should fail")
	}
	dst := mustRegion(t, h, Young)
	mustAlloc(t, h, dst, 64*1024-32)
	if err := h.Evacuate(a, dst); err == nil {
		t.Fatal("evacuating into full region should fail")
	}
	empty := mustRegion(t, h, Young)
	h.FreeRegion(empty)
	if err := h.Evacuate(a, empty); err == nil {
		t.Fatal("evacuating into freed region should fail")
	}
}

func TestRemoveTearsDownEdges(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	b := mustAlloc(t, h, r, 64)
	c := mustAlloc(t, h, r, 64)
	if err := h.Link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := h.Link(b, c); err != nil {
		t.Fatal(err)
	}
	h.Remove(b)
	if !b.Freed() {
		t.Fatal("removed object still present")
	}
	if a.RefCount(b) != 0 {
		t.Fatal("parent still references removed object")
	}
	if c.InDegree() != 0 {
		t.Fatal("child still records removed parent")
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}
}

func TestRemoveRootedPanics(t *testing.T) {
	h := testHeap(t)
	r := mustRegion(t, h, Young)
	a := mustAlloc(t, h, r, 64)
	if err := h.AddRoot(a); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of rooted object did not panic")
		}
	}()
	h.Remove(a)
}

func TestRemsetMaintenance(t *testing.T) {
	h := testHeap(t)
	r1 := mustRegion(t, h, Young)
	r2 := mustRegion(t, h, GenID(1))
	a := mustAlloc(t, h, r1, 64)
	b := mustAlloc(t, h, r2, 64)

	if err := h.Link(a, b); err != nil {
		t.Fatal(err)
	}
	if r2.RemsetEntries() != 1 {
		t.Fatalf("r2 remset = %d, want 1", r2.RemsetEntries())
	}
	if r1.RemsetEntries() != 0 {
		t.Fatalf("r1 remset = %d, want 0", r1.RemsetEntries())
	}

	// Moving b into r1 makes the edge intra-region.
	if err := h.Evacuate(b, r1); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 0 || r2.RemsetEntries() != 0 {
		t.Fatalf("after evacuate: r1=%d r2=%d, want 0/0", r1.RemsetEntries(), r2.RemsetEntries())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}

	// Moving the parent out makes it cross-region again.
	r3 := mustRegion(t, h, GenID(2))
	if err := h.Evacuate(a, r3); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 1 {
		t.Fatalf("after parent evacuation r1 remset = %d, want 1", r1.RemsetEntries())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}
}

func TestSelfReferenceRemset(t *testing.T) {
	h := testHeap(t)
	r1 := mustRegion(t, h, Young)
	r2 := mustRegion(t, h, GenID(1))
	a := mustAlloc(t, h, r1, 64)
	if err := h.Link(a, a); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 0 {
		t.Fatal("self-edge should not appear in remset")
	}
	if err := h.Evacuate(a, r2); err != nil {
		t.Fatal(err)
	}
	if r1.RemsetEntries() != 0 || r2.RemsetEntries() != 0 {
		t.Fatalf("self-edge after evacuation: r1=%d r2=%d, want 0/0", r1.RemsetEntries(), r2.RemsetEntries())
	}
	if bad := h.CheckRemsetInvariant(); len(bad) != 0 {
		t.Fatalf("remset invariant broken in regions %v", bad)
	}
}
