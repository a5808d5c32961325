package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// testMem builds a small node: 8 MiB of MCDRAM at 1 GiB and 32 MiB of
// DDR4 at 2 GiB.
func testMem(t *testing.T) *PhysMem {
	t.Helper()
	pm, err := NewPhysMem(
		Region{Base: 1 << 30, Size: 8 << 20, Kind: MCDRAM, NUMANode: 0},
		Region{Base: 2 << 30, Size: 32 << 20, Kind: DDR4, NUMANode: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestNewPhysMemValidation(t *testing.T) {
	if _, err := NewPhysMem(Region{Base: 0, Size: 0}); err == nil {
		t.Fatal("zero-size region accepted")
	}
	if _, err := NewPhysMem(Region{Base: 100, Size: PageSize4K}); err == nil {
		t.Fatal("unaligned region accepted")
	}
	if _, err := NewPhysMem(
		Region{Base: 0, Size: 8 << 20},
		Region{Base: 4 << 20, Size: 8 << 20},
	); err == nil {
		t.Fatal("overlapping regions accepted")
	}
}

func TestAllocContigBasic(t *testing.T) {
	pm := testMem(t)
	e, err := pm.AllocContig(3*PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len != 4*PageSize4K {
		t.Fatalf("len = %d, want rounded to 4 pages", e.Len)
	}
	if e.Addr < 1<<30 || e.Addr >= (1<<30)+(8<<20) {
		t.Fatalf("addr %#x not in MCDRAM", e.Addr)
	}
	if e.Addr%PhysAddr(e.Len) != 0 {
		t.Fatalf("addr %#x not naturally aligned to %d", e.Addr, e.Len)
	}
	pm.FreeContig(e)
	if got := heldBytes(pm, MCDRAM); got != 0 {
		t.Fatalf("allocated after free = %d", got)
	}
}

func TestMCDRAMFallbackToDDR(t *testing.T) {
	pm := testMem(t)
	// Exhaust MCDRAM (8 MiB).
	e1, err := pm.AllocContig(8<<20, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := pm.AllocContig(PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Addr < 2<<30 {
		t.Fatalf("expected DDR4 fallback, got %#x", e2.Addr)
	}
	if _, err := pm.AllocContig(PageSize4K, MCDRAMOnly); err == nil {
		t.Fatal("MCDRAMOnly should fail when MCDRAM exhausted")
	}
	pm.FreeContig(e1)
	pm.FreeContig(e2)
}

func TestDDROnlyPolicy(t *testing.T) {
	pm := testMem(t)
	e, err := pm.AllocContig(PageSize4K, DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	if e.Addr < 2<<30 {
		t.Fatalf("DDROnly allocated from %#x", e.Addr)
	}
	pm.FreeContig(e)
}

func TestAllocRunContiguity(t *testing.T) {
	pm := testMem(t)
	// 600 pages from a fresh region: should produce very few extents
	// (greedy power-of-two carving: 512+64+16+8 = 600 → ≤ 4 extents,
	// possibly merged further).
	exts, err := pm.Partition("").AllocRun(600, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for _, e := range exts {
		total += e.Len
	}
	if total != 600*PageSize4K {
		t.Fatalf("total = %d pages, want 600", total/PageSize4K)
	}
	if len(exts) > 4 {
		t.Fatalf("AllocRun produced %d extents, want <= 4", len(exts))
	}
	for i := 1; i < len(exts); i++ {
		if exts[i-1].End() > exts[i].Addr {
			t.Fatal("extents overlap")
		}
	}
}

func TestAllocScatteredNonAdjacent(t *testing.T) {
	pm := testMem(t)
	exts, err := pm.AllocScattered(64, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 64 {
		t.Fatalf("got %d extents", len(exts))
	}
	adjacent := 0
	for i := 1; i < len(exts); i++ {
		if exts[i-1].End() == exts[i].Addr {
			adjacent++
		}
	}
	if adjacent > 4 {
		t.Fatalf("%d of 63 consecutive scattered pages adjacent; scatter too weak", adjacent)
	}
	pm.FreeScattered(exts)
}

func TestAllocRunRollbackOnFailure(t *testing.T) {
	pm, err := NewPhysMem(Region{Base: 0, Size: 16 * PageSize4K, Kind: DDR4})
	if err != nil {
		t.Fatal(err)
	}
	before := heldBytes(pm, DDR4)
	if _, err := pm.Partition("").AllocRun(32, DDROnly); err == nil {
		t.Fatal("expected failure")
	}
	if heldBytes(pm, DDR4) != before {
		t.Fatal("failed AllocRun leaked memory")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	pm := testMem(t)
	e, err := pm.AllocContig(2*PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000) // crosses a frame boundary
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Unaligned start inside the extent.
	pa := e.Addr + 123
	if err := pm.WriteAt(pa, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := pm.ReadAt(pa, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("round trip mismatch")
	}
	// Zero-fill semantics for untouched memory.
	z := make([]byte, 16)
	if err := pm.ReadAt(e.Addr+PhysAddr(e.Len)-16, z); err != nil {
		t.Fatal(err)
	}
	for _, b := range z {
		if b != 0 {
			t.Fatal("untouched frame not zero")
		}
	}
}

func TestReadUnmappedFails(t *testing.T) {
	pm := testMem(t)
	buf := make([]byte, 8)
	if err := pm.ReadAt(0x1234, buf); err == nil {
		t.Fatal("read of unmapped address succeeded")
	}
}

func TestU64RoundTrip(t *testing.T) {
	pm := testMem(t)
	e, _ := pm.AllocContig(PageSize4K, PreferMCDRAM)
	const v = uint64(0xdeadbeefcafe0123)
	if err := pm.WriteU64(e.Addr+8, v); err != nil {
		t.Fatal(err)
	}
	got, err := pm.ReadU64(e.Addr + 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %#x want %#x", got, v)
	}
}

func TestPinUnpin(t *testing.T) {
	pm := testMem(t)
	e, _ := pm.AllocContig(4*PageSize4K, PreferMCDRAM)
	sub := Extent{Addr: e.Addr + 100, Len: PageSize4K} // spans 2 frames
	pm.Pin(sub)
	if pm.PinnedFrames() != 2 {
		t.Fatalf("pinned frames = %d, want 2", pm.PinnedFrames())
	}
	if !pinnedAt(pm, sub.Addr) || !pinnedAt(pm, sub.Addr+PageSize4K) {
		t.Fatal("frames not reported pinned")
	}
	pm.Pin(sub) // second pin
	pm.Unpin(sub)
	if pm.PinnedFrames() != 2 {
		t.Fatal("refcount broken")
	}
	pm.Unpin(sub)
	if pm.PinnedFrames() != 0 {
		t.Fatal("frames still pinned")
	}
}

func TestUnbalancedUnpinPanics(t *testing.T) {
	pm := testMem(t)
	pm.Pin(Extent{Addr: 1 << 30, Len: PageSize4K})
	wantPanic(t, "mem: unpin of unpinned frame 0x40001000", func() {
		pm.Unpin(Extent{Addr: 1 << 30, Len: 2 * PageSize4K})
	})
}

func TestDoubleFreePanics(t *testing.T) {
	pm := testMem(t)
	e, _ := pm.AllocContig(PageSize4K, PreferMCDRAM)
	pm.FreeContig(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	pm.FreeContig(e)
}

func TestMergeExtents(t *testing.T) {
	in := []Extent{
		{Addr: 0x3000, Len: 0x1000},
		{Addr: 0x1000, Len: 0x1000},
		{Addr: 0x2000, Len: 0x1000},
		{Addr: 0x8000, Len: 0x2000},
	}
	out := mergeExtents(in)
	if len(out) != 2 || out[0].Addr != 0x1000 || out[0].Len != 0x3000 ||
		out[1].Addr != 0x8000 || out[1].Len != 0x2000 {
		t.Fatalf("merge = %+v", out)
	}
}

// Property: any interleaving of allocations and frees never produces
// overlapping extents, and freeing everything restores all free bytes.
func TestBuddyInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		pm, err := NewPhysMem(Region{Base: 0x100000, Size: 4 << 20, Kind: DDR4})
		if err != nil {
			return false
		}
		var live []Extent
		overlaps := func(e Extent) bool {
			for _, o := range live {
				if e.Addr < o.End() && o.Addr < e.End() {
					return true
				}
			}
			return false
		}
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // free
				idx := int(op) % len(live)
				pm.FreeContig(live[idx])
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			size := uint64(1+op%8) * PageSize4K
			e, err := pm.AllocContig(size, DDROnly)
			if err != nil {
				continue // exhausted is fine
			}
			if overlaps(e) {
				return false
			}
			if e.Addr%PhysAddr(e.Len) != 0 {
				return false // buddy blocks are naturally aligned
			}
			live = append(live, e)
		}
		for _, e := range live {
			pm.FreeContig(e)
		}
		return heldBytes(pm, DDR4) == 0 &&
			freeListBytes(pm.regions[0].buddy) == 4<<20
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AllocRun covers exactly the requested page count with
// non-overlapping, merged extents.
func TestAllocRunProperty(t *testing.T) {
	f := func(n uint16) bool {
		npages := int(n%1500) + 1
		pm, err := NewPhysMem(Region{Base: 0, Size: 16 << 20, Kind: DDR4})
		if err != nil {
			return false
		}
		exts, err := pm.Partition("").AllocRun(npages, DDROnly)
		if err != nil {
			return npages > (16<<20)/PageSize4K
		}
		var total uint64
		for i, e := range exts {
			total += e.Len
			if i > 0 && exts[i-1].End() >= e.Addr+1 && exts[i-1].End() != e.Addr {
				return false
			}
			if i > 0 && exts[i-1].End() == e.Addr {
				return false // should have been merged
			}
		}
		return total == uint64(npages)*PageSize4K
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedAllocation(t *testing.T) {
	pm, err := NewPhysMem(
		Region{Base: 0, Size: 8 << 20, Kind: DDR4, Owner: "linux"},
		Region{Base: 1 << 30, Size: 8 << 20, Kind: DDR4, Owner: "lwk"},
	)
	if err != nil {
		t.Fatal(err)
	}
	lin, lwk := pm.Partition("linux"), pm.Partition("lwk")
	e1, err := lin.AllocContig(PageSize4K, DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Addr >= 1<<30 {
		t.Fatalf("linux allocation from lwk region: %#x", e1.Addr)
	}
	e2, err := lwk.AllocContig(PageSize4K, DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Addr < 1<<30 {
		t.Fatalf("lwk allocation from linux region: %#x", e2.Addr)
	}
	// Partitions do not spill into each other: exhaust lwk.
	if _, err := lwk.AllocContig(8<<20, DDROnly); err == nil {
		if _, err := lwk.AllocContig(PageSize4K, DDROnly); err == nil {
			t.Fatal("lwk partition spilled into linux regions")
		}
	}
	// Byte backing is shared node-wide: write via the raw PhysMem,
	// read back through either partition's Phys().
	if err := pm.WriteU64(e2.Addr, 42); err != nil {
		t.Fatal(err)
	}
	v, err := lin.Phys().ReadU64(e2.Addr)
	if err != nil || v != 42 {
		t.Fatalf("cross-partition read = %d, %v", v, err)
	}
	lin.FreeContig(e1)
	lwk.FreeContig(e2)
}

// heldBytes sums the bytes kind's regions hold from their buddy
// allocators. Frames sitting in scatter pools count as held (they are
// unavailable for contiguous allocation).
func heldBytes(pm *PhysMem, kind Kind) uint64 {
	var total uint64
	for _, rs := range pm.regions {
		if rs.Kind == kind {
			total += rs.allocated
		}
	}
	return total
}

// freeListBytes sums the bytes on b's free lists.
func freeListBytes(b *buddy) uint64 {
	var total uint64
	for order, set := range b.freeLists {
		total += uint64(len(set)) * blockSize(order)
	}
	return total
}
