package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestCanonical(t *testing.T) {
	cases := []struct {
		va VirtAddr
		ok bool
	}{
		{0, true},
		{0x00007fffffffffff, true},
		{0x0000800000000000, false},
		{0xffff7fffffffffff, false},
		{0xffff800000000000, true},
		{0xffffffffffffffff, true},
	}
	for _, c := range cases {
		if c.va.Canonical() != c.ok {
			t.Errorf("Canonical(%#x) = %v, want %v", c.va, !c.ok, c.ok)
		}
	}
}

func TestMapTranslate4K(t *testing.T) {
	pt := New()
	if err := pt.Map(0x400000, 0x10000, 2*Size4K, Writable|User); err != nil {
		t.Fatal(err)
	}
	pa, fl, ok := pt.Translate(0x400000 + 0x1234)
	if !ok || pa != 0x11234 {
		t.Fatalf("translate = %#x ok=%v", pa, ok)
	}
	if fl&Writable == 0 || fl&User == 0 {
		t.Fatalf("flags = %v", fl)
	}
	if _, _, ok := pt.Translate(0x400000 + 2*Size4K); ok {
		t.Fatal("translated past end of mapping")
	}
	if _, _, ok := pt.Translate(0x3ff000); ok {
		t.Fatal("translated before start of mapping")
	}
}

func TestLargePageSelection(t *testing.T) {
	pt := New()
	// 2M-aligned VA and PA with 4M length: should use two 2M pages.
	if err := pt.Map(VirtAddr(Size2M*10), mem.PhysAddr(Size2M*20), 2*Size2M, Writable); err != nil {
		t.Fatal(err)
	}
	if got := pt.MappedBytes(Size2M); got != 2*Size2M {
		t.Fatalf("2M mapped = %d", got)
	}
	if got := pt.MappedBytes(Size4K); got != 0 {
		t.Fatalf("4K mapped = %d", got)
	}
	if pt.PageSizeAt(VirtAddr(Size2M*10)) != Size2M {
		t.Fatal("wrong page size")
	}
	pa, _, ok := pt.Translate(VirtAddr(Size2M*10) + 0x12345)
	if !ok || pa != mem.PhysAddr(Size2M*20)+0x12345 {
		t.Fatalf("translate through 2M page = %#x", pa)
	}
}

func TestHuge1GSelection(t *testing.T) {
	pt := New()
	if err := pt.Map(VirtAddr(Size1G*8), mem.PhysAddr(Size1G*4), Size1G+Size2M, Writable); err != nil {
		t.Fatal(err)
	}
	if pt.MappedBytes(Size1G) != Size1G || pt.MappedBytes(Size2M) != Size2M {
		t.Fatalf("mix = 1G:%d 2M:%d", pt.MappedBytes(Size1G), pt.MappedBytes(Size2M))
	}
	pa, _, ok := pt.Translate(VirtAddr(Size1G*8) + 0x3fffffff)
	if !ok || pa != mem.PhysAddr(Size1G*4)+0x3fffffff {
		t.Fatalf("1G translate = %#x ok=%v", pa, ok)
	}
}

func TestMisalignedPhysForcesSmallPages(t *testing.T) {
	pt := New()
	// VA is 2M aligned but PA is only 4K aligned: no large pages.
	if err := pt.Map(VirtAddr(Size2M*4), 0x7000, Size2M, 0); err != nil {
		t.Fatal(err)
	}
	if pt.MappedBytes(Size2M) != 0 {
		t.Fatal("used 2M page with misaligned PA")
	}
	if pt.MappedBytes(Size4K) != Size2M {
		t.Fatalf("4K mapped = %d", pt.MappedBytes(Size4K))
	}
}

func TestMapErrors(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1001, 0x2000, Size4K, 0); err == nil {
		t.Fatal("unaligned va accepted")
	}
	if err := pt.Map(0x1000, 0x2001, Size4K, 0); err == nil {
		t.Fatal("unaligned pa accepted")
	}
	if err := pt.Map(0x1000, 0x2000, 0, 0); err == nil {
		t.Fatal("zero length accepted")
	}
	if err := pt.Map(0x0000800000000000, 0x2000, Size4K, 0); err == nil {
		t.Fatal("non-canonical va accepted")
	}
	if err := pt.Map(0x1000, 0x2000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x1000, 0x9000, Size4K, 0); err == nil {
		t.Fatal("overlap accepted")
	}
}

func TestUnmap(t *testing.T) {
	pt := New()
	if err := pt.Map(0x10000, 0x50000, 4*Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Unmap(0x11000, Size4K); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pt.Translate(0x11000); ok {
		t.Fatal("still mapped after unmap")
	}
	if _, _, ok := pt.Translate(0x12000); !ok {
		t.Fatal("neighbor unmapped")
	}
	// Remap the hole.
	if err := pt.Map(0x11000, 0x90000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	pa, _, _ := pt.Translate(0x11000)
	if pa != 0x90000 {
		t.Fatalf("remap = %#x", pa)
	}
}

func TestUnmapSplitLargePageFails(t *testing.T) {
	pt := New()
	if err := pt.Map(VirtAddr(Size2M*2), mem.PhysAddr(Size2M*8), Size2M, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Unmap(VirtAddr(Size2M*2), Size4K); err == nil {
		t.Fatal("splitting unmap accepted")
	}
	if err := pt.Unmap(VirtAddr(Size2M*2), Size2M); err != nil {
		t.Fatal(err)
	}
	if pt.MappedBytes(Size2M) != 0 {
		t.Fatal("accounting broken")
	}
}

func TestUnmapUnmappedFails(t *testing.T) {
	pt := New()
	if err := pt.Unmap(0x1000, Size4K); err == nil {
		t.Fatal("unmap of unmapped range accepted")
	}
}

func TestWalkExtentsMergesAcrossPages(t *testing.T) {
	pt := New()
	// Three physically contiguous 4K pages, then a gap, then one more.
	if err := pt.MapExtents(0x200000, []mem.Extent{
		{Addr: 0x100000, Len: 3 * Size4K},
		{Addr: 0x900000, Len: Size4K},
	}, Writable); err != nil {
		t.Fatal(err)
	}
	exts, err := pt.WalkExtents(0x200000, 4*Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("extents = %+v", exts)
	}
	if exts[0].Addr != 0x100000 || exts[0].Len != 3*Size4K {
		t.Fatalf("first extent = %+v", exts[0])
	}
	if exts[1].Addr != 0x900000 || exts[1].Len != Size4K {
		t.Fatalf("second extent = %+v", exts[1])
	}
}

func TestWalkExtentsUnaligned(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 0x100000, 2*Size4K, 0); err != nil {
		t.Fatal(err)
	}
	exts, err := pt.WalkExtents(0x200100, 0x1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 || exts[0].Addr != 0x100100 || exts[0].Len != 0x1200 {
		t.Fatalf("extents = %+v", exts)
	}
}

func TestWalkExtentsFault(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 0x100000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.WalkExtents(0x200000, 2*Size4K); err == nil {
		t.Fatal("walk across unmapped page succeeded")
	}
}

func TestPagesNoMerge(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 0x100000, 3*Size4K, 0); err != nil {
		t.Fatal(err)
	}
	pages, err := pt.Pages(0x200800, 2*Size4K)
	if err != nil {
		t.Fatal(err)
	}
	// 0x800 into page 0, full page 1, 0x800 of page 2 → 3 entries.
	if len(pages) != 3 {
		t.Fatalf("pages = %+v", pages)
	}
	if pages[0].Len != Size4K-0x800 || pages[1].Len != Size4K || pages[2].Len != 0x800 {
		t.Fatalf("page lens = %+v", pages)
	}
	for _, p := range pages {
		if p.Len > Size4K {
			t.Fatal("page entry longer than a page")
		}
	}
}

// Property: for random sets of mapped extents, WalkExtents covers exactly
// the requested bytes in order, and the per-byte translation agrees with
// Translate.
func TestWalkExtentsProperty(t *testing.T) {
	f := func(seed int64, lens []uint8) bool {
		if len(lens) == 0 {
			return true
		}
		if len(lens) > 12 {
			lens = lens[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		va := VirtAddr(0x10000000)
		pa := mem.PhysAddr(0x1000000)
		var total uint64
		for _, l := range lens {
			n := uint64(l%5+1) * Size4K
			if err := pt.Map(va+VirtAddr(total), pa, n, 0); err != nil {
				return false
			}
			total += n
			// Random gap in PA to create non-contiguity sometimes.
			pa += mem.PhysAddr(n)
			if rng.Intn(2) == 0 {
				pa += mem.PhysAddr(uint64(rng.Intn(4)+1) * Size4K)
			}
		}
		// Random sub-range, possibly unaligned.
		start := uint64(rng.Intn(int(total)))
		maxLen := total - start
		length := uint64(rng.Intn(int(maxLen))) + 1
		exts, err := pt.WalkExtents(va+VirtAddr(start), length)
		if err != nil {
			return false
		}
		var sum uint64
		cursor := va + VirtAddr(start)
		for _, e := range exts {
			if e.Len == 0 {
				return false
			}
			// Check first byte and last byte translations.
			p0, _, ok := pt.Translate(cursor)
			if !ok || p0 != e.Addr {
				return false
			}
			p1, _, ok := pt.Translate(cursor + VirtAddr(e.Len-1))
			if !ok || p1 != e.Addr+mem.PhysAddr(e.Len-1) {
				return false
			}
			cursor += VirtAddr(e.Len)
			sum += e.Len
		}
		// Adjacent extents must not be physically contiguous (else they
		// should have merged).
		for i := 1; i < len(exts); i++ {
			if exts[i-1].End() == exts[i].Addr {
				return false
			}
		}
		return sum == length
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: map/unmap sequences keep MappedBytes consistent with an
// oracle map of page → physical.
func TestMapUnmapAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		pt := New()
		type mapping struct {
			va  VirtAddr
			len uint64
		}
		var live []mapping
		nextVA := VirtAddr(0x40000000)
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := uint64(op%7+1) * Size4K
				if err := pt.Map(nextVA, 0x1000000, n, 0); err != nil {
					return false
				}
				live = append(live, mapping{nextVA, n})
				nextVA += VirtAddr(n + Size4K)
			} else {
				i := int(op) % len(live)
				if err := pt.Unmap(live[i].va, live[i].len); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		var want uint64
		for _, m := range live {
			want += m.len
		}
		return pt.MappedBytes(Size4K) == want
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMapUnmapPageSteadyStateAllocs: with the table levels already in
// place, mapping and unmapping one page touches slots and the per-size
// byte counters only.
func TestMapUnmapPageSteadyStateAllocs(t *testing.T) {
	pt := New()
	if err := pt.Map(0x400000, 0x10000, 64*Size4K, Writable|User); err != nil {
		t.Fatal(err)
	}
	const va = 0x400000 + 100*Size4K
	got := testing.AllocsPerRun(100, func() {
		if pt.Map(va, 0x900000, Size4K, Writable|User) != nil || pt.Unmap(va, Size4K) != nil {
			t.Fatal("map/unmap failed")
		}
	})
	if got != 0 {
		t.Fatalf("Map+Unmap of one page in a populated table: %v allocs, want 0", got)
	}
	if pt.MappedBytes(Size4K) != 64*Size4K || pt.MappedBytes(Size2M) != 0 || pt.MappedBytes(12345) != 0 {
		t.Fatalf("MappedBytes = %d/%d/%d", pt.MappedBytes(Size4K), pt.MappedBytes(Size2M), pt.MappedBytes(12345))
	}
}

// largePage4M maps the 4 MB large-page-backed buffer the fast path walks.
func largePage4M(tb testing.TB) (*Table, VirtAddr) {
	pt := New()
	if err := pt.Map(16*Size2M, 0x40000000, 4<<20, Writable); err != nil {
		tb.Fatal(err)
	}
	return pt, 16 * Size2M
}

// TestWalkExtentsAllocs: a walk allocates its result slice and nothing
// else, and nothing at all into a slice that already has the capacity.
func TestWalkExtentsAllocs(t *testing.T) {
	pt, va := largePage4M(t)
	allocs := func(dst []mem.Extent) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := pt.WalkExtentsInto(dst, va, 4<<20); err != nil {
				t.Fatal(err)
			}
		})
	}
	if fresh, reused := allocs(nil), allocs(make([]mem.Extent, 0, 8)); fresh != 1 || reused != 0 {
		t.Errorf("WalkExtents: %v allocs, into a reused slice %v; want 1 and 0", fresh, reused)
	}
}

var benchExtents []mem.Extent

// BenchmarkPageTableWalk measures the fast path's extent gathering.
func BenchmarkPageTableWalk(b *testing.B) {
	pt, va := largePage4M(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchExtents, _ = pt.WalkExtents(va, 4<<20)
	}
}
