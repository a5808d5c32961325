package pagetable

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

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
	if got := mappedBytes(pt, Size2M); got != 2*Size2M {
		t.Fatalf("2M mapped = %d", got)
	}
	if got := mappedBytes(pt, Size4K); got != 0 {
		t.Fatalf("4K mapped = %d", got)
	}
	if _, pgsz, _ := pt.lookup(VirtAddr(Size2M * 10)); pgsz != Size2M {
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
	if mappedBytes(pt, Size1G) != Size1G || mappedBytes(pt, Size2M) != Size2M {
		t.Fatalf("mix = 1G:%d 2M:%d", mappedBytes(pt, Size1G), mappedBytes(pt, Size2M))
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
	if mappedBytes(pt, Size2M) != 0 {
		t.Fatal("used 2M page with misaligned PA")
	}
	if mappedBytes(pt, Size4K) != Size2M {
		t.Fatalf("4K mapped = %d", mappedBytes(pt, Size4K))
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

// TestMapOverlapAtTopOfAddressSpace: a range ending at 2^64 used to wrap
// the overlap scan's end to 0, so a second map of the top page was
// accepted and the page counted twice.
func TestMapOverlapAtTopOfAddressSpace(t *testing.T) {
	pt := New()
	const top = VirtAddr(0xfffffffffffff000)
	if err := pt.Map(top, 0x1000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(top, 0x2000, Size4K, 0); err == nil {
		t.Fatal("second map of the top page accepted")
	}
	if err := pt.Map(top-Size4K, 0x3000, 2*Size4K, 0); err == nil {
		t.Fatal("map ending on the mapped top page accepted")
	}
	if err := pt.Map(top, 0x4000, 2*Size4K, 0); err == nil {
		t.Fatal("map wrapping past the top of the address space accepted")
	}
	if pa, _, ok := pt.Translate(top + 0x10); !ok || pa != 0x1010 {
		t.Fatalf("Translate(top) = %#x, %v; want 0x1010", pa, ok)
	}
	if got := mappedBytes(pt, Size4K); got != Size4K {
		t.Fatalf("mapped 4K bytes = %d, want %d", got, Size4K)
	}
}

// TestNonCanonicalDoesNotAlias: the index bits of a non-canonical
// address equal those of a canonical one in the other half; lookups must
// not reach that half's mappings through them.
func TestNonCanonicalDoesNotAlias(t *testing.T) {
	pt := New()
	const high = VirtAddr(0xffff800000000000)
	if err := pt.Map(high, 0x5000, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	const alias = VirtAddr(0x0000800000000000)
	if _, _, ok := pt.Translate(alias); ok {
		t.Fatal("non-canonical address translated")
	}
	if _, err := pt.WalkExtents(alias-Size4K, 2*Size4K); err == nil {
		t.Fatal("walk across the canonical hole succeeded")
	}
	if err := pt.Unmap(alias, Size4K); err == nil {
		t.Fatal("unmap through a non-canonical alias succeeded")
	}
}

var footprintSink *Table

// TestTableFootprint pins the packed layout: a last-level table is 512
// eight-byte entries with no pointer the garbage collector would scan,
// and directories store only the slots they use. A table holding one 4K
// and one 2M mapping has a PML4 and a PDPT of one slot and a PD of two:
// under 1 KB of directories beside its one PT (the dense directories
// took 8 KB each).
func TestTableFootprint(t *testing.T) {
	if got := unsafe.Sizeof(pt{}); got != 4096 {
		t.Errorf("last-level table is %d bytes, want 4096", got)
	}
	if hasPointers(reflect.TypeFor[pt]()) {
		t.Error("last-level table type holds pointers")
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for range runs {
		tbl := New()
		if tbl.Map(0x400000, 0x10000, Size4K, Writable) != nil || tbl.Map(0x600000, 0x600000, Size2M, Writable) != nil {
			t.Fatal("map failed")
		}
		footprintSink = tbl
	}
	runtime.ReadMemStats(&after)
	if dirs := (after.TotalAlloc-before.TotalAlloc)/runs - uint64(unsafe.Sizeof(pt{})); dirs > 1<<10 {
		t.Errorf("one 4K and one 2M mapping: %d bytes of directories, want at most 1 KB", dirs)
	}
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
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
	if mappedBytes(pt, Size2M) != 0 {
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
	pages, err := pt.PagesInto(nil, 0x200800, 2*Size4K)
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

// Property: map/unmap sequences keep the mapped bytes consistent with an
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
		return mappedBytes(pt, Size4K) == want
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
	if mappedBytes(pt, Size4K) != 64*Size4K || mappedBytes(pt, Size2M) != 0 || mappedBytes(pt, 12345) != 0 {
		t.Fatalf("MappedBytes = %d/%d/%d", mappedBytes(pt, Size4K), mappedBytes(pt, Size2M), mappedBytes(pt, 12345))
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

// BenchmarkPageTableWalk measures the fast path's extent gathering: a
// walk into a reused slice, as the PicoDriver's request building does,
// so the lookups are timed and not the result's allocation.
func BenchmarkPageTableWalk(b *testing.B) {
	pt, va := largePage4M(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchExtents, _ = pt.WalkExtentsInto(benchExtents[:0], va, 4<<20)
	}
}

// BenchmarkAccess measures one Access write and one read of 8 B and
// 1 KB inside a page, and of 64 KB across sixteen 4K leaves that are
// not physically adjacent.
func BenchmarkAccess(b *testing.B) {
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 1 << 20, Kind: mem.DDR4})
	if err != nil {
		b.Fatal(err)
	}
	pt := New()
	const va = VirtAddr(0x400000)
	for i := range 16 {
		if err := pt.Map(va+VirtAddr(i*Size4K), mem.PhysAddr(2*i*Size4K), Size4K, Writable); err != nil {
			b.Fatal(err)
		}
	}
	for _, size := range []int{8, 1 << 10, 64 << 10} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			buf := make([]byte, size)
			b.SetBytes(2 * int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if f, err := pt.Access(pm, va, buf, true); f != nil || err != nil {
					b.Fatal(f, err)
				}
				if f, err := pt.Access(pm, va, buf, false); f != nil || err != nil {
					b.Fatal(f, err)
				}
			}
		})
	}
}

// mappedBytes sums the bytes t maps with leaves of one page size,
// reading the directories' used slots.
func mappedBytes(t *Table, pageSize uint64) uint64 {
	var n [3]uint64 // 4K, 2M, 1G
	for _, s3 := range t.root.slots {
		for _, s2 := range s3.next.slots {
			if s2.leaf.leaf() {
				n[2] += Size1G
				continue
			}
			for _, s1 := range s2.next.slots {
				if s1.leaf.leaf() {
					n[1] += Size2M
					continue
				}
				for _, e := range s1.next {
					if e.leaf() {
						n[0] += Size4K
					}
				}
			}
		}
	}
	switch pageSize {
	case Size4K:
		return n[0]
	case Size2M:
		return n[1]
	case Size1G:
		return n[2]
	}
	return 0
}

// checkDirs verifies every directory's bookkeeping: as many slots as
// presence bits, the per-word counts, and each slot holding exactly one
// of a leaf and a table.
func checkDirs(t *Table) error {
	return checkDir(&t.root, func(l3 *pdpt) error {
		return checkDir(l3, func(l2 *pd) error { return checkDir(l2, nil) })
	})
}

func checkDir[T any](d *dir[T], sub func(*T) error) error {
	var used uint16
	for w, word := range d.present {
		if d.below[w] != used {
			return fmt.Errorf("word %d counts %d slots below it, want %d", w, d.below[w], used)
		}
		used += uint16(bits.OnesCount64(word))
	}
	if int(used) != len(d.slots) {
		return fmt.Errorf("%d presence bits, %d slots", used, len(d.slots))
	}
	for i, s := range d.slots {
		if s.leaf.leaf() == (s.next != nil) {
			return fmt.Errorf("slot %d holds leaf=%v and a table=%v", i, s.leaf.leaf(), s.next != nil)
		}
		if s.next != nil && sub != nil {
			if err := sub(s.next); err != nil {
				return err
			}
		}
	}
	return nil
}
