package pagetable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// refLeaf is one translation of the reference table.
type refLeaf struct {
	pa    mem.PhysAddr
	size  uint64
	flags Flags
}

// refTable is the differential reference: a flat map of leaves by base
// address, with page sizes chosen by the same largest-aligned-page rule
// Map documents.
type refTable struct {
	leaves map[VirtAddr]refLeaf
	mapped map[uint64]uint64 // bytes per page size
}

func newRefTable() *refTable {
	return &refTable{leaves: make(map[VirtAddr]refLeaf), mapped: make(map[uint64]uint64)}
}

// find returns the leaf covering va.
func (r *refTable) find(va VirtAddr) (VirtAddr, refLeaf, bool) {
	for _, size := range []uint64{Size4K, Size2M, Size1G} {
		base := va &^ VirtAddr(size-1)
		if l, ok := r.leaves[base]; ok && l.size == size {
			return base, l, true
		}
	}
	return 0, refLeaf{}, false
}

func (r *refTable) mapRange(va VirtAddr, pa mem.PhysAddr, length uint64, flags Flags) bool {
	last := va + VirtAddr(length-1)
	if uint64(va)%Size4K != 0 || uint64(pa)%Size4K != 0 || length%Size4K != 0 || length == 0 ||
		!va.Canonical() || !last.Canonical() || last < va {
		return false
	}
	for base, l := range r.leaves {
		if base <= last && va <= base+VirtAddr(l.size-1) {
			return false
		}
	}
	for length > 0 {
		size := uint64(Size4K)
		for _, s := range []uint64{Size1G, Size2M} {
			if uint64(va)%s == 0 && uint64(pa)%s == 0 && length >= s {
				size = s
				break
			}
		}
		r.leaves[va] = refLeaf{pa: pa, size: size, flags: flags}
		r.mapped[size] += size
		va += VirtAddr(size)
		pa += mem.PhysAddr(size)
		length -= size
	}
	return true
}

func (r *refTable) unmap(va VirtAddr, length uint64) bool {
	if uint64(va)%Size4K != 0 || length%Size4K != 0 || length == 0 {
		return false
	}
	var bases []VirtAddr
	for off := uint64(0); off < length; {
		cur := va + VirtAddr(off)
		base, l, ok := r.find(cur)
		if !ok || base != cur || length-off < l.size {
			return false
		}
		bases = append(bases, base)
		off += l.size
	}
	for _, b := range bases {
		r.mapped[r.leaves[b].size] -= r.leaves[b].size
		delete(r.leaves, b)
	}
	return true
}

// walk translates [va, va+length) page by page (pages) or into merged
// physical extents, in the shapes Pages and WalkExtents return. On a
// fault it returns the extents of the translated prefix.
func (r *refTable) walk(va VirtAddr, length uint64, pages bool) ([]mem.Extent, bool) {
	var out []mem.Extent
	for cur, rem := va, length; rem > 0; {
		base, l, ok := r.find(cur)
		if !ok {
			return out, false
		}
		off := uint64(cur - base)
		n := min(l.size-off, rem)
		if pages {
			n = min(Size4K-uint64(cur)%Size4K, rem)
		}
		pa := l.pa + mem.PhysAddr(off)
		if !pages && len(out) > 0 && out[len(out)-1].End() == pa {
			out[len(out)-1].Len += n
		} else {
			out = append(out, mem.Extent{Addr: pa, Len: n})
		}
		cur += VirtAddr(n)
		rem -= n
	}
	return out, true
}

// ptProgram reads an op program byte by byte; past its end it yields
// zeros and sets done.
type ptProgram struct {
	data []byte
	done bool
}

func (p *ptProgram) u8() int {
	if len(p.data) == 0 {
		p.done = true
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b)
}

func (p *ptProgram) u16() int { return p.u8() | p.u8()<<8 }
func (p *ptProgram) u24() int { return p.u16() | p.u8()<<16 }

// Address windows the programs work in: the low half, the last 4 GiB
// below the canonical hole, the first 4 GiB above it (which the hole's
// non-canonical addresses would alias) and the last 64 KiB of the
// address space, where a range can end exactly at 2^64 or wrap past it.
var ptWindows = []struct {
	base VirtAddr
	span uint64
}{
	{0x40000000, 4 << 30},
	{0x00007fff00000000, 4 << 30},
	{0xffff800000000000, 4 << 30},
	{0xfffffffffff00000, 1 << 20},
}

// maxRefLeaves bounds the reference table; Map calls beyond it are
// skipped until Unmaps make room.
const maxRefLeaves = 4096

type vaRange struct {
	va     VirtAddr
	length uint64
}

// physSpan is the physical memory behind the programs' Access calls: it
// covers every pa a Map op can choose.
const physSpan = 260 << 30

// pageName names a leaf size in accessCover's keys.
var pageName = map[uint64]string{Size4K: "4K", Size2M: "2M", Size1G: "1G"}

// runPageTableOps interprets prog as Map, Unmap, Translate, lookup,
// WalkExtentsInto, PagesInto and Access calls over 4K, 2M and 1G pages,
// and remaps of one span from a smaller page to a larger one,
// and checks every result, error or success, against refTable and, for
// Access, a reference byte store keyed by physical address. It returns
// how often an Access crossed out of its first leaf, by the sizes of
// the leaves on either side ("4K→2M", "2M→unmapped", ...).
func runPageTableOps(t testing.TB, prog []byte) (accessCover map[string]int) {
	tbl, ref := New(), newRefTable()
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: physSpan, Kind: mem.DDR4})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := make(map[mem.PhysAddr]byte) // absent: never written, reads as zero
	accessCover = make(map[string]int)
	p := &ptProgram{data: prog}
	var scratch []mem.Extent
	// mapped lists the ranges of successful Maps, some since unmapped:
	// probes aim inside them.
	var mapped []vaRange

	// pick returns a page-aligned address in a window, aligned to unit
	// when the window allows it.
	pick := func(unit uint64) VirtAddr {
		w := ptWindows[p.u8()%len(ptWindows)]
		units := max(w.span/unit, 1)
		return w.base + VirtAddr(uint64(p.u24())%units*unit)
	}
	// probe returns an address inside a range mapped earlier or, an
	// eighth of the time, anywhere in a window.
	probe := func() VirtAddr {
		if len(mapped) == 0 || p.u8() < 32 {
			return pick(Size4K) + VirtAddr(p.u16()%Size4K)
		}
		r := mapped[p.u16()%len(mapped)]
		off := uint64(p.u24()) << (p.u8() % 19)
		return r.va + VirtAddr(off%r.length)
	}
	units := []uint64{Size4K, Size2M, Size1G}
	// accessRange returns a range of up to three pages that, most of the
	// time, starts in a leaf and ends exactly at its end or runs past it:
	// by one byte or by anything up to all but one. A quarter of the
	// leaves it starts in open a mapped range, where a large-page map
	// keeps its head of smaller pages.
	accessRange := func() (VirtAddr, uint64) {
		length := uint64(2 + p.u16()%(3*Size4K))
		at := probe()
		if len(mapped) > 0 && p.u8() < 64 {
			at = mapped[p.u16()%len(mapped)].va + VirtAddr(p.u16()%(2*Size4K))
		}
		base, l, ok := ref.find(at)
		if !ok || p.u8() < 32 {
			return at, length
		}
		var back uint64 // bytes before the leaf's end
		switch p.u8() % 4 {
		case 0:
			back = length - 1
		case 1:
			back = length
		default:
			back = 1 + uint64(p.u16())%(length-1)
		}
		back = min(back, l.size)
		return base + VirtAddr(l.size-back), length
	}

	// translate checks Translate and lookup's page size at va against
	// the reference.
	translate := func(step int, va VirtAddr) {
		base, l, want := ref.find(va)
		pa, flags, ok := tbl.Translate(va)
		if ok != want || (ok && (pa != l.pa+mem.PhysAddr(va-base) || flags != l.flags)) {
			t.Fatalf("step %d: Translate(%#x) = %#x/%#x/%v, reference %#x/%#x/%v",
				step, va, pa, flags, ok, l.pa+mem.PhysAddr(va-base), l.flags, want)
		}
		if _, got, ok := tbl.lookup(va); ok && got != l.size {
			t.Fatalf("step %d: page size at %#x = %d, reference %d", step, va, got, l.size)
		}
	}
	// touched translates across a range a Map or Unmap just worked on,
	// whether it succeeded or not: its ends and evenly spaced addresses
	// between them. A lookup cache that outlives a change to the table
	// answers one of them from before the change.
	touched := func(step int, va VirtAddr, length uint64) {
		const probes = 16
		for i := range uint64(probes) {
			translate(step, va+VirtAddr(length/probes*i))
		}
		translate(step, va+VirtAddr(length-1))
	}

	for step := 0; !p.done; step++ {
		switch op := p.u8() % 8; op {
		case 0: // Map
			unit := units[p.u8()%len(units)]
			va := pick(unit)
			if len(mapped) > 0 && p.u8()%4 == 0 {
				// Right after an earlier map: the leaves meet with a
				// physical discontinuity between them.
				r := mapped[p.u16()%len(mapped)]
				va = (r.va + VirtAddr(r.length) + VirtAddr(unit-1)) &^ VirtAddr(unit-1)
			}
			pa := mem.PhysAddr(uint64(p.u8()) * unit)
			length := uint64(1+p.u8()%20) * Size4K
			if unit > Size4K {
				// Large pages with a head and a tail of next-smaller
				// ones, or one large page's worth at a pa misaligned so
				// that Map must fall back to the smaller size (512
				// leaves).
				smaller := unit >> 9
				length = uint64(1+p.u8()%3)*unit + uint64(p.u8()%3)*smaller
				if head := uint64(p.u8()%3) * smaller; uint64(pa) >= head {
					va -= VirtAddr(head)
					pa -= mem.PhysAddr(head)
					length += head
				}
				if p.u8()%4 == 0 {
					pa += mem.PhysAddr(smaller)
					length = unit
				}
			}
			flags := Flags(p.u8())
			if len(ref.leaves) > maxRefLeaves {
				continue // keep the reference's linear overlap scan cheap
			}
			want := ref.mapRange(va, pa, length, flags)
			if err := tbl.Map(va, pa, length, flags); (err == nil) != want {
				t.Fatalf("step %d: Map(%#x, %#x, %#x) = %v, reference ok=%v", step, va, pa, length, err, want)
			}
			if want {
				mapped = append(mapped, vaRange{va, length})
			}
			touched(step, va, length)
		case 1: // Unmap
			var va VirtAddr
			var length uint64
			if base, l, ok := ref.find(probe()); ok && p.u8() < 192 {
				va, length = base, l.size
				if p.u8()%4 == 0 {
					length += Size4K
				}
			} else {
				va, length = pick(Size4K), uint64(1+p.u8()%8)*Size4K
			}
			want := ref.unmap(va, length)
			if err := tbl.Unmap(va, length); (err == nil) != want {
				t.Fatalf("step %d: Unmap(%#x, %#x) = %v, reference ok=%v", step, va, length, err, want)
			}
			touched(step, va, length)
		case 2: // Translate, lookup's page size
			va := probe()
			if p.u8()%8 == 0 {
				va ^= 1 << 47 // the non-canonical twin of a canonical address
			}
			translate(step, va)
		case 3, 4: // WalkExtentsInto, PagesInto
			pages := op == 4
			va := probe()
			length := uint64(1 + p.u24())
			if !pages && p.u8()%4 == 0 {
				length <<= 12 // up to 64 GiB: a walk through many large pages
			}
			want, ok := ref.walk(va, length, pages)
			// A prefix extent physically adjacent to the walk's first
			// extent must not merge with it.
			prefix := mem.Extent{Addr: 0x100000, Len: Size4K}
			if ok && len(want) > 0 && want[0].Addr >= Size4K {
				prefix = mem.Extent{Addr: want[0].Addr - Size4K, Len: Size4K}
			}
			var got []mem.Extent
			var err error
			if pages {
				got, err = tbl.PagesInto(append(scratch[:0], prefix), va, length)
			} else {
				got, err = tbl.WalkExtentsInto(append(scratch[:0], prefix), va, length)
			}
			scratch = got
			if (err == nil) != ok {
				t.Fatalf("step %d: walk(%#x, %#x, pages=%v) = %v, reference ok=%v", step, va, length, pages, err, ok)
			}
			if ok && (got[0] != prefix || !slices.Equal(got[1:], want)) {
				t.Fatalf("step %d: walk(%#x, %#x, pages=%v) = %v, reference %v", step, va, length, pages, got[1:], want)
			}
		case 5: // the top page, mapped or probed in place
			const top = VirtAddr(0xfffffffffffff000)
			pa := mem.PhysAddr(uint64(1+p.u8()) * Size4K)
			want := ref.mapRange(top, pa, Size4K, 0)
			if err := tbl.Map(top, pa, Size4K, 0); (err == nil) != want {
				t.Fatalf("step %d: Map(top, %#x) = %v, reference ok=%v", step, pa, err, want)
			}
			touched(step, top, Size4K)
		case 7: // a smaller page looked up, unmapped and replaced by a larger one
			unit := units[1+p.u8()%2]
			va, small := pick(unit), unit>>9
			pa := mem.PhysAddr(uint64(p.u8()) * unit)
			if len(ref.leaves) > maxRefLeaves || !ref.mapRange(va, pa, small, 0) {
				continue
			}
			if err := tbl.Map(va, pa, small, 0); err != nil {
				t.Fatalf("step %d: Map(%#x, %#x, %#x) = %v, reference ok", step, va, pa, small, err)
			}
			translate(step, va) // caches the table the larger page replaces
			ref.unmap(va, small)
			if err := tbl.Unmap(va, small); err != nil {
				t.Fatalf("step %d: Unmap(%#x, %#x) = %v, reference ok", step, va, small, err)
			}
			touched(step, va, unit)
			want := ref.mapRange(va, pa, unit, 0)
			if err := tbl.Map(va, pa, unit, 0); (err == nil) != want {
				t.Fatalf("step %d: Map(%#x, %#x, %#x) = %v, reference ok=%v", step, va, pa, unit, err, want)
			}
			if want {
				mapped = append(mapped, vaRange{va, unit})
			}
			touched(step, va, unit)
		case 6: // Access
			va, length := accessRange()
			write := p.u8()%2 == 0
			if base, l, ok := ref.find(va); ok && uint64(va-base)+length > l.size {
				next := "unmapped"
				if _, nl, ok := ref.find(base + VirtAddr(l.size)); ok {
					next = pageName[nl.size]
				}
				accessCover[pageName[l.size]+"→"+next]++
			}
			exts, ok := ref.walk(va, length, false)
			buf := make([]byte, length)
			for i := range buf {
				buf[i] = byte(step + 13*i + 1)
			}
			orig := bytes.Clone(buf)
			fault, err := tbl.Access(pm, va, buf, write)
			if err != nil || (fault == nil) != ok {
				t.Fatalf("step %d: Access(%#x, %#x, write=%v) = %v/%v, reference ok=%v", step, va, length, write, fault, err, ok)
			}
			if !ok && !bytes.Equal(buf, orig) {
				t.Fatalf("step %d: faulting Access(%#x, %#x, write=%v) changed the buffer", step, va, length, write)
			}
			if ok && write {
				// In range order, so the last of two virtual aliases of
				// one byte wins, as it does in memory.
				i := 0
				for _, x := range exts {
					for j := range x.Len {
						refBytes[x.Addr+mem.PhysAddr(j)] = buf[i]
						i++
					}
				}
			}
			// Every byte the range translates (its prefix, on a fault)
			// holds the reference's value, and a read returned it.
			i := 0
			for _, x := range exts {
				got := make([]byte, x.Len)
				if err := pm.ReadAt(x.Addr, got); err != nil {
					t.Fatal(err)
				}
				for j, b := range got {
					pa := x.Addr + mem.PhysAddr(j)
					if b != refBytes[pa] {
						t.Fatalf("step %d: Access(%#x, %#x, write=%v, fault=%v): pa %#x holds %#x, reference %#x",
							step, va, length, write, fault, pa, b, refBytes[pa])
					}
					if ok && !write && buf[i] != b {
						t.Fatalf("step %d: Access(%#x, %#x) read %#x at offset %d, memory holds %#x", step, va, length, buf[i], i, b)
					}
					i++
				}
			}
		}
		for _, size := range units {
			if got, want := mappedBytes(tbl, size), ref.mapped[size]; got != want {
				t.Fatalf("step %d: mapped bytes of size %d = %d, reference %d", step, size, got, want)
			}
		}
		if err := checkDirs(tbl); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for base, l := range ref.leaves {
		for _, va := range []VirtAddr{base, base + VirtAddr(l.size-1)} {
			if pa, _, ok := tbl.Translate(va); !ok || pa != l.pa+mem.PhysAddr(va-base) {
				t.Fatalf("end: Translate(%#x) = %#x/%v, reference %#x", va, pa, ok, l.pa+mem.PhysAddr(va-base))
			}
		}
	}
	return accessCover
}

// pageTableOpSeeds generates the differential test's programs, which are
// also the fuzz target's corpus.
func pageTableOpSeeds() [][]byte {
	var progs [][]byte
	for seed := int64(1); seed <= 8; seed++ {
		prog := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(prog)
		progs = append(progs, prog)
	}
	return progs
}

// TestPageTableDifferential runs the seed programs. Between them their
// Access calls must cross each kind of leaf boundary that the copy
// loop has to get right.
func TestPageTableDifferential(t *testing.T) {
	cover := make(map[string]int)
	for i, prog := range pageTableOpSeeds() {
		t.Run(fmt.Sprintf("seed%d", i+1), func(t *testing.T) {
			for k, n := range runPageTableOps(t, prog) {
				cover[k] += n
			}
		})
	}
	t.Logf("Access crossings: %v", cover)
	for _, k := range []string{"4K→4K", "4K→2M", "2M→4K", "4K→unmapped", "2M→unmapped"} {
		if cover[k] == 0 {
			t.Errorf("no seed program's Access crosses %s", k)
		}
	}
}

func FuzzPageTableOps(f *testing.F) {
	for _, prog := range pageTableOpSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runPageTableOps(t, prog) })
}
