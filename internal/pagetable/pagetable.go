// Package pagetable implements an x86_64-style four-level page table for
// the simulated kernels.
//
// It supports 4 KiB, 2 MiB and 1 GiB translations. The PicoDriver fast
// path (§3.4 of the paper) iterates page tables directly to discover
// physically contiguous extents behind a user buffer — including runs
// that cross page boundaries — instead of collecting per-page references
// the way the Linux driver's get_user_pages path does. WalkExtents is
// that operation.
//
// Only the last level is a dense array: a PT is 512 packed entries, 4 KB
// with no pointers. The three directory levels above it (PML4, PDPT,
// PD) store just the slots in use, in index order, behind a 512-bit
// presence map; a slot is found with one popcount. A table that maps a
// few regions therefore costs a few hundred bytes of directories rather
// than 8 KB per directory. Lookups go through a small cache of the last
// large leaf and of tables recent lookups passed, so they seldom descend
// from the root, and walks step from a 2M leaf to the next slot of its
// PD.
package pagetable

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// VirtAddr is a virtual address. Addresses must be canonical for 48-bit
// addressing: bits 63..48 equal bit 47.
type VirtAddr uint64

// Canonical reports whether the address is canonical under 48-bit mode.
func (v VirtAddr) Canonical() bool {
	top := uint64(v) >> 47
	return top == 0 || top == 0x1ffff
}

// Flags control a mapping's attributes.
type Flags uint8

const (
	// Writable allows stores through the mapping.
	Writable Flags = 1 << iota
	// User marks a user-accessible mapping.
	User
	// Device marks an MMIO mapping (never byte-backed).
	Device
)

// Page sizes supported by the table.
const (
	Size4K = 4 << 10
	Size2M = 2 << 20
	Size1G = 1 << 30
)

const (
	entries     = 512
	l1Shift     = 12 // PT
	l2Shift     = 21 // PD
	l3Shift     = 30 // PDPT
	l4Shift     = 39 // PML4
	indexMask   = entries - 1
	offMask4K   = Size4K - 1
	offMask2M   = Size2M - 1
	offMask1G   = Size1G - 1
	offMask512G = 1<<l4Shift - 1
	canonicalH  = VirtAddr(0xffff800000000000)
)

// pte is one leaf translation packed into a word the way x86 stores it:
// the page's 4K-aligned physical address in bits 12–63, the Flags in
// bits 1–8 (Writable and User land on x86's R/W and U/S bits) and the
// leaf bit, x86's present bit, in bit 0. The zero pte maps nothing.
type pte uint64

const (
	pteLeaf      pte = 1
	pteFlagShift     = 1
	pteAddrMask      = ^pte(offMask4K)
)

func leafPTE(pa mem.PhysAddr, flags Flags) pte {
	return pte(pa) | pte(flags)<<pteFlagShift | pteLeaf
}

func (e pte) leaf() bool   { return e&pteLeaf != 0 }
func (e pte) flags() Flags { return Flags(e >> pteFlagShift) }

// at returns the physical address off bytes into the page.
func (e pte) at(off uint64) mem.PhysAddr { return mem.PhysAddr(e&pteAddrMask) + mem.PhysAddr(off) }

// pt is a last-level table: 512 packed entries and no pointers (4 KB,
// never scanned by the garbage collector).
type pt [entries]pte

// dir is a directory level that stores only the slots in use. present
// has bit i set when slot i is used; slots holds the used slots in index
// order, so slot i sits at below[i/64] plus the set bits of its word
// under i. A directory is allocated with room for dirInline slots, which
// is all most directories ever use.
type dir[T any] struct {
	present [entries / 64]uint64
	below   [entries / 64]uint16 `snap:"-"` // used slots in the words before each word
	slots   []slot[T]
	inline  [dirInline]slot[T] `snap:"-"` // the first slots' storage
}

// slot holds either a large-page leaf or the table below, never both.
type slot[T any] struct {
	leaf pte
	next *T
}

// dirInline is how many slots a directory holds before its slots move
// to their own array, which then grows fourfold up to all 512.
const dirInline = 8

// pd and pdpt are the upper-level directories; the PML4 is a
// dir[pdpt] whose slots never hold leaves.
type (
	pd   = dir[pt]
	pdpt = dir[pd]
)

// rank returns where slot i is or would go in d.slots, and whether it
// is in use.
func (d *dir[T]) rank(i int) (int, bool) {
	w, bit := i>>6, uint64(1)<<(i&63)
	return int(d.below[w]) + bits.OnesCount64(d.present[w]&(bit-1)), d.present[w]&bit != 0
}

// get returns slot i, or nil when it is not in use.
func (d *dir[T]) get(i int) *slot[T] {
	if r, ok := d.rank(i); ok {
		return &d.slots[r]
	}
	return nil
}

// used reports whether slot i is in use.
func (d *dir[T]) used(i int) bool { return d.present[i>>6]&(1<<(i&63)) != 0 }

// insert adds slot i, which must not be in use, as an empty slot and
// returns it.
func (d *dir[T]) insert(i int) *slot[T] {
	r, _ := d.rank(i)
	switch {
	case d.slots == nil:
		d.slots = d.inline[:0]
	case len(d.slots) == cap(d.slots):
		d.slots = slices.Grow(d.slots, min(3*cap(d.slots), entries-cap(d.slots)))
		clear(d.inline[:]) // no second reference to the tables below
	}
	d.slots = slices.Insert(d.slots, r, slot[T]{})
	d.present[i>>6] |= 1 << (i & 63)
	for w := i>>6 + 1; w < len(d.below); w++ {
		d.below[w]++
	}
	return &d.slots[r]
}

// remove drops slot i, which must be in use.
func (d *dir[T]) remove(i int) {
	r, _ := d.rank(i)
	d.slots = slices.Delete(d.slots, r, r+1)
	d.present[i>>6] &^= 1 << (i & 63)
	for w := i>>6 + 1; w < len(d.below); w++ {
		d.below[w]--
	}
}

// lookupCache is the cache lookups go through. It holds the last large
// leaf a lookup returned, and tables lookups went through, each with the
// base of the span it covers: the last PDPT (512 GiB) and PD (1 GiB),
// and the last PT (2 MiB) in each of ptWays ways, chosen by the number
// of the 2 MiB span, so that code moving between a few buffers keeps
// each one's PT. A lookup inside a cached span starts there instead of
// at the root, and a map or clear of a 4K leaf in a cached PT writes it
// in place. Only those leaf writes leave it standing: it caches no 4K
// translation, and they change no directory. Every other map and clear
// empties it.
type lookupCache struct {
	leaf     pte      // covers [leafBase, leafBase+leafSize)
	leafBase VirtAddr // when leafSize is not 0
	leafSize uint64
	leafRank int // a 2M leaf's rank in l2, its PD, for walks to step on

	l3base, l2base VirtAddr
	l3             *pdpt
	l2             *pd
	pts            [ptWays]cachedPT
}

// cachedPT is a PT and the base of the 2 MiB span it covers.
type cachedPT struct {
	base VirtAddr
	t    *pt
}

const ptWays = 8

// ptWay returns the way that caches the PT covering va, if any PT does.
func (c *lookupCache) ptWay(va VirtAddr) *cachedPT {
	return &c.pts[uint64(va)>>l2Shift%ptWays]
}

// ptFor returns the cached PT covering va, or nil.
func (c *lookupCache) ptFor(va VirtAddr) *pt {
	if w := c.ptWay(va); w.base == va&^offMask2M {
		return w.t
	}
	return nil
}

// Table is a four-level page table (one address space). Lookups update
// its cache, so even reads must not run concurrently.
type Table struct {
	root dir[pdpt]   // the PML4: no leaves at this level
	last lookupCache `snap:"-"`
}

// New returns an empty page table.
func New() *Table {
	return &Table{}
}

func idx(v VirtAddr, shift uint) int { return int(uint64(v)>>shift) & indexMask }

// Map establishes a translation of length bytes from va to pa using the
// largest page sizes permitted by alignment. va, pa and length must be
// 4K-aligned; the range must not overlap an existing mapping.
func (t *Table) Map(va VirtAddr, pa mem.PhysAddr, length uint64, flags Flags) error {
	if uint64(va)%Size4K != 0 || uint64(pa)%Size4K != 0 || length%Size4K != 0 {
		return fmt.Errorf("pagetable: unaligned map va=%#x pa=%#x len=%#x", va, pa, length)
	}
	if length == 0 {
		return fmt.Errorf("pagetable: zero-length map")
	}
	if last := va + VirtAddr(length-1); !va.Canonical() || !last.Canonical() || last < va {
		return fmt.Errorf("pagetable: non-canonical range at %#x", va)
	}
	// Reject overlap first so failed maps leave no partial state. The
	// walk skips empty subtrees whole (512 GiB / 1 GiB / 2 MiB at a
	// step) instead of probing every 4 KiB, so mapping into untouched
	// address space costs a handful of slot reads however large the
	// range is.
	if hit, addr := t.firstMapped(va, length); hit {
		return fmt.Errorf("pagetable: overlap at %#x", addr)
	}
	for length > 0 {
		var pgsz uint64
		switch {
		case uint64(va)%Size1G == 0 && uint64(pa)%Size1G == 0 && length >= Size1G:
			pgsz = Size1G
		case uint64(va)%Size2M == 0 && uint64(pa)%Size2M == 0 && length >= Size2M:
			pgsz = Size2M
		default:
			pgsz = Size4K
		}
		t.mapOne(va, pa, pgsz, flags)
		va += VirtAddr(pgsz)
		pa += mem.PhysAddr(pgsz)
		length -= pgsz
	}
	return nil
}

// MapExtents maps the extents consecutively starting at va. Each extent
// must be 4K-aligned in address and length. It returns the first error
// without unmapping earlier extents (callers unmap the whole range on
// failure, as the kernels do).
func (t *Table) MapExtents(va VirtAddr, exts []mem.Extent, flags Flags) error {
	for _, e := range exts {
		if err := t.Map(va, e.Addr, e.Len, flags); err != nil {
			return err
		}
		va += VirtAddr(e.Len)
	}
	return nil
}

// mapOne installs one leaf. A large page replaces the (empty, as Map's
// overlap check proved) table below its slot.
func (t *Table) mapOne(va VirtAddr, pa mem.PhysAddr, pgsz uint64, flags Flags) {
	e := leafPTE(pa, flags)
	c := &t.last
	if l1 := c.ptFor(va); pgsz == Size4K && l1 != nil {
		l1[idx(va, l1Shift)] = e
		return
	}
	*c = lookupCache{}
	s3 := t.root.get(idx(va, l4Shift))
	if s3 == nil {
		s3 = t.root.insert(idx(va, l4Shift))
		s3.next = new(pdpt)
	}
	l3, i3 := s3.next, idx(va, l3Shift)
	s2 := l3.get(i3)
	if s2 == nil {
		s2 = l3.insert(i3)
	}
	if pgsz == Size1G {
		s2.leaf, s2.next = e, nil
		return
	}
	if s2.next == nil {
		s2.next = new(pd)
	}
	l2, i2 := s2.next, idx(va, l2Shift)
	s1 := l2.get(i2)
	if s1 == nil {
		s1 = l2.insert(i2)
	}
	if pgsz == Size2M {
		s1.leaf, s1.next = e, nil
		return
	}
	if s1.next == nil {
		s1.next = new(pt)
	}
	s1.next[idx(va, l1Shift)] = e
}

// firstMapped returns the lowest mapped address in [va, va+length), if
// any. Each lookup that misses proves a whole span unmapped (up to
// 512 GiB where no PDPT exists), so the scan jumps to the end of that
// span in one step. The range may end at the top of the address space,
// so it is bounded by its last byte, not its end.
func (t *Table) firstMapped(va VirtAddr, length uint64) (bool, VirtAddr) {
	last := uint64(va) + length - 1
	for cur, more := uint64(va), true; more; {
		_, span, ok := t.lookup(VirtAddr(cur))
		if ok {
			return true, VirtAddr(cur)
		}
		cur, more = nextBoundary(cur, span, last)
	}
	return false, 0
}

// nextBoundary returns the next span-aligned boundary above cur and
// whether it still lies at or below last. Past the top of the address
// space the boundary wraps to 0, which ends the range too.
func nextBoundary(cur, span, last uint64) (uint64, bool) {
	b := (cur | (span - 1)) + 1
	return b, b != 0 && b <= last
}

// lookup finds the leaf covering va. It returns the leaf entry, the page
// size of the translation and whether a mapping exists; when none does,
// the size is that of the aligned span around va that it proved
// unmapped: 4 KiB, 2 MiB, 1 GiB or 512 GiB. It starts from the deepest
// cached table that covers va.
func (t *Table) lookup(va VirtAddr) (pte, uint64, bool) {
	c := &t.last
	if c.leafSize != 0 && va&^VirtAddr(c.leafSize-1) == c.leafBase {
		return c.leaf, c.leafSize, true
	}
	if l1 := c.ptFor(va); l1 != nil {
		e := l1[idx(va, l1Shift)]
		return e, Size4K, e.leaf()
	}
	if c.l2 != nil && va&^offMask1G == c.l2base {
		return c.inPD(va)
	}
	return t.descend(va)
}

// descend is lookup below the cached tables: from the cached PDPT, or
// from the root. A non-canonical address maps nothing: its index bits
// would alias the other half. A cached span holds only canonical
// addresses, so the canonical check waits until here.
func (t *Table) descend(va VirtAddr) (pte, uint64, bool) {
	c := &t.last
	if c.l3 == nil || va&^offMask512G != c.l3base {
		if !va.Canonical() {
			return 0, 1 << l4Shift, false
		}
		s3 := t.root.get(idx(va, l4Shift))
		if s3 == nil {
			return 0, 1 << l4Shift, false
		}
		c.l3, c.l3base = s3.next, va&^offMask512G
	}
	s2 := c.l3.get(idx(va, l3Shift))
	if s2 == nil {
		return 0, Size1G, false
	}
	if s2.leaf.leaf() {
		c.leaf, c.leafBase, c.leafSize = s2.leaf, va&^offMask1G, Size1G
		return s2.leaf, Size1G, true
	}
	if c.leafSize == Size2M {
		c.leafSize = 0 // its rank is in the PD being replaced
	}
	c.l2, c.l2base = s2.next, va&^offMask1G
	return c.inPD(va)
}

// inPD is lookup in the cached PD, which covers va.
func (c *lookupCache) inPD(va VirtAddr) (pte, uint64, bool) {
	r, ok := c.l2.rank(idx(va, l2Shift))
	if !ok {
		return 0, Size2M, false
	}
	s1 := &c.l2.slots[r]
	if s1.leaf.leaf() {
		c.leaf, c.leafBase, c.leafSize, c.leafRank = s1.leaf, va&^offMask2M, Size2M, r
		return s1.leaf, Size2M, true
	}
	*c.ptWay(va) = cachedPT{va &^ offMask2M, s1.next}
	e := s1.next[idx(va, l1Shift)]
	return e, Size4K, e.leaf()
}

// Translate resolves va to a physical address and the mapping's flags.
func (t *Table) Translate(va VirtAddr) (mem.PhysAddr, Flags, bool) {
	e, pgsz, ok := t.lookup(va)
	if !ok {
		return 0, 0, false
	}
	return e.at(uint64(va) & (pgsz - 1)), e.flags(), true
}

// Unmap removes translations covering [va, va+length). It is an error if
// the range is not fully mapped or if it would split a large page.
func (t *Table) Unmap(va VirtAddr, length uint64) error {
	if uint64(va)%Size4K != 0 || length%Size4K != 0 || length == 0 {
		return fmt.Errorf("pagetable: unaligned unmap va=%#x len=%#x", va, length)
	}
	// First pass: verify the range is an exact union of leaves.
	for off := uint64(0); off < length; {
		cur := va + VirtAddr(off)
		_, pgsz, ok := t.lookup(cur)
		if !ok {
			return fmt.Errorf("pagetable: unmap of unmapped address %#x", cur)
		}
		if uint64(cur)%pgsz != 0 || length-off < pgsz {
			return fmt.Errorf("pagetable: unmap would split a %d-byte page at %#x", pgsz, cur)
		}
		off += pgsz
	}
	for off := uint64(0); off < length; {
		cur := va + VirtAddr(off)
		pgsz := t.clearOne(cur)
		off += pgsz
	}
	return nil
}

// clearOne removes the leaf at va, which Unmap proved exists, and
// returns its size. A large leaf's directory slot is freed; a 4K leaf's
// PT stays in place.
func (t *Table) clearOne(va VirtAddr) uint64 {
	c := &t.last
	if l1 := c.ptFor(va); l1 != nil {
		l1[idx(va, l1Shift)] = 0
		return Size4K
	}
	*c = lookupCache{}
	l3, i3 := t.root.get(idx(va, l4Shift)).next, idx(va, l3Shift)
	s2 := l3.get(i3)
	if s2.leaf.leaf() {
		l3.remove(i3)
		return Size1G
	}
	l2, i2 := s2.next, idx(va, l2Shift)
	s1 := l2.get(i2)
	if s1.leaf.leaf() {
		l2.remove(i2)
		return Size2M
	}
	s1.next[idx(va, l1Shift)] = 0
	return Size4K
}

// WalkExtents translates the (not necessarily aligned) virtual range
// [va, va+length) into physical extents, merging extents that are
// physically contiguous even across page boundaries. This is the
// PicoDriver fast-path primitive: page tables are iterated directly,
// so large pages and contiguous runs surface naturally.
func (t *Table) WalkExtents(va VirtAddr, length uint64) ([]mem.Extent, error) {
	return t.WalkExtentsInto(nil, va, length)
}

// WalkExtentsInto is WalkExtents appending into dst (reusing its
// capacity): a hot caller, such as the fast path's SDMA request
// builder, keeps a scratch slice and pays no allocation once it has
// grown.
func (t *Table) WalkExtentsInto(dst []mem.Extent, va VirtAddr, length uint64) ([]mem.Extent, error) {
	if length == 0 {
		return dst, nil
	}
	out := dst
	// Merge only within this walk: extents already in dst belong to a
	// different virtual range and must keep their own boundaries even
	// when physically adjacent.
	base := len(dst)
	remaining := length
	cur := va
	// After a 2M leaf the walk steps to the next slot of the leaf's PD,
	// the cached one, rather than look the next leaf up: slot i follows
	// slot i-1 in the PD's array when it is in use. step says the last
	// leaf was a 2M leaf, rank its place in that array.
	step, rank := false, 0
	for remaining > 0 {
		var e pte
		var pgsz uint64
		if i := idx(cur, l2Shift); step && i != 0 && t.last.l2.used(i) && t.last.l2.slots[rank+1].leaf.leaf() {
			rank++
			e, pgsz = t.last.l2.slots[rank].leaf, Size2M
		} else {
			var ok bool
			if e, pgsz, ok = t.lookup(cur); !ok {
				return out, fmt.Errorf("pagetable: fault at %#x", cur)
			}
			step, rank = pgsz == Size2M, t.last.leafRank
		}
		off := uint64(cur) & (pgsz - 1)
		n := pgsz - off
		if n > remaining {
			n = remaining
		}
		pa := e.at(off)
		if len(out) > base && out[len(out)-1].End() == pa {
			out[len(out)-1].Len += n
		} else {
			out = append(out, mem.Extent{Addr: pa, Len: n})
		}
		cur += VirtAddr(n)
		remaining -= n
	}
	return out, nil
}

// Access copies buf into (write) or out of the physical memory behind
// [va, va+len(buf)), leaf by leaf. Every leaf the range touches is
// translated before the first byte moves, so an access that faults
// changes nothing: neither memory nor buf. The fault is returned as
// fault, apart from a physical-memory err, so that each address-space
// owner can report it in its own words. An access inside one leaf (a
// word, anything within a page) costs one lookup.
func (t *Table) Access(pm *mem.PhysMem, va VirtAddr, buf []byte, write bool) (fault, err error) {
	if len(buf) == 0 {
		return nil, nil
	}
	e, pgsz, ok := t.lookup(va)
	if !ok {
		return fmt.Errorf("pagetable: fault at %#x", va), nil
	}
	off := uint64(va) & (pgsz - 1)
	for done := pgsz - off; done < uint64(len(buf)); {
		cur := va + VirtAddr(done)
		_, size, ok := t.lookup(cur)
		if !ok {
			return fmt.Errorf("pagetable: fault at %#x", cur), nil
		}
		done += size - uint64(cur)&(size-1)
	}
	for {
		n := min(pgsz-off, uint64(len(buf)))
		if write {
			err = pm.WriteAt(e.at(off), buf[:n])
		} else {
			err = pm.ReadAt(e.at(off), buf[:n])
		}
		if err != nil || n == uint64(len(buf)) {
			return nil, err
		}
		buf = buf[n:]
		va += VirtAddr(n)
		e, pgsz, _ = t.lookup(va)
		off = uint64(va) & (pgsz - 1)
	}
}

// PagesInto appends one extent per 4K page of the virtual range to dst,
// in the style of get_user_pages: no merging across page boundaries,
// every entry at most one page long. The first and last entries may be
// partial when va or the length are unaligned.
func (t *Table) PagesInto(dst []mem.Extent, va VirtAddr, length uint64) ([]mem.Extent, error) {
	out := dst
	if length == 0 {
		return out, nil
	}
	remaining := length
	cur := va
	for remaining > 0 {
		pa, _, ok := t.Translate(cur)
		if !ok {
			return out, fmt.Errorf("pagetable: fault at %#x", cur)
		}
		inPage := uint64(cur) & offMask4K
		n := uint64(Size4K) - inPage
		if n > remaining {
			n = remaining
		}
		out = append(out, mem.Extent{Addr: pa, Len: n})
		cur += VirtAddr(n)
		remaining -= n
	}
	return out, nil
}
