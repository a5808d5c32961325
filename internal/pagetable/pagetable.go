// Package pagetable implements an x86_64-style four-level page table for
// the simulated kernels.
//
// It supports 4 KiB, 2 MiB and 1 GiB translations. The PicoDriver fast
// path (§3.4 of the paper) iterates page tables directly to discover
// physically contiguous extents behind a user buffer — including runs
// that cross page boundaries — instead of collecting per-page references
// the way the Linux driver's get_user_pages path does. WalkExtents is
// that operation.
package pagetable

import (
	"fmt"

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
	entries    = 512
	l1Shift    = 12 // PT
	l2Shift    = 21 // PD
	l3Shift    = 30 // PDPT
	l4Shift    = 39 // PML4
	indexMask  = entries - 1
	offMask4K  = Size4K - 1
	offMask2M  = Size2M - 1
	offMask1G  = Size1G - 1
	canonicalH = VirtAddr(0xffff800000000000)
)

// entry is one translation at some level. Leaf entries carry the physical
// base; interior entries point at the next level table.
type entry struct {
	leaf  bool
	pa    mem.PhysAddr
	flags Flags
	next  *table
}

type table struct {
	slots [entries]entry
}

// Table is a four-level page table (one address space).
type Table struct {
	root *table
	// mapped tracks the number of bytes currently mapped, per page size
	// (idx4K, idx2M, idx1G).
	mapped [3]uint64
}

// Indices into Table.mapped.
const (
	idx4K = iota
	idx2M
	idx1G
)

// New returns an empty page table.
func New() *Table {
	return &Table{root: &table{}}
}

// MappedBytes returns the number of mapped bytes using the given page
// size (Size4K, Size2M or Size1G).
func (t *Table) MappedBytes(pageSize uint64) uint64 {
	switch pageSize {
	case Size4K:
		return t.mapped[idx4K]
	case Size2M:
		return t.mapped[idx2M]
	case Size1G:
		return t.mapped[idx1G]
	}
	return 0
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
	if !va.Canonical() || !(va + VirtAddr(length-1)).Canonical() {
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

func (t *Table) mapOne(va VirtAddr, pa mem.PhysAddr, pgsz uint64, flags Flags) {
	l4 := &t.root.slots[idx(va, l4Shift)]
	if l4.next == nil {
		l4.next = &table{}
	}
	l3 := &l4.next.slots[idx(va, l3Shift)]
	if pgsz == Size1G {
		*l3 = entry{leaf: true, pa: pa, flags: flags}
		t.mapped[idx1G] += Size1G
		return
	}
	if l3.next == nil {
		l3.next = &table{}
	}
	l2 := &l3.next.slots[idx(va, l2Shift)]
	if pgsz == Size2M {
		*l2 = entry{leaf: true, pa: pa, flags: flags}
		t.mapped[idx2M] += Size2M
		return
	}
	if l2.next == nil {
		l2.next = &table{}
	}
	l1 := &l2.next.slots[idx(va, l1Shift)]
	*l1 = entry{leaf: true, pa: pa, flags: flags}
	t.mapped[idx4K] += Size4K
}

// firstMapped returns the lowest mapped address in [va, va+length), if
// any. It descends only into subtrees that exist: a nil interior entry
// proves its whole span is unmapped, so the scan jumps to the next
// boundary of that level in one step.
func (t *Table) firstMapped(va VirtAddr, length uint64) (bool, VirtAddr) {
	end := uint64(va) + length
	for cur := uint64(va); cur < end; {
		v := VirtAddr(cur)
		l4 := t.root.slots[idx(v, l4Shift)]
		if l4.next == nil {
			cur = nextBoundary(cur, l4Shift, end)
			continue
		}
		l3 := l4.next.slots[idx(v, l3Shift)]
		if l3.leaf {
			return true, v
		}
		if l3.next == nil {
			cur = nextBoundary(cur, l3Shift, end)
			continue
		}
		l2 := l3.next.slots[idx(v, l2Shift)]
		if l2.leaf {
			return true, v
		}
		if l2.next == nil {
			cur = nextBoundary(cur, l2Shift, end)
			continue
		}
		if l2.next.slots[idx(v, l1Shift)].leaf {
			return true, v
		}
		cur += Size4K
	}
	return false, 0
}

// nextBoundary advances cur to the next 1<<shift boundary, clamped to
// end (and guarding against wraparound at the top of the address
// space).
func nextBoundary(cur uint64, shift uint, end uint64) uint64 {
	b := (cur | (1<<shift - 1)) + 1
	if b == 0 || b > end {
		return end
	}
	return b
}

// lookup finds the leaf covering va. It returns the leaf entry, the page
// size of the translation and whether a mapping exists.
func (t *Table) lookup(va VirtAddr) (entry, uint64, bool) {
	l4 := t.root.slots[idx(va, l4Shift)]
	if l4.next == nil {
		return entry{}, 0, false
	}
	l3 := l4.next.slots[idx(va, l3Shift)]
	if l3.leaf {
		return l3, Size1G, true
	}
	if l3.next == nil {
		return entry{}, 0, false
	}
	l2 := l3.next.slots[idx(va, l2Shift)]
	if l2.leaf {
		return l2, Size2M, true
	}
	if l2.next == nil {
		return entry{}, 0, false
	}
	l1 := l2.next.slots[idx(va, l1Shift)]
	if l1.leaf {
		return l1, Size4K, true
	}
	return entry{}, 0, false
}

// Translate resolves va to a physical address and the mapping's flags.
func (t *Table) Translate(va VirtAddr) (mem.PhysAddr, Flags, bool) {
	if !va.Canonical() {
		return 0, 0, false
	}
	e, pgsz, ok := t.lookup(va)
	if !ok {
		return 0, 0, false
	}
	off := uint64(va) & (pgsz - 1)
	return e.pa + mem.PhysAddr(off), e.flags, true
}

// PageSizeAt returns the page size backing va, or 0 if unmapped.
func (t *Table) PageSizeAt(va VirtAddr) uint64 {
	_, pgsz, ok := t.lookup(va)
	if !ok {
		return 0
	}
	return pgsz
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
		e, pgsz, ok := t.lookup(cur)
		_ = e
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

func (t *Table) clearOne(va VirtAddr) uint64 {
	l4 := &t.root.slots[idx(va, l4Shift)]
	l3 := &l4.next.slots[idx(va, l3Shift)]
	if l3.leaf {
		*l3 = entry{}
		t.mapped[idx1G] -= Size1G
		return Size1G
	}
	l2 := &l3.next.slots[idx(va, l2Shift)]
	if l2.leaf {
		*l2 = entry{}
		t.mapped[idx2M] -= Size2M
		return Size2M
	}
	l1 := &l2.next.slots[idx(va, l1Shift)]
	*l1 = entry{}
	t.mapped[idx4K] -= Size4K
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
// capacity): hot callers that translate a range per memory access keep
// a scratch slice and pay no allocation once it has grown.
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
	for remaining > 0 {
		e, pgsz, ok := t.lookup(cur)
		if !ok {
			return out, fmt.Errorf("pagetable: fault at %#x", cur)
		}
		off := uint64(cur) & (pgsz - 1)
		n := pgsz - off
		if n > remaining {
			n = remaining
		}
		pa := e.pa + mem.PhysAddr(off)
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
// [va, va+len(buf)). It walks through the owner's scratch slice exactly
// like WalkExtentsInto and hands it back grown. A translation fault is
// returned as fault, apart from a physical-memory err, so that each
// address-space owner can report it in its own words.
func (t *Table) Access(pm *mem.PhysMem, scratch []mem.Extent, va VirtAddr, buf []byte, write bool) (exts []mem.Extent, fault, err error) {
	exts, fault = t.WalkExtentsInto(scratch, va, uint64(len(buf)))
	if fault != nil {
		return exts, fault, nil
	}
	for _, e := range exts {
		chunk := buf[:e.Len]
		if write {
			err = pm.WriteAt(e.Addr, chunk)
		} else {
			err = pm.ReadAt(e.Addr, chunk)
		}
		if err != nil {
			return exts, nil, err
		}
		buf = buf[e.Len:]
	}
	return exts, nil, nil
}

// Pages returns one extent per 4K page of the virtual range, in the style
// of get_user_pages: no merging across page boundaries, every entry at
// most one page long. The first and last entries may be partial when va
// or the length are unaligned.
func (t *Table) Pages(va VirtAddr, length uint64) ([]mem.Extent, error) {
	return t.PagesInto(nil, va, length)
}

// PagesInto is Pages appending into dst, reusing its capacity.
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
