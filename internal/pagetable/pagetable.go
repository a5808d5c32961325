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

// pd and pdpt are the upper-level directories. A slot holds either a
// large-page leaf in ptes or the table below it in next, never both.
type pd struct {
	ptes [entries]pte
	next [entries]*pt
}

type pdpt struct {
	ptes [entries]pte
	next [entries]*pd
}

// Table is a four-level page table (one address space).
type Table struct {
	root [entries]*pdpt // the PML4: no leaves at this level
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
	i4, i3, i2 := idx(va, l4Shift), idx(va, l3Shift), idx(va, l2Shift)
	l3 := t.root[i4]
	if l3 == nil {
		l3 = new(pdpt)
		t.root[i4] = l3
	}
	if pgsz == Size1G {
		l3.ptes[i3], l3.next[i3] = e, nil
		return
	}
	l2 := l3.next[i3]
	if l2 == nil {
		l2 = new(pd)
		l3.next[i3] = l2
	}
	if pgsz == Size2M {
		l2.ptes[i2], l2.next[i2] = e, nil
		return
	}
	l1 := l2.next[i2]
	if l1 == nil {
		l1 = new(pt)
		l2.next[i2] = l1
	}
	l1[idx(va, l1Shift)] = e
}

// firstMapped returns the lowest mapped address in [va, va+length), if
// any. It descends only into subtrees that exist: a nil interior entry
// proves its whole span is unmapped, so the scan jumps to the next
// boundary of that level in one step. The range may end at the top of
// the address space, so it is bounded by its last byte, not its end.
func (t *Table) firstMapped(va VirtAddr, length uint64) (bool, VirtAddr) {
	last := uint64(va) + length - 1
	for cur, more := uint64(va), true; more; {
		v := VirtAddr(cur)
		shift := uint(l1Shift) // the size of the span just proved unmapped
		if l3 := t.root[idx(v, l4Shift)]; l3 == nil {
			shift = l4Shift
		} else if i3 := idx(v, l3Shift); l3.ptes[i3].leaf() {
			return true, v
		} else if l2 := l3.next[i3]; l2 == nil {
			shift = l3Shift
		} else if i2 := idx(v, l2Shift); l2.ptes[i2].leaf() {
			return true, v
		} else if l1 := l2.next[i2]; l1 == nil {
			shift = l2Shift
		} else if l1[idx(v, l1Shift)].leaf() {
			return true, v
		}
		cur, more = nextBoundary(cur, shift, last)
	}
	return false, 0
}

// nextBoundary returns the next 1<<shift boundary above cur and whether
// it still lies at or below last. Past the top of the address space the
// boundary wraps to 0, which ends the range too.
func nextBoundary(cur uint64, shift uint, last uint64) (uint64, bool) {
	b := (cur | (1<<shift - 1)) + 1
	return b, b != 0 && b <= last
}

// lookup finds the leaf covering va. It returns the leaf entry, the page
// size of the translation and whether a mapping exists. A non-canonical
// address maps nothing: its index bits would alias the other half.
func (t *Table) lookup(va VirtAddr) (pte, uint64, bool) {
	if !va.Canonical() {
		return 0, 0, false
	}
	l3 := t.root[idx(va, l4Shift)]
	if l3 == nil {
		return 0, 0, false
	}
	i3 := idx(va, l3Shift)
	if e := l3.ptes[i3]; e.leaf() {
		return e, Size1G, true
	}
	l2 := l3.next[i3]
	if l2 == nil {
		return 0, 0, false
	}
	i2 := idx(va, l2Shift)
	if e := l2.ptes[i2]; e.leaf() {
		return e, Size2M, true
	}
	l1 := l2.next[i2]
	if l1 == nil {
		return 0, 0, false
	}
	if e := l1[idx(va, l1Shift)]; e.leaf() {
		return e, Size4K, true
	}
	return 0, 0, false
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

func (t *Table) clearOne(va VirtAddr) uint64 {
	l3 := t.root[idx(va, l4Shift)]
	i3 := idx(va, l3Shift)
	if l3.ptes[i3].leaf() {
		l3.ptes[i3] = 0
		return Size1G
	}
	l2 := l3.next[i3]
	i2 := idx(va, l2Shift)
	if l2.ptes[i2].leaf() {
		l2.ptes[i2] = 0
		return Size2M
	}
	l2.next[i2][idx(va, l1Shift)] = 0
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
