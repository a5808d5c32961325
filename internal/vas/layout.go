// Package vas describes kernel virtual address space layouts and range
// reservation.
//
// It encodes the three layouts of Figure 3 in the paper: the x86_64 Linux
// layout, the original McKernel layout, and the unified McKernel layout
// introduced for PicoDriver, where (1) the McKernel image moves to the
// top of the Linux module space so kernel images never overlap, (2) the
// direct mapping of physical memory sits at the same virtual base in both
// kernels so dynamically allocated structures can be dereferenced from
// either side, and (3) the McKernel image is also mapped into Linux so
// that completion callbacks in McKernel TEXT can run on Linux CPUs.
package vas

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// VirtAddr aliases the page-table virtual address type.
type VirtAddr = pagetable.VirtAddr

// Range is a half-open virtual address range.
type Range struct {
	Start VirtAddr
	Size  uint64
}

// End returns one past the last address.
func (r Range) End() VirtAddr { return r.Start + VirtAddr(r.Size) }

// Contains reports whether va lies in the range.
func (r Range) Contains(va VirtAddr) bool { return va >= r.Start && va < r.End() }

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End() && o.Start < r.End() }

// Figure 3 constants (x86_64, 48-bit).
const (
	UserSpaceEnd      = VirtAddr(0x0000_7FFF_FFFF_FFFF)
	KernelHalfStart   = VirtAddr(0xFFFF_8000_0000_0000)
	LinuxDirectMap    = VirtAddr(0xFFFF_8800_0000_0000)
	LinuxDirectMapLen = uint64(64) << 40 // 64 TB
	XenReserved       = VirtAddr(0xFFFF_C800_0000_0000)
	LinuxVmalloc      = VirtAddr(0xFFFF_C900_0000_0000)
	LinuxVmallocLen   = uint64(32) << 40
	LinuxImageBase    = VirtAddr(0xFFFF_FFFF_8000_0000)
	LinuxImageLen     = uint64(512) << 20
	LinuxModuleBase   = VirtAddr(0xFFFF_FFFF_A000_0000)
	LinuxModuleEnd    = VirtAddr(0xFFFF_FFFF_FF5F_FFFF) + 1

	// The original McKernel placed its image at the Linux image base and
	// its 256 GB direct map at an address of its own choosing.
	McKOrigImageBase    = LinuxImageBase
	McKOrigDirectMap    = VirtAddr(0xFFFF_8600_0000_0000)
	McKOrigDirectMapLen = uint64(256) << 30

	// The unified layout reserves the top 64 MB of the Linux module
	// space for the McKernel image.
	McKUnifiedImageLen = uint64(64) << 20
)

// McKUnifiedImageBase is where the McKernel image lives in the unified
// layout: at the top of the Linux module space.
const McKUnifiedImageBase = LinuxModuleEnd - VirtAddr(McKUnifiedImageLen)

// Layout names the logically distinct ranges of a kernel address space.
type Layout struct {
	Name      string
	User      Range
	DirectMap Range
	Vmalloc   Range
	Image     Range
	// ModuleSpace is the Linux kernel module range; in the unified
	// McKernel layout it is visible (mapped on demand) so Linux driver
	// module TEXT can be referenced.
	ModuleSpace Range
}

// LinuxLayout returns the x86_64 Linux virtual address space layout.
func LinuxLayout() Layout {
	return Layout{
		Name:        "linux",
		User:        Range{0, uint64(UserSpaceEnd) + 1},
		DirectMap:   Range{LinuxDirectMap, LinuxDirectMapLen},
		Vmalloc:     Range{LinuxVmalloc, LinuxVmallocLen},
		Image:       Range{LinuxImageBase, LinuxImageLen},
		ModuleSpace: Range{LinuxModuleBase, uint64(LinuxModuleEnd - LinuxModuleBase)},
	}
}

// McKernelOriginalLayout returns the pre-PicoDriver McKernel layout: the
// image overlaps the Linux image base and the direct map is private.
func McKernelOriginalLayout() Layout {
	return Layout{
		Name:      "mckernel-original",
		User:      Range{0, uint64(UserSpaceEnd) + 1},
		DirectMap: Range{McKOrigDirectMap, McKOrigDirectMapLen},
		Vmalloc:   Range{LinuxVmalloc, LinuxVmallocLen},
		Image:     Range{McKOrigImageBase, uint64(128) << 20},
	}
}

// McKernelUnifiedLayout returns the layout modified for PicoDriver
// (Figure 3, right): image at the top of the Linux module space, direct
// map at the Linux direct map base, Linux module space visible.
func McKernelUnifiedLayout() Layout {
	return Layout{
		Name:        "mckernel-unified",
		User:        Range{0, uint64(UserSpaceEnd) + 1},
		DirectMap:   Range{LinuxDirectMap, LinuxDirectMapLen},
		Vmalloc:     Range{LinuxVmalloc, LinuxVmallocLen},
		Image:       Range{McKUnifiedImageBase, McKUnifiedImageLen},
		ModuleSpace: Range{LinuxModuleBase, uint64(LinuxModuleEnd - LinuxModuleBase)},
	}
}

// DirectMapVirt returns the direct-map virtual address of pa.
func (l Layout) DirectMapVirt(pa mem.PhysAddr) VirtAddr {
	return l.DirectMap.Start + VirtAddr(pa)
}

// UnificationError describes why two layouts cannot cooperate.
type UnificationError struct{ Reason string }

func (e *UnificationError) Error() string { return "vas: not unified: " + e.Reason }

// CheckUnified verifies the three §3.1 requirements between a Linux
// layout and an LWK layout: non-overlapping kernel images, identical
// direct-map bases (so kmalloc pointers are valid in both kernels), and
// the LWK image residing inside the Linux module space (so Linux can map
// it and call LWK TEXT).
func CheckUnified(linux, lwk Layout) error {
	if linux.Image.Overlaps(lwk.Image) {
		return &UnificationError{Reason: fmt.Sprintf(
			"kernel images overlap (%#x vs %#x)", linux.Image.Start, lwk.Image.Start)}
	}
	if linux.DirectMap.Start != lwk.DirectMap.Start {
		return &UnificationError{Reason: fmt.Sprintf(
			"direct map bases differ (%#x vs %#x)", linux.DirectMap.Start, lwk.DirectMap.Start)}
	}
	if lwk.Image.Start < linux.ModuleSpace.Start || lwk.Image.End() > linux.ModuleSpace.End() {
		return &UnificationError{Reason: "LWK image not inside the Linux module space"}
	}
	return nil
}

// RangeAllocator hands out virtual address ranges from a fixed window,
// modeled on Linux's vmap_area management for module mappings. First-fit,
// with optional guard pages between reservations.
type RangeAllocator struct {
	window Range
	align  uint64
	guard  uint64
	used   []Range // sorted by Start
}

// NewRangeAllocator creates an allocator over window. align must be a
// power of two (at least 4K); guard bytes are kept free after every
// reservation.
func NewRangeAllocator(window Range, align, guard uint64) *RangeAllocator {
	if align == 0 {
		align = pagetable.Size4K
	}
	return &RangeAllocator{window: window, align: align, guard: guard}
}

// Reserve finds and claims a free range of the given size.
func (a *RangeAllocator) Reserve(size uint64) (Range, error) {
	if size == 0 {
		return Range{}, fmt.Errorf("vas: zero-size reservation")
	}
	size = (size + a.align - 1) &^ (a.align - 1)
	cursor := a.window.Start
	at := len(a.used) // where r goes to keep used sorted
	for i, u := range a.used {
		if uint64(u.Start-cursor) >= size+a.guard {
			at = i
			break
		}
		next := u.End() + VirtAddr(a.guard)
		if next > cursor {
			cursor = alignUp(next, a.align)
		}
	}
	r := Range{Start: cursor, Size: size}
	if r.End() > a.window.End() {
		return Range{}, fmt.Errorf("vas: window exhausted (%d bytes requested)", size)
	}
	a.used = slices.Insert(a.used, at, r)
	return r, nil
}

// Release returns a reservation. The range must match a prior Reserve
// exactly.
func (a *RangeAllocator) Release(r Range) error {
	i, ok := slices.BinarySearchFunc(a.used, r.Start, func(u Range, start VirtAddr) int {
		return cmp.Compare(u.Start, start)
	})
	if !ok || a.used[i] != r {
		return fmt.Errorf("vas: release of unknown range %#x+%#x", r.Start, r.Size)
	}
	a.used = slices.Delete(a.used, i, i+1)
	return nil
}

func alignUp(v VirtAddr, align uint64) VirtAddr {
	return VirtAddr((uint64(v) + align - 1) &^ (align - 1))
}
