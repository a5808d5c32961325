// Package uproc models user processes: a private page table over the
// user half of the address space, anonymous mmap with OS-specific
// physical backing, and byte access to user memory.
//
// The backing policy is the heart of §3.4: Linux backs anonymous memory
// with individually allocated (and, on a long-running node, fragmented)
// 4 KiB pages, while McKernel backs it with physically contiguous runs
// mapped by large pages and pins everything at creation time. The HFI
// data path observes this difference through page-table walks.
package uproc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vas"
)

// VirtAddr aliases the page-table virtual address type.
type VirtAddr = pagetable.VirtAddr

// Backing selects the anonymous-memory policy.
type Backing int

const (
	// BackingScattered4K is the Linux policy: one 4 KiB frame at a
	// time from a fragmented pool, nothing pinned.
	BackingScattered4K Backing = iota
	// BackingContigLarge is the McKernel policy: greedy contiguous
	// runs, large-page mappings, pinned at creation.
	BackingContigLarge
	// backingDevice marks a device mapping (mmap of driver memory):
	// the physical backing belongs to the device/driver and is neither
	// allocated nor freed by the process.
	backingDevice
)

func (b Backing) String() string {
	switch b {
	case BackingScattered4K:
		return "scattered-4k"
	case BackingContigLarge:
		return "contig-large"
	}
	return fmt.Sprintf("Backing(%d)", int(b))
}

// VMA is one anonymous mapping.
type VMA struct {
	Range vas.Range
	// Extents is the mapped physical backing, trimmed to the mapping
	// size.
	Extents []mem.Extent
	Pinned  bool
	backing Backing
	// mapped is the number of bytes actually mapped (Range.Size may be
	// larger due to reservation alignment).
	mapped uint64
	// raw is the physical allocation as returned by the allocator
	// (whole buddy blocks), kept for balanced freeing.
	raw []mem.Extent
}

// Process is a user process.
type Process struct {
	Name    string
	PT      *pagetable.Table
	Backing Backing
	// Alloc draws physical pages from the owning kernel's partition.
	Alloc *mem.Allocator

	mmapAlloc *vas.RangeAllocator
	vmas      map[VirtAddr]*VMA
	// extScratch backs the page-table walk in access: user memory is
	// touched on every simulated syscall and DMA, so the extent list is
	// reused instead of reallocated per access.
	extScratch []mem.Extent
}

// mmapWindow is where anonymous mappings are placed (a 2M-aligned slice
// of the canonical lower half, far from NULL and the stack).
var mmapWindow = vas.Range{Start: 0x0000_2AAA_0000_0000, Size: 1 << 40}

// NewProcess creates a process whose anonymous memory follows the given
// backing policy, drawing physical memory from alloc.
func NewProcess(name string, alloc *mem.Allocator, backing Backing) *Process {
	return &Process{
		Name:      name,
		PT:        pagetable.New(),
		Backing:   backing,
		Alloc:     alloc,
		mmapAlloc: vas.NewRangeAllocator(mmapWindow, pagetable.Size2M, 0),
		vmas:      make(map[VirtAddr]*VMA),
	}
}

// MmapAnon creates an anonymous mapping of at least size bytes (rounded
// up to 4 KiB) and returns its base address.
func (p *Process) MmapAnon(size uint64) (VirtAddr, error) {
	if size == 0 {
		return 0, fmt.Errorf("uproc: zero-size mmap")
	}
	size = (size + pagetable.Size4K - 1) &^ (pagetable.Size4K - 1)
	r, err := p.mmapAlloc.Reserve(size)
	if err != nil {
		return 0, err
	}
	npages := int(size / pagetable.Size4K)
	var extents []mem.Extent
	pinned := false
	switch p.Backing {
	case BackingScattered4K:
		extents, err = p.Alloc.AllocScattered(npages, mem.PreferMCDRAM)
	case BackingContigLarge:
		extents, err = p.Alloc.AllocRun(npages, mem.PreferMCDRAM)
		pinned = true
	default:
		err = fmt.Errorf("uproc: unknown backing %v", p.Backing)
	}
	if err != nil {
		relErr := p.mmapAlloc.Release(r)
		_ = relErr
		return 0, err
	}
	// Map exactly the requested size; contiguous runs may be rounded up
	// to whole buddy blocks, so keep the raw allocation for freeing.
	raw := extents
	extents = trimExtents(extents, size)
	if err := p.PT.MapExtents(r.Start, extents, pagetable.Writable|pagetable.User); err != nil {
		return 0, fmt.Errorf("uproc: mapping extents: %w", err)
	}
	if pinned {
		for _, e := range extents {
			p.Alloc.Phys().Pin(e)
		}
	}
	p.vmas[r.Start] = &VMA{Range: r, Extents: extents, Pinned: pinned, backing: p.Backing, mapped: size, raw: raw}
	return r.Start, nil
}

func trimExtents(in []mem.Extent, want uint64) []mem.Extent {
	var out []mem.Extent
	var total uint64
	for _, e := range in {
		if total >= want {
			// Excess extent beyond the request: should not happen with
			// exact-page allocators, but guard anyway.
			break
		}
		if total+e.Len > want {
			e.Len = want - total
		}
		total += e.Len
		out = append(out, e)
	}
	return out
}

// MapDevice maps externally owned physical extents (device or kernel
// memory handed out by a driver's mmap file operation) into the process
// and returns the user base address. The extents are not allocated,
// pinned or freed by the process.
func (p *Process) MapDevice(extents []mem.Extent) (VirtAddr, error) {
	var size uint64
	for _, e := range extents {
		if e.Len == 0 || e.Addr%pagetable.Size4K != 0 || e.Len%pagetable.Size4K != 0 {
			return 0, fmt.Errorf("uproc: device extent %#x+%#x not page aligned", e.Addr, e.Len)
		}
		size += e.Len
	}
	if size == 0 {
		return 0, fmt.Errorf("uproc: empty device mapping")
	}
	r, err := p.mmapAlloc.Reserve(size)
	if err != nil {
		return 0, err
	}
	if err := p.PT.MapExtents(r.Start, extents, pagetable.Writable|pagetable.User); err != nil {
		return 0, fmt.Errorf("uproc: mapping device extents: %w", err)
	}
	p.vmas[r.Start] = &VMA{Range: r, Extents: extents, backing: backingDevice, mapped: size}
	return r.Start, nil
}

// Munmap removes a mapping created by MmapAnon. va must be the base.
func (p *Process) Munmap(va VirtAddr) error {
	v, ok := p.vmas[va]
	if !ok {
		return fmt.Errorf("uproc: munmap of unknown mapping %#x", va)
	}
	if err := p.PT.Unmap(v.Range.Start, v.mapped); err != nil {
		return err
	}
	if v.Pinned {
		for _, e := range v.Extents {
			p.Alloc.Phys().Unpin(e)
		}
	}
	switch v.backing {
	case BackingScattered4K:
		p.Alloc.FreeScattered(v.raw)
	case BackingContigLarge:
		p.Alloc.FreeRun(v.raw)
	}
	if err := p.mmapAlloc.Release(v.Range); err != nil {
		return err
	}
	delete(p.vmas, va)
	return nil
}

// VMAOf returns the mapping containing va.
func (p *Process) VMAOf(va VirtAddr) (*VMA, bool) {
	for _, v := range p.vmas {
		if v.Range.Contains(va) {
			return v, true
		}
	}
	return nil, false
}

// Mappings returns the number of live VMAs.
func (p *Process) Mappings() int { return len(p.vmas) }

// ReadAt reads user memory at va through the process page table.
func (p *Process) ReadAt(va VirtAddr, buf []byte) error {
	return p.access(va, buf, false)
}

// WriteAt writes user memory at va.
func (p *Process) WriteAt(va VirtAddr, buf []byte) error {
	return p.access(va, buf, true)
}

func (p *Process) access(va VirtAddr, buf []byte, write bool) error {
	exts, fault, err := p.PT.Access(p.Alloc.Phys(), p.extScratch[:0], va, buf, write)
	p.extScratch = exts
	if fault != nil {
		return fmt.Errorf("uproc: %s: segfault at %#x: %w", p.Name, va, fault)
	}
	return err
}

// ReadU64 reads a little-endian uint64 from user memory.
func (p *Process) ReadU64(va VirtAddr) (uint64, error) {
	var b [8]byte
	if err := p.ReadAt(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 to user memory.
func (p *Process) WriteU64(va VirtAddr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.WriteAt(va, b[:])
}
