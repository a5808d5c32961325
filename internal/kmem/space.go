// Package kmem implements a kernel's view of memory: its virtual address
// space (layout + page table), a kmalloc/kfree allocator with per-CPU
// caches, and a TEXT symbol table for function pointers.
//
// Two properties from the paper are modeled faithfully:
//
//   - Address space unification (§3.1). Every byte access goes through
//     the kernel's own page table. A pointer kmalloc'd by Linux is only
//     dereferenceable from McKernel if McKernel's direct map translates
//     the same virtual address to the same physical address — which holds
//     under the unified layout and fails under the original one.
//
//   - Foreign-CPU kfree (§3.3). McKernel's allocator keeps per-core free
//     lists; a kfree executed on a Linux CPU (SDMA completion callbacks
//     run in Linux IRQ context) does not own any LWK core cache. Unless
//     the space was configured with EnableForeignFree, such a free fails
//     exactly like the unmodified McKernel would.
package kmem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vas"
)

// VirtAddr aliases the page-table virtual address type.
type VirtAddr = pagetable.VirtAddr

// Space is one kernel's address space and allocator.
type Space struct {
	Name   string
	Layout vas.Layout
	PT     *pagetable.Table
	// Alloc draws physical memory from this kernel's partition.
	Alloc *mem.Allocator

	cpus        map[int]bool // CPU ids this kernel manages
	foreignFree bool
	// deferredFrees holds objects freed from foreign CPUs, drained on
	// the next owned-CPU allocation (like a remote free queue).
	deferredFrees []VirtAddr
	caches        map[int]*cpuCache
	objects       map[VirtAddr]allocRec
	slabs         map[VirtAddr]*slab // by slab base VA

	symbols  map[VirtAddr]*Symbol
	nextText VirtAddr
	imageExt mem.Extent

	// ForeignFreeCount counts frees handled through the foreign-CPU
	// path, for tests and profiling.
	ForeignFreeCount int

	// extScratch backs the page-table walk in access (reused per call).
	extScratch []mem.Extent
}

type allocRec struct {
	size  uint64
	class int // -1 for large (contiguous-extent) allocations
	ext   mem.Extent
	slab  VirtAddr
}

type slab struct {
	ext  mem.Extent
	live int
}

type cpuCache struct {
	free map[int][]VirtAddr // per size class
}

// Size classes for small allocations; larger requests use contiguous
// extents directly.
var classes = []uint64{64, 128, 256, 512, 1024, 2048, 4096}

const slabBytes = 16 * mem.PageSize4K

// NewSpace creates a kernel space. cpus lists the CPU ids this kernel
// manages. The direct map described by layout is installed for every
// region of the node's physical memory, so any physical byte is
// addressable at layout.DirectMap.Start + pa.
func NewSpace(name string, layout vas.Layout, alloc *mem.Allocator, cpus []int) (*Space, error) {
	s := &Space{
		Name:    name,
		Layout:  layout,
		PT:      pagetable.New(),
		Alloc:   alloc,
		cpus:    make(map[int]bool),
		caches:  make(map[int]*cpuCache),
		objects: make(map[VirtAddr]allocRec),
		slabs:   make(map[VirtAddr]*slab),
		symbols: make(map[VirtAddr]*Symbol),
	}
	for _, c := range cpus {
		s.cpus[c] = true
		s.caches[c] = &cpuCache{free: make(map[int][]VirtAddr)}
	}
	for _, r := range alloc.Phys().Regions() {
		if r.Kind == mem.MMIO {
			continue
		}
		va := layout.DirectMapVirt(r.Base)
		if err := s.PT.Map(va, r.Base, r.Size, pagetable.Writable); err != nil {
			return nil, fmt.Errorf("kmem: direct map of %#x: %w", r.Base, err)
		}
	}
	s.nextText = layout.Image.Start
	return s, nil
}

// EnableForeignFree turns on the §3.3 extension that lets deallocation
// routines run correctly on CPUs this kernel does not manage.
func (s *Space) EnableForeignFree() { s.foreignFree = true }

// CPUs returns the number of CPUs the kernel manages.
func (s *Space) CPUs() int { return len(s.cpus) }

func classFor(size uint64) int {
	for i, c := range classes {
		if size <= c {
			return i
		}
	}
	return -1
}

// Kmalloc allocates size bytes and returns a kernel virtual address in
// the direct map. cpu identifies the executing CPU; allocations are
// served from its cache when possible. Only owned CPUs may allocate.
func (s *Space) Kmalloc(size uint64, cpu int) (VirtAddr, error) {
	if size == 0 {
		return 0, fmt.Errorf("kmem: zero-size kmalloc")
	}
	if !s.cpus[cpu] {
		return 0, fmt.Errorf("kmem: kmalloc on foreign CPU %d in %s", cpu, s.Name)
	}
	s.drainDeferred()
	cl := classFor(size)
	if cl < 0 {
		ext, err := s.Alloc.AllocContig(size, mem.PreferMCDRAM)
		if err != nil {
			return 0, err
		}
		va := s.Layout.DirectMapVirt(ext.Addr)
		s.objects[va] = allocRec{size: size, class: -1, ext: ext}
		return va, nil
	}
	cache := s.caches[cpu]
	if len(cache.free[cl]) == 0 {
		if err := s.refill(cache, cl); err != nil {
			return 0, err
		}
	}
	list := cache.free[cl]
	va := list[len(list)-1]
	cache.free[cl] = list[:len(list)-1]
	rec := s.objects[va]
	rec.size = size
	s.objects[va] = rec
	s.slabs[rec.slab].live++
	return va, nil
}

func (s *Space) refill(cache *cpuCache, cl int) error {
	ext, err := s.Alloc.AllocContig(slabBytes, mem.PreferMCDRAM)
	if err != nil {
		return err
	}
	base := s.Layout.DirectMapVirt(ext.Addr)
	s.slabs[base] = &slab{ext: ext}
	chunk := classes[cl]
	for off := uint64(0); off+chunk <= ext.Len; off += chunk {
		va := base + VirtAddr(off)
		s.objects[va] = allocRec{size: 0, class: cl, slab: base}
		cache.free[cl] = append(cache.free[cl], va)
	}
	return nil
}

// Kfree releases an allocation. When called on a CPU this kernel does not
// manage, the behaviour depends on EnableForeignFree: enabled, the object
// is queued on a remote-free list drained by owned CPUs (and counted in
// ForeignFreeCount); disabled, an error is returned — the failure mode
// the unmodified McKernel allocator exhibits when SDMA completion
// callbacks run on Linux CPUs.
func (s *Space) Kfree(va VirtAddr, cpu int) error {
	rec, ok := s.objects[va]
	if !ok {
		return fmt.Errorf("kmem: kfree of unknown object %#x", va)
	}
	if rec.class >= 0 && rec.size == 0 {
		return fmt.Errorf("kmem: double free of %#x", va)
	}
	if !s.cpus[cpu] {
		if !s.foreignFree {
			return fmt.Errorf("kmem: kfree on foreign CPU %d in %s (foreign free disabled)", cpu, s.Name)
		}
		s.ForeignFreeCount++
		s.deferredFrees = append(s.deferredFrees, va)
		return nil
	}
	return s.freeLocal(va, rec, cpu)
}

func (s *Space) freeLocal(va VirtAddr, rec allocRec, cpu int) error {
	if rec.class == -1 {
		s.Alloc.FreeContig(rec.ext)
		delete(s.objects, va)
		return nil
	}
	sl := s.slabs[rec.slab]
	if sl == nil || sl.live == 0 {
		return fmt.Errorf("kmem: double free of %#x", va)
	}
	sl.live--
	rec.size = 0
	s.objects[va] = rec
	s.caches[cpu].free[rec.class] = append(s.caches[cpu].free[rec.class], va)
	return nil
}

// drainDeferred processes remote frees on an owned CPU.
func (s *Space) drainDeferred() {
	if len(s.deferredFrees) == 0 {
		return
	}
	pending := s.deferredFrees
	s.deferredFrees = nil
	// Route to an arbitrary owned CPU cache deterministically: lowest id.
	cpu := s.lowestCPU()
	for _, va := range pending {
		rec, ok := s.objects[va]
		if !ok {
			continue
		}
		_ = s.freeLocal(va, rec, cpu)
	}
}

func (s *Space) lowestCPU() int {
	lowest := -1
	for c := range s.cpus {
		if lowest < 0 || c < lowest {
			lowest = c
		}
	}
	return lowest
}

// LiveObjects returns the number of outstanding allocations (excluding
// cached free chunks).
func (s *Space) LiveObjects() int {
	n := 0
	for _, rec := range s.objects {
		if rec.class == -1 || rec.size > 0 {
			n++
		}
	}
	return n - len(s.deferredFrees)
}

// Translate resolves a kernel virtual address through this kernel's page
// table.
func (s *Space) Translate(va VirtAddr) (mem.PhysAddr, bool) {
	pa, _, ok := s.PT.Translate(va)
	return pa, ok
}

// ReadAt reads len(buf) bytes at kernel virtual address va, translating
// through this kernel's page table — an unmapped address faults exactly
// as dereferencing a bad pointer would.
func (s *Space) ReadAt(va VirtAddr, buf []byte) error {
	return s.access(va, buf, false)
}

// WriteAt writes buf at kernel virtual address va.
func (s *Space) WriteAt(va VirtAddr, buf []byte) error {
	return s.access(va, buf, true)
}

func (s *Space) access(va VirtAddr, buf []byte, write bool) error {
	exts, fault, err := s.PT.Access(s.Alloc.Phys(), s.extScratch[:0], va, buf, write)
	s.extScratch = exts
	if fault != nil {
		return fmt.Errorf("kmem: %s: fault accessing %#x: %w", s.Name, va, fault)
	}
	return err
}

// ReadU64 reads a little-endian uint64 at va.
func (s *Space) ReadU64(va VirtAddr) (uint64, error) {
	var b [8]byte
	if err := s.ReadAt(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 at va.
func (s *Space) WriteU64(va VirtAddr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.WriteAt(va, b[:])
}
