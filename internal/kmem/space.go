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
	PT     *pagetable.Table `snap:"hash"`
	// Alloc draws physical memory from this kernel's partition.
	Alloc *mem.Allocator

	cpus        map[int]bool // CPU ids this kernel manages
	foreignFree bool
	// deferredFrees holds objects freed from foreign CPUs, drained on
	// the next owned-CPU allocation (like a remote free queue).
	deferredFrees []VirtAddr            `snap:"hash"`
	caches        map[int]*cpuCache     // made on each CPU's first kmalloc or free
	objects       map[VirtAddr]largeObj // allocations above every size class
	slabs         map[VirtAddr]*slab    // by slab base VA

	symbols  map[VirtAddr]*Symbol
	nextText VirtAddr
	imageExt mem.Extent

	// ForeignFreeCount counts frees handled through the foreign-CPU
	// path, for tests and profiling.
	ForeignFreeCount int
}

// largeObj is an allocation too big for the size classes: its own
// contiguous extent.
type largeObj struct {
	size   uint64
	ext    mem.Extent
	queued bool // a foreign-CPU free of it waits in deferredFrees
}

// slab is one slabBytes-aligned run of equal slots of one size class.
// An object is found from its address alone: the slab by rounding down
// to slabBytes, the slot by the offset. A new slab's slots are not
// listed anywhere: its CPU cache records how many it has not handed
// out yet and counts down through them (see cpuCache).
type slab struct {
	ext   mem.Extent
	class int
	live  int
	// sizes holds each slot's requested size, 0 while the slot is free,
	// with slotQueued set while its foreign-CPU free waits in
	// deferredFrees.
	sizes []uint16
}

// slotQueued flags a slab slot in slab.sizes; every class fits below it.
const slotQueued = 1 << 15

// cpuCache holds one CPU's free slots, per size class. A class hands
// out its freed slots first, the most recently freed first, and then
// the never-used slots of its newest slab from the top down; only when
// both have run out does it take a new slab. That is the order a stack
// that listed every slot of the slab on refill would pop them in.
type cpuCache struct {
	free  [len(classes)][]VirtAddr `snap:"hash"` // stacks of freed slots
	fresh [len(classes)]freshSlots
}

// freshSlots are the slots of a slab never handed out: the lowest left
// slots of the slab at base.
type freshSlots struct {
	base VirtAddr
	left int
}

// Size classes for small allocations; larger requests use contiguous
// extents directly.
var classes = [...]uint64{64, 128, 256, 512, 1024, 2048, 4096}

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
		cpus:    make(map[int]bool, len(cpus)),
		caches:  make(map[int]*cpuCache),
		objects: make(map[VirtAddr]largeObj),
		slabs:   make(map[VirtAddr]*slab),
		symbols: make(map[VirtAddr]*Symbol),
	}
	for _, c := range cpus {
		s.cpus[c] = true
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
		s.objects[va] = largeObj{size: size, ext: ext}
		return va, nil
	}
	cache := s.cache(cpu)
	var va VirtAddr
	if list := cache.free[cl]; len(list) > 0 {
		va = list[len(list)-1]
		cache.free[cl] = list[:len(list)-1]
	} else {
		fresh := &cache.fresh[cl]
		if fresh.left == 0 {
			if err := s.refill(fresh, cl); err != nil {
				return 0, err
			}
		}
		fresh.left--
		va = fresh.base + VirtAddr(uint64(fresh.left)*classes[cl])
	}
	sl, slot := s.slotOf(va)
	sl.sizes[slot] = uint16(size)
	sl.live++
	return va, nil
}

// cache returns the cache of cpu, an owned CPU, making it on first use.
func (s *Space) cache(cpu int) *cpuCache {
	c := s.caches[cpu]
	if c == nil {
		c = new(cpuCache)
		s.caches[cpu] = c
	}
	return c
}

// refill takes a new slab for class cl and makes its slots fresh.
func (s *Space) refill(fresh *freshSlots, cl int) error {
	ext, err := s.Alloc.AllocContig(slabBytes, mem.PreferMCDRAM)
	if err != nil {
		return err
	}
	base := s.Layout.DirectMapVirt(ext.Addr)
	if base%slabBytes != 0 {
		s.Alloc.FreeContig(ext)
		return fmt.Errorf("kmem: %s: slab at %#x is not %d-byte aligned", s.Name, base, slabBytes)
	}
	n := slabBytes / classes[cl]
	s.slabs[base] = &slab{ext: ext, class: cl, sizes: make([]uint16, n)}
	*fresh = freshSlots{base: base, left: int(n)}
	return nil
}

// slotOf returns the slab and slot index of the slot starting at va, or
// a nil slab when no slot starts there.
func (s *Space) slotOf(va VirtAddr) (*slab, int) {
	base := va &^ (slabBytes - 1)
	sl := s.slabs[base]
	if sl == nil {
		return nil, 0
	}
	off, chunk := uint64(va-base), classes[sl.class]
	if off%chunk != 0 {
		return nil, 0
	}
	return sl, int(off / chunk)
}

// Kfree releases an allocation. When called on a CPU this kernel does not
// manage, the behaviour depends on EnableForeignFree: enabled, the object
// is queued on a remote-free list drained by owned CPUs (and counted in
// ForeignFreeCount); disabled, an error is returned — the failure mode
// the unmodified McKernel allocator exhibits when SDMA completion
// callbacks run on Linux CPUs.
//
// Freeing an object twice is an error, including while the first, foreign
// free still waits in the queue.
func (s *Space) Kfree(va VirtAddr, cpu int) error {
	obj, large := s.objects[va]
	var sl *slab
	var slot int
	if !large {
		if sl, slot = s.slotOf(va); sl == nil {
			return fmt.Errorf("kmem: kfree of unknown object %#x", va)
		}
	}
	if obj.queued || !large && (sl.sizes[slot] == 0 || sl.sizes[slot]&slotQueued != 0) {
		return fmt.Errorf("kmem: double free of %#x", va)
	}
	if !s.cpus[cpu] {
		if !s.foreignFree {
			return fmt.Errorf("kmem: kfree on foreign CPU %d in %s (foreign free disabled)", cpu, s.Name)
		}
		s.ForeignFreeCount++
		if large {
			obj.queued = true
			s.objects[va] = obj
		} else {
			sl.sizes[slot] |= slotQueued
		}
		s.deferredFrees = append(s.deferredFrees, va)
		return nil
	}
	s.release(va, cpu)
	return nil
}

// release frees a live object on an owned CPU: a large one back to the
// partition, a slab slot onto cpu's cache.
func (s *Space) release(va VirtAddr, cpu int) {
	if obj, ok := s.objects[va]; ok {
		s.Alloc.FreeContig(obj.ext)
		delete(s.objects, va)
		return
	}
	sl, slot := s.slotOf(va)
	sl.sizes[slot] = 0
	sl.live--
	cache := s.cache(cpu)
	cache.free[sl.class] = append(cache.free[sl.class], va)
}

// drainDeferred processes remote frees on an owned CPU.
func (s *Space) drainDeferred() {
	if len(s.deferredFrees) == 0 {
		return
	}
	// Route to an arbitrary owned CPU cache deterministically: lowest id.
	cpu := s.lowestCPU()
	for _, va := range s.deferredFrees {
		s.release(va, cpu)
	}
	s.deferredFrees = s.deferredFrees[:0]
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
	n := len(s.objects)
	for _, sl := range s.slabs {
		n += sl.live
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
	fault, err := s.PT.Access(s.Alloc.Phys(), va, buf, write)
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
