package kmem

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/snapshot"
)

// EncodeState serializes the kernel address space's mutable state: the
// page-table mapping footprint, allocator bookkeeping (live objects,
// slabs, per-CPU cache stacks, the deferred foreign-free queue in
// order), and the TEXT symbol table. Frame contents live in the node's
// PhysMem section; translations are pinned here by the object/slab
// extents. Registered by cluster.buildNode under "node<N>/kmem-linux"
// and "node<N>/kmem-lwk".
func (s *Space) EncodeState(e *snapshot.Enc) {
	e.Printf("space name=%q foreignfree=%v foreignfreecount=%d nexttext=%x image=%x+%d\n",
		s.Name, s.foreignFree, s.ForeignFreeCount,
		uint64(s.nextText), uint64(s.imageExt.Addr), s.imageExt.Len)
	e.Printf("pt mapped4k=%d mapped2m=%d mapped1g=%d\n",
		s.PT.MappedBytes(pagetable.Size4K),
		s.PT.MappedBytes(pagetable.Size2M),
		s.PT.MappedBytes(pagetable.Size1G))

	// One object line per large allocation and per slab slot, free slots
	// included (size 0, class and slab set), in address order.
	type object struct {
		va, slab VirtAddr
		size     uint64
		class    int
		ext      mem.Extent
	}
	bases := make([]VirtAddr, 0, len(s.slabs))
	for b := range s.slabs {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	objs := make([]object, 0, len(s.objects))
	for va, o := range s.objects {
		objs = append(objs, object{va: va, size: o.size, class: -1, ext: o.ext})
	}
	for _, b := range bases {
		sl := s.slabs[b]
		for i, size := range sl.sizes {
			objs = append(objs, object{va: b + VirtAddr(uint64(i)*classes[sl.class]),
				slab: b, size: uint64(size &^ slotQueued), class: sl.class})
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].va < objs[j].va })
	for _, o := range objs {
		e.Printf("object va=%x size=%d class=%d ext=%x+%d slab=%x\n",
			uint64(o.va), o.size, o.class, uint64(o.ext.Addr), o.ext.Len, uint64(o.slab))
	}

	for _, b := range bases {
		sl := s.slabs[b]
		e.Printf("slab base=%x ext=%x+%d live=%d\n",
			uint64(b), uint64(sl.ext.Addr), sl.ext.Len, sl.live)
	}

	cpus := make([]int, 0, len(s.caches))
	for c := range s.caches {
		cpus = append(cpus, c)
	}
	sort.Ints(cpus)
	for _, c := range cpus {
		cache := s.caches[c]
		cls := make([]int, 0, len(cache.free))
		for cl := range cache.free {
			cls = append(cls, cl)
		}
		sort.Ints(cls)
		for _, cl := range cls {
			// Cache free lists are stacks: order determines which VA the
			// next Kmalloc hands out, so the digest covers the sequence.
			if list := cache.free[cl]; len(list) > 0 {
				e.Printf("cache cpu=%d class=%d free=%d hash=%016x\n", c, cl, len(list), vaListHash(list))
			}
		}
	}
	if len(s.deferredFrees) > 0 {
		e.Printf("deferred n=%d hash=%016x\n", len(s.deferredFrees), vaListHash(s.deferredFrees))
	}

	syms := make([]VirtAddr, 0, len(s.symbols))
	for va := range s.symbols {
		syms = append(syms, va)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	for _, va := range syms {
		e.Printf("symbol va=%x name=%q\n", uint64(va), s.symbols[va].Name)
	}
}

// vaListHash folds an ordered VA sequence to a digest.
func vaListHash(list []VirtAddr) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, va := range list {
		binary.LittleEndian.PutUint64(buf[:], uint64(va))
		h.Write(buf[:])
	}
	return h.Sum64()
}
