package kmem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/vas"
)

// refAllocator is the differential reference for Space's kmalloc and
// kfree: the allocator as it was when a refill pushed every slot of a
// new slab onto its CPU's free stack, lowest address first, and kmalloc
// popped the top. It draws slabs and large objects from its own
// physical memory, built like the Space's, so while the two make the
// same calls they get the same addresses.
type refAllocator struct {
	alloc       *mem.Allocator
	layout      vas.Layout
	cpus        []int
	foreignFree bool
	stacks      map[int]map[int][]VirtAddr // cpu → class → free slots
	slabs       map[VirtAddr]int           // slab base → class
	large       map[VirtAddr]mem.Extent
	live        map[VirtAddr]bool
	queued      []VirtAddr // foreign frees, in order
	foreign     int
}

func newRefAllocator(alloc *mem.Allocator, layout vas.Layout, cpus []int) *refAllocator {
	r := &refAllocator{
		alloc: alloc, layout: layout, cpus: cpus,
		stacks: make(map[int]map[int][]VirtAddr),
		slabs:  make(map[VirtAddr]int),
		large:  make(map[VirtAddr]mem.Extent),
		live:   make(map[VirtAddr]bool),
	}
	for _, c := range cpus {
		r.stacks[c] = make(map[int][]VirtAddr)
	}
	return r
}

func (r *refAllocator) kmalloc(size uint64, cpu int) (VirtAddr, bool) {
	if size == 0 || !slices.Contains(r.cpus, cpu) {
		return 0, false
	}
	for _, va := range r.queued {
		r.release(va, slices.Min(r.cpus))
	}
	r.queued = r.queued[:0]
	cl := classFor(size)
	if cl < 0 {
		ext, err := r.alloc.AllocContig(size, mem.PreferMCDRAM)
		if err != nil {
			return 0, false
		}
		va := r.layout.DirectMapVirt(ext.Addr)
		r.large[va], r.live[va] = ext, true
		return va, true
	}
	stack := r.stacks[cpu][cl]
	if len(stack) == 0 {
		ext, err := r.alloc.AllocContig(slabBytes, mem.PreferMCDRAM)
		if err != nil {
			return 0, false
		}
		base := r.layout.DirectMapVirt(ext.Addr)
		r.slabs[base] = cl
		for off := uint64(0); off < slabBytes; off += classes[cl] {
			stack = append(stack, base+VirtAddr(off))
		}
	}
	va := stack[len(stack)-1]
	r.stacks[cpu][cl] = stack[:len(stack)-1]
	r.live[va] = true
	return va, true
}

// known reports whether va is a large object or the start of a slot.
func (r *refAllocator) known(va VirtAddr) bool {
	if _, ok := r.large[va]; ok {
		return true
	}
	base := va &^ (slabBytes - 1)
	cl, ok := r.slabs[base]
	return ok && uint64(va-base)%classes[cl] == 0
}

func (r *refAllocator) kfree(va VirtAddr, cpu int) bool {
	if !r.known(va) || !r.live[va] || slices.Contains(r.queued, va) {
		return false
	}
	if !slices.Contains(r.cpus, cpu) {
		if !r.foreignFree {
			return false
		}
		r.foreign++
		r.queued = append(r.queued, va)
		return true
	}
	r.release(va, cpu)
	return true
}

func (r *refAllocator) release(va VirtAddr, cpu int) {
	delete(r.live, va)
	if ext, ok := r.large[va]; ok {
		r.alloc.FreeContig(ext)
		delete(r.large, va)
		return
	}
	cl := r.slabs[va&^(slabBytes-1)]
	r.stacks[cpu][cl] = append(r.stacks[cpu][cl], va)
}

// slabSizes are the request sizes the programs draw from: the edges of
// every class and two sizes above them all.
var slabSizes = []uint64{1, 64, 65, 100, 128, 129, 256, 300, 512, 513, 1024, 2000, 2048, 2049, 4096, 4097, 20000}

// runSlabOps interprets prog as kmalloc, kfree, foreign-CPU kfree,
// double-free and bad-pointer kfree calls on a Space and on the
// reference, and requires the same address or the same failure from
// every call, and the same live and foreign-free counts after it.
func runSlabOps(t testing.TB, prog []byte) {
	p := &opProgram{data: prog}
	// 1 MiB: 16 slabs, so that programs run the memory out.
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 1 << 20, Kind: DDR, Owner: "k"})
	if err != nil {
		t.Fatal(err)
	}
	refPM, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 1 << 20, Kind: DDR, Owner: "k"})
	if err != nil {
		t.Fatal(err)
	}
	cpus := []int{2, 3}
	const foreignCPU = 9
	s, err := NewSpace("k", vas.LinuxLayout(), pm.Partition("k"), cpus)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefAllocator(refPM.Partition("k"), vas.LinuxLayout(), cpus)
	if p.u8()%4 != 0 {
		s.EnableForeignFree()
		ref.foreignFree = true
	}
	var handed []VirtAddr // every address kmalloc returned, live or not
	for step := 0; !p.done; step++ {
		cpu := cpus[p.u8()%2]
		var desc string
		var got, want bool
		switch op := p.u8() % 8; {
		case op < 4 || len(handed) == 0: // kmalloc, on a foreign CPU now and then
			size := slabSizes[p.u8()%len(slabSizes)]
			if op == 3 && p.u8()%8 == 0 {
				cpu = foreignCPU
			}
			va, err := s.Kmalloc(size, cpu)
			wantVA, ok := ref.kmalloc(size, cpu)
			desc, got, want = fmt.Sprintf("Kmalloc(%d, cpu %d) = %#x, %v; reference %#x", size, cpu, va, err, wantVA), err == nil, ok
			if got && want && va != wantVA {
				t.Fatalf("step %d: %s", step, desc)
			}
			if got {
				handed = append(handed, va)
			}
		default: // kfree of a handed-out address, live or freed, or inside one
			va := handed[p.u16()%len(handed)]
			switch op {
			case 6:
				cpu = foreignCPU
			case 7:
				if p.u8()%4 == 0 {
					va += VirtAddr(8 << (p.u8() % 8))
				}
			}
			err := s.Kfree(va, cpu)
			desc, got, want = fmt.Sprintf("Kfree(%#x, cpu %d) = %v", va, cpu, err), err == nil, ref.kfree(va, cpu)
		}
		if got != want {
			t.Fatalf("step %d: %s, reference ok=%v", step, desc, want)
		}
		if n, want := s.LiveObjects(), len(ref.live)-len(ref.queued); n != want || s.ForeignFreeCount != ref.foreign {
			t.Fatalf("step %d: after %s: %d live, %d foreign frees; reference %d, %d", step, desc, n, s.ForeignFreeCount, want, ref.foreign)
		}
	}
}

// opProgram reads an op program byte by byte; past its end it yields
// zeros and sets done.
type opProgram struct {
	data []byte
	done bool
}

func (p *opProgram) u8() int {
	if len(p.data) == 0 {
		p.done = true
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b)
}

func (p *opProgram) u16() int { return p.u8() | p.u8()<<8 }

// slabOpSeeds are the differential test's programs and the fuzz
// target's corpus.
func slabOpSeeds() [][]byte {
	var progs [][]byte
	for seed := int64(1); seed <= 6; seed++ {
		prog := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(prog)
		progs = append(progs, prog)
	}
	return progs
}

// TestSlabDifferential runs the seed programs.
func TestSlabDifferential(t *testing.T) {
	for i, prog := range slabOpSeeds() {
		t.Run(fmt.Sprintf("seed%d", i+1), func(t *testing.T) { runSlabOps(t, prog) })
	}
}

func FuzzSlabOps(f *testing.F) {
	for _, prog := range slabOpSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runSlabOps(t, prog) })
}
