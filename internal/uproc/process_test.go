package uproc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

func allocator(t testing.TB) *mem.Allocator {
	t.Helper()
	pm, err := mem.NewPhysMem(
		mem.Region{Base: 1 << 30, Size: 16 << 20, Kind: mem.MCDRAM, Owner: "k"},
		mem.Region{Base: 2 << 30, Size: 64 << 20, Kind: mem.DDR4, Owner: "k"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pm.Partition("k")
}

func TestMmapReadWrite(t *testing.T) {
	for _, backing := range []Backing{BackingScattered4K, BackingContigLarge} {
		t.Run(backing.String(), func(t *testing.T) {
			p := NewProcess("rank0", allocator(t), backing)
			va, err := p.MmapAnon(100_000)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 100_000)
			for i := range data {
				data[i] = byte(i)
			}
			if err := p.WriteAt(va, data); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if err := p.ReadAt(va, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, got) {
				t.Fatal("round trip mismatch")
			}
			if err := p.Munmap(va); err != nil {
				t.Fatal(err)
			}
			if len(p.vmas) != 0 {
				t.Fatal("vma leaked")
			}
		})
	}
}

func TestBackingContiguityDifference(t *testing.T) {
	const size = 4 << 20 // 4 MB
	lin := NewProcess("linux-rank", allocator(t), BackingScattered4K)
	mck := NewProcess("mck-rank", allocator(t), BackingContigLarge)

	lva, err := lin.MmapAnon(size)
	if err != nil {
		t.Fatal(err)
	}
	mva, err := mck.MmapAnon(size)
	if err != nil {
		t.Fatal(err)
	}
	lext, err := lin.PT.WalkExtents(lva, size)
	if err != nil {
		t.Fatal(err)
	}
	mext, err := mck.PT.WalkExtents(mva, size)
	if err != nil {
		t.Fatal(err)
	}
	// Linux: ~1024 scattered pages. McKernel: a handful of runs.
	if len(lext) < 512 {
		t.Fatalf("scattered backing produced only %d extents for 4MB", len(lext))
	}
	if len(mext) > 8 {
		t.Fatalf("contiguous backing produced %d extents for 4MB", len(mext))
	}
	// McKernel mappings use large pages where possible. A 4K unmap
	// inside a 2M leaf is refused (it would split the page); inside a
	// 4K leaf it succeeds, so the probe consumes the mapping.
	uses2M := func(p *Process, va VirtAddr) bool {
		for off := VirtAddr(0); off < size; off += pagetable.Size4K {
			if p.PT.Unmap(va+off, pagetable.Size4K) != nil {
				return true
			}
		}
		return false
	}
	if !uses2M(mck, mva) {
		t.Fatal("contig backing used no 2M pages")
	}
	if uses2M(lin, lva) {
		t.Fatal("scattered backing unexpectedly used 2M pages")
	}
}

func TestMcKernelPinsAnonymous(t *testing.T) {
	alloc := allocator(t)
	mck := NewProcess("mck-rank", alloc, BackingContigLarge)
	va, err := mck.MmapAnon(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Phys().PinnedFrames(); got != (1<<20)/pagetable.Size4K {
		t.Fatalf("McKernel anonymous memory: %d frames pinned, want every frame", got)
	}
	v, ok := mck.VMAOf(va + 1234)
	if !ok || !v.Pinned {
		t.Fatal("VMA not marked pinned")
	}
	if err := mck.Munmap(va); err != nil {
		t.Fatal(err)
	}
	if alloc.Phys().PinnedFrames() != 0 {
		t.Fatal("pins leaked after munmap")
	}

	lin := NewProcess("linux-rank", alloc, BackingScattered4K)
	if _, err := lin.MmapAnon(1 << 20); err != nil {
		t.Fatal(err)
	}
	if alloc.Phys().PinnedFrames() != 0 {
		t.Fatal("Linux anonymous memory pinned at creation")
	}
}

func TestMunmapErrors(t *testing.T) {
	p := NewProcess("r", allocator(t), BackingContigLarge)
	if err := p.Munmap(0x1000); err == nil {
		t.Fatal("munmap of unknown base accepted")
	}
	va, _ := p.MmapAnon(8 << 10)
	if err := p.Munmap(va + pagetable.Size4K); err == nil {
		t.Fatal("munmap of non-base address accepted")
	}
	if err := p.Munmap(va); err != nil {
		t.Fatal(err)
	}
	if err := p.Munmap(va); err == nil {
		t.Fatal("double munmap accepted")
	}
}

func TestSegfault(t *testing.T) {
	p := NewProcess("r", allocator(t), BackingContigLarge)
	buf := make([]byte, 8)
	if err := p.ReadAt(0x1000, buf); err == nil {
		t.Fatal("read of unmapped user memory succeeded")
	}
	va, _ := p.MmapAnon(4 << 10)
	if err := p.WriteAt(va+4096-4, buf); err == nil {
		t.Fatal("write across end of mapping succeeded")
	}
}

func TestU64UserAccess(t *testing.T) {
	p := NewProcess("r", allocator(t), BackingScattered4K)
	va, _ := p.MmapAnon(8 << 10)
	if err := p.WriteU64(va+4092, 0x1122334455667788); err != nil {
		t.Fatal(err) // crosses a page boundary
	}
	v, err := p.ReadU64(va + 4092)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("v = %#x, %v", v, err)
	}
}

// scattered64K maps 64 KB of scattered 4K pages, checks that they are
// sixteen physically separate leaves, and writes them all once so that
// every frame behind them is backed.
func scattered64K(tb testing.TB) (*Process, VirtAddr) {
	p := NewProcess("r", allocator(tb), BackingScattered4K)
	va, err := p.MmapAnon(64 << 10)
	if err != nil {
		tb.Fatal(err)
	}
	if exts, err := p.PT.WalkExtents(va, 64<<10); err != nil || len(exts) != 16 {
		tb.Fatalf("64 KB scattered mapping: %d extents, %v; want 16", len(exts), err)
	}
	if err := p.WriteAt(va, make([]byte, 64<<10)); err != nil {
		tb.Fatal(err)
	}
	return p, va
}

// TestUserAccessAllocs: once the frames are backed, user memory access
// allocates nothing, a word inside a page or across two, and a 64 KB
// copy across sixteen leaves alike.
func TestUserAccessAllocs(t *testing.T) {
	p, va := scattered64K(t)
	words := testing.AllocsPerRun(100, func() {
		for _, at := range []VirtAddr{va + 8, va + 4092} {
			if err := p.WriteU64(at, 0x1122334455667788); err != nil {
				t.Fatal(err)
			}
			if v, err := p.ReadU64(at); err != nil || v != 0x1122334455667788 {
				t.Fatalf("ReadU64(%#x) = %#x, %v", at, v, err)
			}
		}
	})
	buf := make([]byte, 64<<10)
	copies := testing.AllocsPerRun(100, func() {
		if p.WriteAt(va, buf) != nil || p.ReadAt(va, buf) != nil {
			t.Fatal("64 KB access failed")
		}
	})
	if words != 0 || copies != 0 {
		t.Fatalf("allocs per run: word accesses %v, 64 KB WriteAt+ReadAt %v; want 0 and 0", words, copies)
	}
}

// BenchmarkWordAccess measures a ReadU64 and a WriteU64 inside a page
// of user memory.
func BenchmarkWordAccess(b *testing.B) {
	p, va := scattered64K(b)
	b.Run("ReadU64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.ReadU64(va + 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WriteU64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.WriteU64(va+8, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Property: mmap/munmap cycles with mixed sizes leak neither physical
// memory nor pins, for both backings.
func TestMmapLifecycleProperty(t *testing.T) {
	f := func(ops []uint16, contig bool) bool {
		pm, err := mem.NewPhysMem(
			mem.Region{Base: 0, Size: 32 << 20, Kind: mem.DDR4, Owner: "k"},
		)
		if err != nil {
			return false
		}
		backing := BackingScattered4K
		if contig {
			backing = BackingContigLarge
		}
		p := NewProcess("r", pm.Partition("k"), backing)
		var live []VirtAddr
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				if err := p.Munmap(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint64(op%200+1) * 4096
			va, err := p.MmapAnon(size)
			if err != nil {
				continue // exhaustion is fine
			}
			// Touch first and last byte.
			if err := p.WriteAt(va, []byte{1}); err != nil {
				return false
			}
			if err := p.WriteAt(va+VirtAddr(size-1), []byte{2}); err != nil {
				return false
			}
			live = append(live, va)
		}
		for _, va := range live {
			if err := p.Munmap(va); err != nil {
				return false
			}
		}
		return pm.PinnedFrames() == 0 && len(p.vmas) == 0
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
