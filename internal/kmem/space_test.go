package kmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/vas"
)

// node builds a two-partition physical memory: Linux owns 16 MiB at 0,
// the LWK owns 32 MiB at 1 GiB.
func node(t *testing.T) *mem.PhysMem {
	t.Helper()
	pm, err := mem.NewPhysMem(
		mem.Region{Base: 0, Size: 16 << 20, Kind: DDR, Owner: "linux"},
		mem.Region{Base: 1 << 30, Size: 32 << 20, Kind: DDR, Owner: "lwk"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

const DDR = mem.DDR4

func linuxSpace(t *testing.T, pm *mem.PhysMem) *Space {
	t.Helper()
	s, err := NewSpace("linux", vas.LinuxLayout(), pm.Partition("linux"), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func lwkSpace(t *testing.T, pm *mem.PhysMem, layout vas.Layout) *Space {
	t.Helper()
	s, err := NewSpace("mckernel", layout, pm.Partition("lwk"), []int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKmallocKfreeRoundTrip(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	va, err := s.Kmalloc(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.LiveObjects() != 1 {
		t.Fatalf("live = %d", s.LiveObjects())
	}
	data := []byte("hello picodriver")
	if err := s.WriteAt(va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadAt(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("round trip mismatch")
	}
	if err := s.Kfree(va, 0); err != nil {
		t.Fatal(err)
	}
	if s.LiveObjects() != 0 {
		t.Fatalf("live after free = %d", s.LiveObjects())
	}
	// The freed chunk is reused from the same CPU cache.
	va2, err := s.Kmalloc(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if va2 != va {
		t.Fatalf("cache not reused: %#x vs %#x", va2, va)
	}
}

func TestKmallocLargeAllocation(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	va, err := s.Kmalloc(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(va+(1<<20)-8, 99); err != nil {
		t.Fatal(err)
	}
	if err := s.Kfree(va, 2); err != nil {
		t.Fatal(err)
	}
}

func TestKmallocForeignCPUFails(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	if _, err := s.Kmalloc(64, 99); err == nil {
		t.Fatal("kmalloc on foreign CPU succeeded")
	}
}

func TestForeignKfree(t *testing.T) {
	pm := node(t)
	lwk := lwkSpace(t, pm, vas.McKernelUnifiedLayout())
	va, err := lwk.Kmalloc(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	// CPU 0 is a Linux CPU: the unmodified allocator fails (§3.3).
	if err := lwk.Kfree(va, 0); err == nil {
		t.Fatal("foreign kfree succeeded without the extension")
	}
	lwk.EnableForeignFree()
	if err := lwk.Kfree(va, 0); err != nil {
		t.Fatal(err)
	}
	if lwk.ForeignFreeCount != 1 {
		t.Fatalf("foreign free count = %d", lwk.ForeignFreeCount)
	}
	// The deferred free is drained by the next owned-CPU allocation and
	// the chunk becomes reusable.
	if _, err := lwk.Kmalloc(128, 4); err != nil {
		t.Fatal(err)
	}
	if lwk.LiveObjects() != 1 {
		t.Fatalf("live = %d", lwk.LiveObjects())
	}
}

func TestKfreeUnknownFails(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	if err := s.Kfree(0xdead000, 0); err == nil {
		t.Fatal("kfree of unknown object succeeded")
	}
}

// TestCrossKernelPointer is the core §3.1 property: a structure
// kmalloc'd in Linux is dereferenceable from McKernel under the unified
// layout and faults under the original layout.
func TestCrossKernelPointer(t *testing.T) {
	pm := node(t)
	lin := linuxSpace(t, pm)
	uni := lwkSpace(t, pm, vas.McKernelUnifiedLayout())
	orig, err := NewSpace("mckernel-orig", vas.McKernelOriginalLayout(), pm.Partition("lwk"), []int{8})
	if err != nil {
		t.Fatal(err)
	}

	va, err := lin.Kmalloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lin.WriteU64(va, 0xabcdef); err != nil {
		t.Fatal(err)
	}

	got, err := uni.ReadU64(va)
	if err != nil {
		t.Fatalf("unified LWK cannot dereference Linux pointer: %v", err)
	}
	if got != 0xabcdef {
		t.Fatalf("unified read = %#x", got)
	}

	// Under the original layout the direct maps disagree: the same
	// virtual address is simply not mapped in the LWK.
	if _, err := orig.ReadU64(va); err == nil {
		t.Fatal("original layout dereferenced a Linux direct-map pointer; it must fault")
	}

	// And vice versa: LWK allocations are visible from Linux.
	lva, err := uni.Kmalloc(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := uni.WriteU64(lva, 42); err != nil {
		t.Fatal(err)
	}
	v, err := lin.ReadU64(lva)
	if err != nil || v != 42 {
		t.Fatalf("linux read of LWK object = %d, %v", v, err)
	}
}

func TestTextRegistrationAndCall(t *testing.T) {
	pm := node(t)
	lin := linuxSpace(t, pm)
	lwk := lwkSpace(t, pm, vas.McKernelUnifiedLayout())
	if err := lwk.LoadImage(1 << 20); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	cb, err := lwk.RegisterText("sdma_complete_mck", func(ctx any, arg, status uint64) error {
		got = append(got, arg, status)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds := []*Space{lin, lwk}

	// The owner can call its own symbol.
	fn, err := lwk.Resolve(worlds, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(nil, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Linux cannot call it before mapping the LWK image...
	if _, err := lin.Resolve(worlds, cb); err == nil {
		t.Fatal("Linux called into unmapped McKernel TEXT")
	}
	// ...and can afterwards (the §3.1 boot-time mapping).
	if err := lin.MapForeignImage(lwk); err != nil {
		t.Fatal(err)
	}
	fn, err = lin.Resolve(worlds, cb)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(nil, 2, 3); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("callback saw %v, want %v", got, want)
	}
}

func TestOriginalLayoutImageCollision(t *testing.T) {
	pm := node(t)
	lin := linuxSpace(t, pm)
	if err := lin.LoadImage(4 << 20); err != nil {
		t.Fatal(err)
	}
	orig, err := NewSpace("mckernel-orig", vas.McKernelOriginalLayout(), pm.Partition("lwk"), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.LoadImage(4 << 20); err != nil {
		t.Fatal(err)
	}
	// The original McKernel image occupies the Linux image range:
	// mapping it into Linux collides with Linux's own TEXT.
	if err := lin.MapForeignImage(orig); err == nil {
		t.Fatal("original-layout image mapped into Linux without collision")
	}
	// The unified image maps fine.
	uni := lwkSpace(t, pm, vas.McKernelUnifiedLayout())
	if err := uni.LoadImage(4 << 20); err != nil {
		t.Fatal(err)
	}
	if err := lin.MapForeignImage(uni); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterTextBeforeLoadImage(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	if _, err := s.RegisterText("f", func(any, uint64, uint64) error { return nil }); err == nil {
		t.Fatal("RegisterText without image succeeded")
	}
}

func TestReadUnmappedVAFails(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	buf := make([]byte, 8)
	if err := s.ReadAt(0xFFFFC90000000000, buf); err == nil {
		t.Fatal("read of unmapped vmalloc address succeeded")
	}
}

// Property: interleaved kmalloc, local and foreign kfree, double frees
// and frees of interior pointers agree with an oracle at every step:
// which calls fail, that no two live objects overlap, LiveObjects and
// ForeignFreeCount. A foreign free stays queued, neither live nor
// reusable and not freeable again, until the next kmalloc on an owned
// CPU drains it.
func TestKmallocProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		pm, err := mem.NewPhysMem(
			mem.Region{Base: 0, Size: 8 << 20, Kind: DDR, Owner: "k"},
		)
		if err != nil {
			return false
		}
		s, err := NewSpace("k", vas.LinuxLayout(), pm.Partition("k"), []int{0, 1})
		if err != nil {
			return false
		}
		s.EnableForeignFree()
		const foreignCPU = 9
		type obj struct {
			va   VirtAddr
			size uint64
		}
		var live []obj
		var freed []VirtAddr // freed and not handed out since
		queued := make(map[VirtAddr]bool)
		foreignFrees := 0
		for _, op := range ops {
			cpu := int(op>>1) % 2
			switch {
			case op%3 == 0 && len(live) > 0:
				i := int(op>>2) % len(live)
				va := live[i].va
				if op%5 == 0 {
					cpu = foreignCPU
					queued[va] = true
					foreignFrees++
				}
				if s.Kfree(va, cpu) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				freed = append(freed, va)
			case op%3 == 1 && len(freed) > 0 && op&0x100 == 0:
				if op%2 == 0 {
					cpu = foreignCPU
				}
				if s.Kfree(freed[int(op>>2)%len(freed)], cpu) == nil {
					return false // double free accepted
				}
			case op%3 == 1 && len(live) > 0:
				if s.Kfree(live[int(op>>2)%len(live)].va+8, cpu) == nil {
					return false // interior pointer accepted
				}
			default:
				size := uint64(op%5000) + 1
				va, err := s.Kmalloc(size, cpu)
				clear(queued) // drained by the kmalloc, successful or not
				if err != nil {
					continue // exhaustion acceptable
				}
				for _, o := range live {
					if va < o.va+VirtAddr(o.size) && o.va < va+VirtAddr(size) {
						return false // overlap
					}
				}
				live = append(live, obj{va, size})
				freed = slices.DeleteFunc(freed, func(f VirtAddr) bool { return f == va })
			}
			if s.LiveObjects() != len(live) || s.ForeignFreeCount != foreignFrees {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRefillFootprint pins what a slab costs to set up: one slab record
// and its slot-size array, a few KB, not one map entry per slot.
func TestRefillFootprint(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	cache := s.caches[0]
	refill := func() {
		if err := s.refill(cache, 0); err != nil {
			t.Fatal(err)
		}
		cache.free[0] = cache.free[0][:0] // keep the free list's capacity
	}
	refill()
	if got := testing.AllocsPerRun(50, refill); got != 2 {
		t.Errorf("class-64 refill: %v allocations, want 2", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for range runs {
		refill()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Errorf("class-64 refill allocates %d bytes, want at most 4 KB", per)
	}
}

func TestDoubleKfreeFails(t *testing.T) {
	pm := node(t)
	s := linuxSpace(t, pm)
	va, err := s.Kmalloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Keep a second object live so the slab itself stays allocated.
	if _, err := s.Kmalloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Kfree(va, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Kfree(va, 0); err == nil {
		t.Fatal("double kfree succeeded")
	}
}
