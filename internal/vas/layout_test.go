package vas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

func TestFigure3Constants(t *testing.T) {
	lin := LinuxLayout()
	if lin.DirectMap.Start != 0xFFFF880000000000 {
		t.Fatalf("Linux direct map base = %#x", lin.DirectMap.Start)
	}
	if lin.DirectMap.Size != 64<<40 {
		t.Fatalf("Linux direct map size = %d", lin.DirectMap.Size)
	}
	if lin.Image.Start != 0xFFFFFFFF80000000 {
		t.Fatalf("Linux image base = %#x", lin.Image.Start)
	}
	if lin.ModuleSpace.Start != 0xFFFFFFFFA0000000 {
		t.Fatalf("module base = %#x", lin.ModuleSpace.Start)
	}
	if lin.ModuleSpace.End() != 0xFFFFFFFFFF600000 {
		t.Fatalf("module end = %#x", lin.ModuleSpace.End())
	}
}

func TestOriginalLayoutConflictsWithLinux(t *testing.T) {
	lin, orig := LinuxLayout(), McKernelOriginalLayout()
	if !lin.Image.Overlaps(orig.Image) {
		t.Fatal("original McKernel image should overlap the Linux image (that is the problem PicoDriver fixes)")
	}
	if lin.DirectMap.Start == orig.DirectMap.Start {
		t.Fatal("original McKernel direct map should differ from Linux")
	}
	if err := CheckUnified(lin, orig); err == nil {
		t.Fatal("CheckUnified accepted the original layout")
	}
}

func TestUnifiedLayoutSatisfiesRequirements(t *testing.T) {
	lin, uni := LinuxLayout(), McKernelUnifiedLayout()
	if err := CheckUnified(lin, uni); err != nil {
		t.Fatal(err)
	}
	// Image sits at the very top of the module space.
	if uni.Image.End() != lin.ModuleSpace.End() {
		t.Fatalf("unified image ends at %#x, module space ends at %#x",
			uni.Image.End(), lin.ModuleSpace.End())
	}
	// Same direct-map translation in both kernels.
	pa := mem.PhysAddr(0x123456000)
	if lin.DirectMapVirt(pa) != uni.DirectMapVirt(pa) {
		t.Fatal("direct map translation differs between kernels")
	}
}

func TestRangeAllocatorBasic(t *testing.T) {
	w := Range{Start: 0xFFFFFFFFA0000000, Size: 1 << 20}
	a := NewRangeAllocator(w, pagetable.Size4K, 0)
	r1, err := a.Reserve(0x3000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Reserve(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Overlaps(r2) {
		t.Fatal("reservations overlap")
	}
	if err := a.Release(r1); err != nil {
		t.Fatal(err)
	}
	// The freed hole is reused (first fit).
	r3, err := a.Reserve(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Start != r1.Start {
		t.Fatalf("first fit not honored: got %#x want %#x", r3.Start, r1.Start)
	}
}

func TestRangeAllocatorGuard(t *testing.T) {
	w := Range{Start: 0x1000000, Size: 1 << 20}
	a := NewRangeAllocator(w, pagetable.Size4K, pagetable.Size4K)
	r1, _ := a.Reserve(0x1000)
	r2, _ := a.Reserve(0x1000)
	if r2.Start < r1.End()+pagetable.Size4K {
		t.Fatalf("guard not respected: %#x after %#x", r2.Start, r1.End())
	}
}

func TestRangeAllocatorExhaustion(t *testing.T) {
	w := Range{Start: 0x1000000, Size: 0x4000}
	a := NewRangeAllocator(w, pagetable.Size4K, 0)
	if _, err := a.Reserve(0x5000); err == nil {
		t.Fatal("oversized reservation accepted")
	}
	if _, err := a.Reserve(0x4000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(0x1000); err == nil {
		t.Fatal("reservation from full window accepted")
	}
}

func TestReleaseUnknown(t *testing.T) {
	a := NewRangeAllocator(Range{Start: 0x1000, Size: 0x10000}, 0, 0)
	if err := a.Release(Range{Start: 0x1000, Size: 0x1000}); err == nil {
		t.Fatal("release of unknown range accepted")
	}
}

// Property: random reserve/release interleavings never produce
// overlapping live reservations and never exceed the window.
func TestRangeAllocatorProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		w := Range{Start: 0x2000000, Size: 256 << 10}
		a := NewRangeAllocator(w, pagetable.Size4K, 0)
		var live []Range
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				if err := a.Release(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			r, err := a.Reserve(uint64(op%15+1) * pagetable.Size4K)
			if err != nil {
				continue // window full is acceptable
			}
			if r.Start < w.Start || r.End() > w.End() {
				return false
			}
			for _, o := range live {
				if o.Overlaps(r) {
					return false
				}
			}
			live = append(live, r)
		}
		return len(a.used) == len(live)
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
