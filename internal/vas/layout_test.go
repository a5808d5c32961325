package vas

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// sortedReserve and sortedRelease are RangeAllocator's Reserve and
// Release as they were before reservations were inserted in place: the
// same first-fit scan, then append and sort the whole list; release by
// linear search. TestRangeAllocatorMatchesSortedOracle runs them as the
// reference.
func sortedReserve(a *RangeAllocator, size uint64) (Range, error) {
	size = (size + a.align - 1) &^ (a.align - 1)
	cursor := a.window.Start
	for _, u := range a.used {
		if uint64(u.Start-cursor) >= size+a.guard {
			break
		}
		next := u.End() + VirtAddr(a.guard)
		if next > cursor {
			cursor = alignUp(next, a.align)
		}
	}
	r := Range{Start: cursor, Size: size}
	if r.End() > a.window.End() {
		return Range{}, fmt.Errorf("window exhausted")
	}
	a.used = append(a.used, r)
	sort.Slice(a.used, func(i, j int) bool { return a.used[i].Start < a.used[j].Start })
	return r, nil
}

func sortedRelease(a *RangeAllocator, r Range) error {
	for i, u := range a.used {
		if u == r {
			a.used = append(a.used[:i], a.used[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("unknown range")
}

// Property: random Reserve/Release sequences, including releases of
// ranges never reserved, give the same ranges and the same errors as
// the append-and-sort reference, and keep used sorted by Start,
// non-overlapping, guard-separated and inside the window.
func TestRangeAllocatorMatchesSortedOracle(t *testing.T) {
	for _, geom := range []struct{ align, guard uint64 }{
		{pagetable.Size4K, 0},
		{pagetable.Size4K, pagetable.Size4K},
		{16 * pagetable.Size4K, 3 * pagetable.Size4K},
	} {
		f := func(ops []uint16) bool {
			w := Range{Start: 0x2000000, Size: 512 << 10}
			a := NewRangeAllocator(w, geom.align, geom.guard)
			ref := NewRangeAllocator(w, geom.align, geom.guard)
			var live []Range
			for _, op := range ops {
				var err, refErr error
				switch {
				case op%4 == 0 && len(live) > 0:
					i := int(op>>2) % len(live)
					err, refErr = a.Release(live[i]), sortedRelease(ref, live[i])
					live = slices.Delete(live, i, i+1)
				case op%4 == 1:
					// Not a reservation: a start inside the window, most
					// often off every live range's.
					bogus := Range{Start: w.Start + VirtAddr(op>>2)*pagetable.Size4K, Size: pagetable.Size4K}
					err, refErr = a.Release(bogus), sortedRelease(ref, bogus)
				default:
					size := uint64(op>>2%24+1) * pagetable.Size4K
					var r, refR Range
					r, err = a.Reserve(size)
					refR, refErr = sortedReserve(ref, size)
					if r != refR {
						t.Logf("Reserve(%#x) = %#x+%#x, reference %#x+%#x", size, r.Start, r.Size, refR.Start, refR.Size)
						return false
					}
					if err == nil {
						live = append(live, r)
					}
				}
				if (err == nil) != (refErr == nil) || !slices.Equal(a.used, ref.used) {
					t.Logf("op %#x: err %v, reference %v; used %v, reference %v", op, err, refErr, a.used, ref.used)
					return false
				}
				for i, u := range a.used {
					if u.Start < w.Start || u.End() > w.End() {
						return false
					}
					if i > 0 && u.Start < a.used[i-1].End()+VirtAddr(geom.guard) {
						return false
					}
				}
			}
			return len(a.used) == len(live)
		}
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(23))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("align %#x guard %#x: %v", geom.align, geom.guard, err)
		}
	}
}
