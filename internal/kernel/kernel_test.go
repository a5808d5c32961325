package kernel

import (
	"testing"
	"time"

	"repro/internal/kmem"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vas"
)

func TestWorkerPoolFIFOAndContention(t *testing.T) {
	e := sim.NewEngine(1)
	wp := NewWorkerPool(e, "linux", []int{0, 1})
	var finished []time.Duration
	// 6 jobs of 100ns on 2 CPUs: completions at 100,100,200,200,300,300.
	for i := 0; i < 6; i++ {
		e.Go("submitter", func(p *sim.Proc) {
			wp.SubmitAndWait(p, "job", func(ctx *Ctx) { ctx.Spend(100) })
			finished = append(finished, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100, 100, 200, 200, 300, 300}
	if len(finished) != 6 {
		t.Fatalf("finished = %v", finished)
	}
	for i, w := range want {
		if finished[i] != w {
			t.Fatalf("finish[%d] = %v, want %v (all: %v)", i, finished[i], w, finished)
		}
	}
	if wp.Executed != 6 {
		t.Fatalf("executed = %d", wp.Executed)
	}
	if wp.TotalBusy() != 600 {
		t.Fatalf("busy = %v", wp.TotalBusy())
	}
}

func TestWorkerPoolSubmitNoWait(t *testing.T) {
	e := sim.NewEngine(1)
	wp := NewWorkerPool(e, "linux", []int{0})
	ran := 0
	wp.Submit("irq", func(ctx *Ctx) { ctx.Spend(50); ran++ })
	wp.Submit("irq", func(ctx *Ctx) { ran++ })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d", ran)
	}
}

func lockSpace(t *testing.T) (*kmem.Space, *kmem.Space) {
	t.Helper()
	pm, err := mem.NewPhysMem(
		mem.Region{Base: 0, Size: 4 << 20, Kind: mem.DDR4, Owner: "linux"},
		mem.Region{Base: 1 << 30, Size: 4 << 20, Kind: mem.DDR4, Owner: "lwk"},
	)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := kmem.NewSpace("linux", vas.LinuxLayout(), pm.Partition("linux"), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lwk, err := kmem.NewSpace("mck", vas.McKernelUnifiedLayout(), pm.Partition("lwk"), []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	return lin, lwk
}

func TestSpinLockMutualExclusion(t *testing.T) {
	lin, _ := lockSpace(t)
	e := sim.NewEngine(1)
	addr, err := lin.Kmalloc(SpinLockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := NewSpinLock(lin, addr, LinuxSpinLockLayout)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		e.Go("locker", func(p *sim.Proc) {
			if err := lock.Lock(p); err != nil {
				t.Error(err)
				return
			}
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(100) // critical section
			inside--
			if err := lock.Unlock(); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d", maxInside)
	}
	held, err := lock.Held()
	if err != nil || held {
		t.Fatalf("held after all unlocks = %v, %v", held, err)
	}
}

// TestCrossKernelSpinLock takes the same lock alternately from the Linux
// view and from the McKernel view (through the unified address space).
func TestCrossKernelSpinLock(t *testing.T) {
	lin, lwk := lockSpace(t)
	e := sim.NewEngine(1)
	addr, err := lin.Kmalloc(SpinLockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	linLock, err := NewSpinLock(lin, addr, LinuxSpinLockLayout)
	if err != nil {
		t.Fatal(err)
	}
	lwkLock := linLock.View(lwk, LinuxSpinLockLayout)

	inside := 0
	violation := false
	hold := func(lk *SpinLock) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				if err := lk.Lock(p); err != nil {
					t.Error(err)
					return
				}
				inside++
				if inside > 1 {
					violation = true
				}
				p.Sleep(70)
				inside--
				if err := lk.Unlock(); err != nil {
					t.Error(err)
				}
				p.Sleep(30)
			}
		}
	}
	e.Go("linux-side", hold(linLock))
	e.Go("mck-side", hold(lwkLock))
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if violation {
		t.Fatal("cross-kernel mutual exclusion violated")
	}
}

// TestIncompatibleSpinLockLayout shows why lock-implementation
// compatibility matters: an LWK using different word offsets on the same
// memory does not exclude against Linux.
func TestIncompatibleSpinLockLayout(t *testing.T) {
	lin, lwk := lockSpace(t)
	e := sim.NewEngine(1)
	addr, err := lin.Kmalloc(SpinLockSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	linLock, err := NewSpinLock(lin, addr, LinuxSpinLockLayout)
	if err != nil {
		t.Fatal(err)
	}
	// Swapped word layout: reads the dispenser as the owner word.
	badLock := linLock.View(lwk, SpinLockLayout{NextOff: 4, OwnerOff: 0})

	inside := 0
	violation := false
	done := 0
	e.Go("linux-side", func(p *sim.Proc) {
		if err := linLock.Lock(p); err != nil {
			t.Error(err)
			return
		}
		inside++
		if inside > 1 {
			violation = true
		}
		p.Sleep(500)
		inside--
		_ = linLock.Unlock()
		done++
	})
	e.Go("mck-side", func(p *sim.Proc) {
		p.Sleep(100) // arrive while Linux holds the lock
		if err := badLock.Lock(p); err != nil {
			t.Error(err)
			return
		}
		inside++
		if inside > 1 {
			violation = true
		}
		p.Sleep(100)
		inside--
		_ = badLock.Unlock()
		done++
	})
	// Breakage manifests either as a mutual-exclusion violation or as a
	// livelock (the run-limit expires before both sides finish).
	if err := e.Run(2_000_000); err != nil {
		return
	}
	if !violation && done == 2 {
		t.Fatal("incompatible layouts still worked; the compatibility requirement would be vacuous")
	}
}

func TestSpinLockUnmappedFaults(t *testing.T) {
	lin, _ := lockSpace(t)
	if _, err := NewSpinLock(lin, 0xFFFFC90000000000, LinuxSpinLockLayout); err == nil {
		t.Fatal("lock on unmapped memory accepted")
	}
}
