package kernel

import (
	"errors"
	"fmt"
	"strings"
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
			wp.SubmitAndWait(p, "job", 0, func(ctx *Ctx, _ any) { ctx.Spend(100) }, nil)
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
	var busy time.Duration
	for _, b := range wp.Busy {
		busy += b
	}
	if busy != 600 {
		t.Fatalf("busy = %v", busy)
	}
}

func TestWorkerPoolSubmitNoWait(t *testing.T) {
	e := sim.NewEngine(1)
	wp := NewWorkerPool(e, "linux", []int{0})
	var ran []int
	run := func(ctx *Ctx, arg any) { ctx.Spend(50); ran = append(ran, *arg.(*int)) }
	first, second := 1, 2
	wp.Submit("irq", run, &first)
	wp.Submit("irq", run, &second)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[1 2]" || e.Now() != 100 {
		t.Fatalf("ran %v by %v, want [1 2] by 100ns: each Fn gets its own Arg, and no lead", ran, e.Now())
	}
}

// TestWorkerPoolLeadBeforeFn: a waited item's worker spends the lead
// before calling Fn, and both count as the CPU's busy time.
func TestWorkerPoolLeadBeforeFn(t *testing.T) {
	e := sim.NewEngine(1)
	wp := NewWorkerPool(e, "linux", []int{0})
	var began, done time.Duration
	e.Go("submitter", func(p *sim.Proc) {
		wp.SubmitAndWait(p, "job", 30, func(ctx *Ctx, arg any) {
			began = ctx.Now()
			ctx.Spend(arg.(time.Duration))
		}, time.Duration(100))
		done = p.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if began != 30 || done != 130 || wp.Busy[0] != 130 {
		t.Fatalf("Fn began at %v, done at %v, busy %v; want 30, 130, 130", began, done, wp.Busy[0])
	}
}

// TestWorkerPoolSteadyStateAllocs pins that a warm pool allocates
// nothing per item: a waited item comes back with its Cond when the
// submitter wakes, a fire-and-forget one when its Fn returns.
func TestWorkerPoolSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	wp := NewWorkerPool(e, "linux", []int{0, 1})
	job := func(ctx *Ctx, arg any) { ctx.Spend(*arg.(*time.Duration)) }
	cost := 100 * time.Nanosecond
	e.Go("submitter", func(p *sim.Proc) {
		waited := testing.AllocsPerRun(50, func() { wp.SubmitAndWait(p, "job", 10, job, &cost) })
		if waited != 0 {
			t.Errorf("SubmitAndWait: %v allocations, want 0", waited)
		}
		async := testing.AllocsPerRun(50, func() {
			wp.Submit("irq", job, &cost)
			p.Sleep(200)
		})
		if async != 0 {
			t.Errorf("Submit: %v allocations, want 0", async)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if wp.Executed != 102 {
		t.Fatalf("executed = %d, want 102", wp.Executed)
	}
}

// TestFreedWorkItemPanics: an item put back in its pool is poisoned,
// so queueing it again panics in the worker instead of running a stale
// function.
func TestFreedWorkItemPanics(t *testing.T) {
	e := sim.NewEngine(1)
	wp := NewWorkerPool(e, "linux", []int{0})
	item := wp.item("irq", func(*Ctx, any) {}, nil)
	wp.items.Put(item)
	wp.q.Push(item)
	var pe *sim.PanicError
	if err := e.Run(0); !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "kernel: WorkItem used after put") {
		t.Fatalf("Run = %v, want a freed-WorkItem panic", err)
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
	next, err := lock.readWord(lock.Layout.NextOff)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := lock.readWord(lock.Layout.OwnerOff)
	if err != nil || next != owner {
		t.Fatalf("held after all unlocks: next %d, owner %d, %v", next, owner, err)
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
	// The McKernel view: the same address through McKernel's page tables.
	lwkLock := &SpinLock{Space: lwk, Addr: addr, Layout: LinuxSpinLockLayout, SpinDelay: linLock.SpinDelay}

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
	badLock := &SpinLock{Space: lwk, Addr: addr, Layout: SpinLockLayout{NextOff: 4, OwnerOff: 0}, SpinDelay: linLock.SpinDelay}

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
