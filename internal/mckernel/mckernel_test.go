package mckernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ihk"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
	"repro/internal/vas"
)

// countingDriver tracks which side served each operation.
type countingDriver struct {
	writevs, ioctls int
}

func (d *countingDriver) Open(ctx *kernel.Ctx, f *linux.File) error    { return nil }
func (d *countingDriver) Release(ctx *kernel.Ctx, f *linux.File) error { return nil }
func (d *countingDriver) Writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, error) {
	d.writevs++
	return 1, nil
}
func (d *countingDriver) Ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	d.ioctls++
	return uint64(cmd), nil
}
func (d *countingDriver) Mmap(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	return 0x7000, nil
}

func lwkRig(t *testing.T) (*Kernel, *linux.Kernel, *countingDriver, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine(4)
	pr := model.Default()
	pm, err := mem.NewPhysMem(
		mem.Region{Base: 0, Size: 64 << 20, Kind: mem.DDR4, Owner: "linux"},
		mem.Region{Base: 1 << 30, Size: 64 << 20, Kind: mem.DDR4, Owner: "lwk"},
	)
	if err != nil {
		t.Fatal(err)
	}
	linSpace, err := kmem.NewSpace("linux", vas.LinuxLayout(), pm.Partition("linux"), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lwkSpace, err := kmem.NewSpace("lwk", vas.McKernelUnifiedLayout(), pm.Partition("lwk"), []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	lin := linux.NewKernel(e, &pr, linSpace, []int{0, 1}, 3)
	drv := &countingDriver{}
	if err := lin.RegisterDevice("/dev/kxp", drv); err != nil {
		t.Fatal(err)
	}
	del := ihk.NewDelegator(lin.Pool, &pr)
	mck := NewKernel(e, &pr, lwkSpace, lin, del)
	return mck, lin, drv, e
}

func TestOffloadedDeviceCalls(t *testing.T) {
	mck, _, drv, e := lwkRig(t)
	proc := mck.NewProcess("rank")
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 4}
		f, err := mck.Open(ctx, proc, "/dev/kxp")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := mck.Writev(ctx, f, nil); err != nil {
			t.Error(err)
		}
		if res, err := mck.Ioctl(ctx, f, 0x77, 0); err != nil || res != 0x77 {
			t.Errorf("ioctl = %d, %v", res, err)
		}
		if _, err := mck.MmapDevice(ctx, f, 1, 0); err != nil {
			t.Error(err)
		}
		if err := mck.Close(ctx, f); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if drv.writevs != 1 || drv.ioctls != 1 {
		t.Fatalf("driver calls: %d/%d", drv.writevs, drv.ioctls)
	}
	if mck.Del.Count < 5 {
		t.Fatalf("offload count = %d, want >= 5", mck.Del.Count)
	}
	for _, name := range []string{"open", "writev", "ioctl", "mmap", "close"} {
		if syscallCount(mck.Syscalls, name) == 0 {
			t.Errorf("LWK profiler missed %s", name)
		}
	}
}

func TestFastPathInterception(t *testing.T) {
	mck, _, drv, e := lwkRig(t)
	proc := mck.NewProcess("rank")
	fastWritev, fastIoctl := 0, 0
	fp := &FastPath{
		Writev: func(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, bool, error) {
			fastWritev++
			return 99, true, nil
		},
		Ioctl: func(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, bool, error) {
			if cmd == 0x10 {
				fastIoctl++
				return 1, true, nil
			}
			return 0, false, nil // fall back
		},
	}
	if err := mck.RegisterFastPath("/dev/kxp", fp); err != nil {
		t.Fatal(err)
	}
	if err := mck.RegisterFastPath("/dev/kxp", fp); err == nil {
		t.Fatal("duplicate fast path accepted")
	}
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 4}
		f, err := mck.Open(ctx, proc, "/dev/kxp")
		if err != nil {
			t.Error(err)
			return
		}
		n, err := mck.Writev(ctx, f, nil)
		if err != nil || n != 99 {
			t.Errorf("fast writev = %d, %v", n, err)
		}
		if _, err := mck.Ioctl(ctx, f, 0x10, 0); err != nil {
			t.Error(err)
		}
		// Unported command transparently reaches the Linux driver.
		if res, err := mck.Ioctl(ctx, f, 0x55, 0); err != nil || res != 0x55 {
			t.Errorf("fallback ioctl = %d, %v", res, err)
		}
		if fastWritev != 1 || fastIoctl != 1 || drv.writevs != 0 || drv.ioctls != 1 {
			t.Errorf("fast calls %d/%d, driver calls %d/%d; want 1/1, 0/1",
				fastWritev, fastIoctl, drv.writevs, drv.ioctls)
		}

		// A flagged descriptor bypasses the handlers: the same two ported
		// calls are offloaded to the Linux driver, one round trip each.
		f.NoFastPath = true
		offloads := mck.Del.Count
		if n, err := mck.Writev(ctx, f, nil); err != nil || n != 1 {
			t.Errorf("bypassed writev = %d, %v; want the driver's 1", n, err)
		}
		if res, err := mck.Ioctl(ctx, f, 0x10, 0); err != nil || res != 0x10 {
			t.Errorf("bypassed ioctl = %d, %v; want the driver's echo", res, err)
		}
		if fastWritev != 1 || fastIoctl != 1 {
			t.Errorf("fast handlers ran on a flagged descriptor: %d/%d", fastWritev, fastIoctl)
		}
		if drv.writevs != 1 || drv.ioctls != 2 || mck.Del.Count != offloads+2 {
			t.Errorf("bypass: driver calls %d/%d, %d offloads; want 1/2, 2",
				drv.writevs, drv.ioctls, mck.Del.Count-offloads)
		}
		// Only that descriptor: a second open of the device is fast-pathed.
		g, err := mck.Open(ctx, proc, "/dev/kxp")
		if err != nil {
			t.Error(err)
			return
		}
		if n, _ := mck.Writev(ctx, g, nil); n != 99 || fastWritev != 2 {
			t.Errorf("unflagged descriptor: writev = %d, %d fast calls", n, fastWritev)
		}

		// Flag off restores the fast path.
		f.NoFastPath = false
		if n, err := mck.Writev(ctx, f, nil); err != nil || n != 99 {
			t.Errorf("restored writev = %d, %v", n, err)
		}
		if _, err := mck.Ioctl(ctx, f, 0x10, 0); err != nil {
			t.Error(err)
		}
		if fastWritev != 3 || fastIoctl != 2 || drv.writevs != 1 || drv.ioctls != 2 {
			t.Errorf("after restore: fast calls %d/%d, driver calls %d/%d; want 3/2, 1/2",
				fastWritev, fastIoctl, drv.writevs, drv.ioctls)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Bypassed or not, each call is one entry of the one LWK profile.
	if w, i := syscallCount(mck.Syscalls, "writev"), syscallCount(mck.Syscalls, "ioctl"); w != 4 || i != 4 {
		t.Fatalf("profiled writev/ioctl = %d/%d, want 4/4", w, i)
	}
}

func TestLocalMemoryManagement(t *testing.T) {
	mck, _, _, e := lwkRig(t)
	proc := mck.NewProcess("rank")
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 4}
		before := mck.Del.Count
		pinned := mck.Space.Alloc.Phys().PinnedFrames()
		va, err := mck.MmapAnon(ctx, proc, 2<<20)
		if err != nil {
			t.Error(err)
			return
		}
		// Contiguous, large-page, pinned backing. A 4K unmap of a 2M
		// leaf's first page is refused (it would split the page) and
		// changes nothing; of a 4K leaf it succeeds.
		if proc.PT.Unmap(va, pagetable.Size4K) == nil {
			t.Error("LWK mmap used no large pages")
		}
		if got := mck.Space.Alloc.Phys().PinnedFrames() - pinned; got != (2<<20)/pagetable.Size4K {
			t.Errorf("LWK anonymous memory: %d frames pinned, want every frame", got)
		}
		if err := mck.Munmap(ctx, proc, va); err != nil {
			t.Error(err)
		}
		if mck.Del.Count != before {
			t.Error("local memory management offloaded to Linux")
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if syscallCount(mck.Syscalls, "mmap") != 1 || syscallCount(mck.Syscalls, "munmap") != 1 {
		t.Fatal("local syscalls not profiled")
	}
}

func TestComputeIsNoiseless(t *testing.T) {
	mck, _, _, e := lwkRig(t)
	var elapsed time.Duration
	e.Go("t", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 50; i++ {
			mck.Compute(p, time.Millisecond)
		}
		elapsed = p.Now() - start
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if elapsed != 50*time.Millisecond {
		t.Fatalf("LWK compute = %v, want exactly 50ms (no ticks, no daemons)", elapsed)
	}
}

func TestOffloadSimpleProfiled(t *testing.T) {
	mck, _, _, e := lwkRig(t)
	e.Go("t", func(p *sim.Proc) {
		mck.Misc(&kernel.Ctx{P: p, CPU: 4}, "read", 2*time.Microsecond)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if syscallCount(mck.Syscalls, "read") != 1 {
		t.Fatal("read not profiled")
	}
	if mck.Syscalls.Time("read") < 2*time.Microsecond {
		t.Fatal("offload cost missing from profile")
	}
}

// syscallCount is name's invocation count in prof.
func syscallCount(prof *trace.SyscallProfile, name string) uint64 {
	for _, e := range prof.Top(0) {
		if e.Name == name {
			return e.Count
		}
	}
	return 0
}

// TestFreedCallPanics: an offloaded-call record put back in its pool is
// poisoned, so one that reaches Linux again panics instead of running a
// stale operation.
func TestFreedCallPanics(t *testing.T) {
	mck, lin, _, e := lwkRig(t)
	c := mck.newCall(callMisc)
	mck.calls.Put(c)
	lin.Pool.Submit("stale", exec, c)
	var pe *sim.PanicError
	if err := e.Run(0); !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "mckernel: call used after put") {
		t.Fatalf("Run = %v, want a freed-call panic", err)
	}
}
