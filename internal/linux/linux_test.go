package linux

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
	"repro/internal/vas"
)

func testKernel(t *testing.T) (*Kernel, *sim.Engine, *mem.PhysMem) {
	t.Helper()
	e := sim.NewEngine(2)
	pr := model.Default()
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 128 << 20, Kind: mem.DDR4, Owner: "linux"})
	if err != nil {
		t.Fatal(err)
	}
	space, err := kmem.NewSpace("linux", vas.LinuxLayout(), pm.Partition("linux"), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return NewKernel(e, &pr, space, []int{0, 1, 2, 3}, 7), e, pm
}

// fakeDriver records calls.
type fakeDriver struct {
	opened, released int
	lastCmd          uint32
}

func (d *fakeDriver) Open(ctx *kernel.Ctx, f *File) error    { d.opened++; return nil }
func (d *fakeDriver) Release(ctx *kernel.Ctx, f *File) error { d.released++; return nil }
func (d *fakeDriver) Writev(ctx *kernel.Ctx, f *File, iov []IOVec) (uint64, error) {
	var n uint64
	for _, v := range iov {
		n += v.Len
	}
	return n, nil
}
func (d *fakeDriver) Ioctl(ctx *kernel.Ctx, f *File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	d.lastCmd = cmd
	return 42, nil
}
func (d *fakeDriver) Mmap(ctx *kernel.Ctx, f *File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	return 0x1000, nil
}

func TestVFSDispatchAndProfiling(t *testing.T) {
	k, e, _ := testKernel(t)
	drv := &fakeDriver{}
	if err := k.RegisterDevice("/dev/fake", drv); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterDevice("/dev/fake", drv); err == nil {
		t.Fatal("duplicate device accepted")
	}
	proc := uproc.NewProcess("p", k.Space.Alloc, uproc.BackingScattered4K)
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		if _, err := k.Open(ctx, proc, "/dev/nope"); err == nil {
			t.Error("unknown device opened")
		}
		f, err := k.Open(ctx, proc, "/dev/fake")
		if err != nil {
			t.Error(err)
			return
		}
		if f.ID < 3 {
			t.Error("fd below 3")
		}
		n, err := k.Writev(ctx, f, []IOVec{{Base: 0, Len: 100}, {Base: 0, Len: 28}})
		if err != nil || n != 128 {
			t.Errorf("writev = %d, %v", n, err)
		}
		if _, err := k.Ioctl(ctx, f, 0xBEEF, 0); err != nil {
			t.Error(err)
		}
		if drv.lastCmd != 0xBEEF {
			t.Error("ioctl not dispatched")
		}
		if err := k.Close(ctx, f); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"open", "writev", "ioctl", "close"} {
		if syscallCount(k.Syscalls, name) == 0 {
			t.Errorf("syscall %s not profiled", name)
		}
		if k.Syscalls.Time(name) <= 0 {
			t.Errorf("syscall %s has no time", name)
		}
	}
	if drv.opened != 1 || drv.released != 1 {
		t.Fatalf("driver calls: open=%d release=%d", drv.opened, drv.released)
	}
}

func TestGetUserPagesPinsPerPage(t *testing.T) {
	k, e, pm := testKernel(t)
	proc := uproc.NewProcess("p", k.Space.Alloc, uproc.BackingScattered4K)
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		va, err := proc.MmapAnon(64 << 10)
		if err != nil {
			t.Error(err)
			return
		}
		pages, err := k.GetUserPages(ctx, proc, nil, va+100, 20<<10)
		if err != nil {
			t.Error(err)
			return
		}
		// 20KB starting 100 bytes in: 6 pages touched, none merged.
		if len(pages) != 6 {
			t.Errorf("pages = %d", len(pages))
		}
		for _, pg := range pages {
			if pg.Len > mem.PageSize4K {
				t.Error("get_user_pages merged across a page boundary")
			}
		}
		if pm.PinnedFrames() != 6 {
			t.Errorf("pinned = %d", pm.PinnedFrames())
		}
		k.PutUserPages(proc, pages)
		if pm.PinnedFrames() != 0 {
			t.Error("pins leaked")
		}
		// Fault path: dst comes back as it was, and nothing is pinned.
		got, err := k.GetUserPages(ctx, proc, pages[:1], 0xdead0000, 4096)
		if err == nil {
			t.Error("gup over unmapped range succeeded")
		}
		if len(got) != 1 || pm.PinnedFrames() != 0 {
			t.Errorf("faulted gup returned %d extents with %d frames pinned, want 1 and 0", len(got), pm.PinnedFrames())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestComputeAddsNoise(t *testing.T) {
	k, e, _ := testKernel(t)
	var elapsed time.Duration
	e.Go("t", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 50; i++ {
			k.Compute(p, time.Millisecond)
		}
		elapsed = p.Now() - start
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if elapsed <= 50*time.Millisecond {
		t.Fatal("Linux compute added no noise")
	}
	if elapsed > 55*time.Millisecond {
		t.Fatalf("noise unreasonably high: %v for 50ms of work", elapsed)
	}
}

func TestMmapAnonScatteredBacking(t *testing.T) {
	k, e, _ := testKernel(t)
	proc := uproc.NewProcess("p", k.Space.Alloc, uproc.BackingScattered4K)
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		va, err := k.MmapAnon(ctx, proc, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		exts, err := proc.PT.WalkExtents(va, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if len(exts) < 128 {
			t.Errorf("Linux anonymous backing too contiguous: %d extents", len(exts))
		}
		if err := k.Munmap(ctx, proc, va); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if syscallCount(k.Syscalls, "mmap") != 1 || syscallCount(k.Syscalls, "munmap") != 1 {
		t.Fatal("memory syscalls not profiled")
	}
}

func TestMiscProfiled(t *testing.T) {
	k, e, _ := testKernel(t)
	e.Go("t", func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		k.Misc(ctx, "nanosleep", 2*time.Microsecond)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if syscallCount(k.Syscalls, "nanosleep") != 1 {
		t.Fatal("misc syscall not profiled")
	}
}

var _ = fmt.Sprint // keep fmt for future debug use

// syscallCount is name's invocation count in prof.
func syscallCount(prof *trace.SyscallProfile, name string) uint64 {
	for _, e := range prof.Top(0) {
		if e.Name == name {
			return e.Count
		}
	}
	return 0
}
