// Package linux models the Linux kernel side of the multi-kernel node:
// the VFS dispatch layer with registered character-device drivers,
// get_user_pages, the worker pool of Linux CPUs that executes IRQ
// handlers and offloaded system calls, proxy processes for McKernel
// applications, and the OS-noise model of a busy Linux node.
//
// Nothing in this package knows about the HFI driver: drivers register
// through the Driver interface exactly like real drivers register file
// operations with the VFS (§2.2.2). A compile-time check in the core
// package asserts that the HFI driver is, in turn, never modified for
// PicoDriver.
package linux

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
	"repro/internal/xrand"
)

// File is an open device file. In the multi-kernel case it is owned by
// the proxy process: McKernel "has no notion of file descriptors" and
// simply forwards the numbers Linux hands out (§2.1).
type File struct {
	ID   int
	Path string
	Drv  Driver
	// Proc is the application process whose memory driver operations
	// act on. For offloaded calls this access works because the proxy
	// process mirrors the application's address space. An owner handle,
	// not this file's state.
	Proc *uproc.Process `snap:"-"`
	// Private is the driver's per-file state: the kernel virtual
	// address of its hfi1_filedata analog. It lives in Linux kernel
	// memory; the PicoDriver dereferences it thanks to the unified
	// address space.
	Private kmem.VirtAddr
	// MmapCookie lets drivers stash mapping bookkeeping.
	MmapCookie any
	// NoFastPath makes McKernel offload this descriptor's writev and
	// ioctl even when a PicoDriver is registered for its device. The PSM
	// health machine sets it while the device's fast path is failed
	// over; Linux, which has no fast path, ignores it.
	NoFastPath bool
}

// Driver is the file-operations interface a character device registers
// with the VFS (open/writev/ioctl/mmap/close in the HFI case).
type Driver interface {
	Open(ctx *kernel.Ctx, f *File) error
	Release(ctx *kernel.Ctx, f *File) error
	Writev(ctx *kernel.Ctx, f *File, iov []IOVec) (uint64, error)
	Ioctl(ctx *kernel.Ctx, f *File, cmd uint32, arg uproc.VirtAddr) (uint64, error)
	// Mmap maps a driver-defined region (selected by kind) into the
	// process and returns its user address.
	Mmap(ctx *kernel.Ctx, f *File, kind uint32, length uint64) (uproc.VirtAddr, error)
}

// IOVec is one element of a writev vector.
type IOVec struct {
	Base uproc.VirtAddr
	Len  uint64
}

// Kernel is the Linux kernel of one node.
type Kernel struct {
	Space *kmem.Space
	// Pool executes kernel work on the node's Linux CPUs: IRQ handlers,
	// offloaded system calls, workqueue items.
	Pool *kernel.WorkerPool
	// Syscalls profiles time spent in system calls on this kernel.
	Syscalls *trace.SyscallProfile

	e       *sim.Engine
	pr      *model.Params
	devices map[string]Driver
	nextFD  int
	rng     *xrand.Rand
	// noisePhase staggers tick noise across callers deterministically.
	noisePhase uint64
}

// NewKernel builds the Linux kernel with its CPU pool.
func NewKernel(e *sim.Engine, pr *model.Params, space *kmem.Space, cpus []int, seed int64) *Kernel {
	return &Kernel{
		Space:    space,
		Pool:     kernel.NewWorkerPool(e, "linux", cpus),
		Syscalls: trace.NewSyscallProfile(),
		e:        e,
		pr:       pr,
		devices:  make(map[string]Driver),
		nextFD:   3,
		rng:      xrand.New(seed),
	}
}

// RegisterDevice adds a character device at path.
func (k *Kernel) RegisterDevice(path string, drv Driver) error {
	if _, dup := k.devices[path]; dup {
		return fmt.Errorf("linux: device %s already registered", path)
	}
	k.devices[path] = drv
	return nil
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.e }

// account closes out one syscall: it feeds the profiler and, when
// tracing is on, emits a span on the calling process's track.
func (k *Kernel) account(ctx *kernel.Ctx, name string, start time.Duration) {
	end := ctx.Now()
	k.Syscalls.Add(name, end-start)
	if rec := k.e.Recorder(); rec != nil {
		rec.Span(trace.CatLinux, name, ctx.P.Name(), start, end)
	}
}

// syscallOverhead is the entry/exit plus VFS dispatch cost of a local
// Linux system call on a device file.
func (k *Kernel) syscallOverhead(ctx *kernel.Ctx) {
	ctx.Spend(k.pr.SyscallEntry + k.pr.VFSDispatch)
}

// Open opens a device file on behalf of proc.
func (k *Kernel) Open(ctx *kernel.Ctx, proc *uproc.Process, path string) (*File, error) {
	start := ctx.Now()
	defer k.account(ctx, "open", start)
	k.syscallOverhead(ctx)
	drv, ok := k.devices[path]
	if !ok {
		return nil, fmt.Errorf("linux: no such device %s", path)
	}
	f := &File{ID: k.nextFD, Path: path, Drv: drv, Proc: proc}
	k.nextFD++
	if err := drv.Open(ctx, f); err != nil {
		return nil, err
	}
	return f, nil
}

// Close releases a device file.
func (k *Kernel) Close(ctx *kernel.Ctx, f *File) error {
	start := ctx.Now()
	defer k.account(ctx, "close", start)
	k.syscallOverhead(ctx)
	return f.Drv.Release(ctx, f)
}

// Writev issues a vectored write on a device file.
func (k *Kernel) Writev(ctx *kernel.Ctx, f *File, iov []IOVec) (uint64, error) {
	start := ctx.Now()
	defer k.account(ctx, "writev", start)
	k.syscallOverhead(ctx)
	return f.Drv.Writev(ctx, f, iov)
}

// Ioctl issues an ioctl on a device file.
func (k *Kernel) Ioctl(ctx *kernel.Ctx, f *File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	start := ctx.Now()
	defer k.account(ctx, "ioctl", start)
	k.syscallOverhead(ctx)
	return f.Drv.Ioctl(ctx, f, cmd, arg)
}

// MmapDevice maps a driver region into the calling process.
func (k *Kernel) MmapDevice(ctx *kernel.Ctx, f *File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	start := ctx.Now()
	defer k.account(ctx, "mmap", start)
	k.syscallOverhead(ctx)
	return f.Drv.Mmap(ctx, f, kind, length)
}

// MmapAnon serves an anonymous mmap for a native Linux process
// (scattered 4K backing) with a per-page population cost.
func (k *Kernel) MmapAnon(ctx *kernel.Ctx, proc *uproc.Process, size uint64) (uproc.VirtAddr, error) {
	start := ctx.Now()
	defer k.account(ctx, "mmap", start)
	ctx.Spend(k.pr.SyscallEntry)
	npages := (size + mem.PageSize4K - 1) / mem.PageSize4K
	ctx.Spend(time.Duration(npages) * 180 * time.Nanosecond)
	return proc.MmapAnon(size)
}

// Munmap tears a mapping down.
func (k *Kernel) Munmap(ctx *kernel.Ctx, proc *uproc.Process, va uproc.VirtAddr) error {
	start := ctx.Now()
	defer k.account(ctx, "munmap", start)
	ctx.Spend(k.pr.SyscallEntry)
	v, ok := proc.VMAOf(va)
	if ok {
		npages := v.Range.Size / mem.PageSize4K
		ctx.Spend(time.Duration(npages) * 90 * time.Nanosecond)
	}
	return proc.Munmap(va)
}

// Misc models a miscellaneous named system call of fixed cost (reads of
// /proc files, nanosleep, ...), so syscall profiles include them.
func (k *Kernel) Misc(ctx *kernel.Ctx, name string, cost time.Duration) {
	start := ctx.Now()
	defer k.account(ctx, name, start)
	ctx.Spend(k.pr.SyscallEntry + cost)
}

// GetUserPages pins the user pages backing [va, va+length) and appends
// one extent per 4 KiB page to dst — no merging across page boundaries,
// which is precisely why the stock HFI driver never exceeds PAGE_SIZE
// SDMA requests (§3.4). On a fault it pins nothing and returns dst as
// it was.
func (k *Kernel) GetUserPages(ctx *kernel.Ctx, proc *uproc.Process, dst []mem.Extent, va uproc.VirtAddr, length uint64) ([]mem.Extent, error) {
	pages, err := proc.PT.PagesInto(dst, va, length)
	if err != nil {
		return dst, fmt.Errorf("linux: get_user_pages: %w", err)
	}
	added := pages[len(dst):]
	ctx.Spend(time.Duration(len(added)) * k.pr.GetUserPagesPerPage)
	for _, pg := range added {
		proc.Alloc.Phys().Pin(pg)
	}
	return pages, nil
}

// PutUserPages releases pins taken by GetUserPages.
func (k *Kernel) PutUserPages(proc *uproc.Process, pages []mem.Extent) {
	for _, pg := range pages {
		proc.Alloc.Phys().Unpin(pg)
	}
}

// Compute advances an application process by d of pure computation on a
// Linux application core, adding OS noise: the residual timer tick plus
// occasional daemon activity. Even with nohz_full and HPC tuning (the
// Fujitsu production configuration of §4.1), some interference remains —
// this is what McKernel's isolated cores avoid.
func (k *Kernel) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	noise := time.Duration(0)
	// Residual tick: one event per NoiseTickPeriod, phase-staggered.
	k.noisePhase++
	ticks := int64(d / k.pr.NoiseTickPeriod)
	if k.noisePhase%2 == 0 && d%k.pr.NoiseTickPeriod != 0 {
		ticks++
	}
	noise += time.Duration(ticks) * k.pr.NoiseTickCost
	// Daemon interference: Bernoulli per expected count.
	expect := float64(d) / float64(k.pr.NoiseDaemonPeriod)
	for expect > 0 {
		pr := expect
		if pr > 1 {
			pr = 1
		}
		if k.rng.Float64() < pr {
			noise += k.pr.NoiseDaemonCost
		}
		expect--
	}
	p.Sleep(d + noise)
}
