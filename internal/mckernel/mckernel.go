// Package mckernel models the McKernel lightweight co-kernel: a small
// set of locally implemented, performance-sensitive system calls (its
// own memory management above all), with everything else delegated to
// Linux through IHK's IKC layer and the proxy process (§2.1).
//
// Device files are a hybrid: open/close/mmap are always offloaded;
// writev and ioctl are offloaded too — unless a PicoDriver has
// registered a fast path for the device, in which case the performance-
// critical subset executes locally on the LWK core (§3). A descriptor
// flagged linux.File.NoFastPath skips the PicoDriver: that is how a
// failed-over fast path is bypassed, one open file at a time.
package mckernel

import (
	"fmt"
	"time"

	"repro/internal/ihk"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
)

// LWK syscall entry cost: far below Linux (no VFS, flat dispatch).
const lwkSyscallEntry = 120 * time.Nanosecond

// FastPath is the hook a PicoDriver registers for a device. Handlers
// return handled=false to fall back to offloading (e.g. an ioctl command
// outside the ported subset).
type FastPath struct {
	Writev func(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, bool, error)
	Ioctl  func(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, bool, error)
}

// Kernel is the McKernel instance of one node.
type Kernel struct {
	Space *kmem.Space
	// Del is the syscall delegation channel to Linux.
	Del *ihk.Delegator
	// Syscalls is the in-house kernel profiler (Figures 8 and 9).
	Syscalls *trace.SyscallProfile

	lin   *linux.Kernel
	pr    *model.Params
	e     *sim.Engine
	fast  map[string]*FastPath // by device path
	calls pool.Pool[*call]     `snap:"-"` // offloaded-call records
}

// NewKernel creates the LWK bound to its node's Linux kernel.
func NewKernel(e *sim.Engine, pr *model.Params, space *kmem.Space, lin *linux.Kernel, del *ihk.Delegator) *Kernel {
	k := &Kernel{
		Space:    space,
		Del:      del,
		Syscalls: trace.NewSyscallProfile(),
		lin:      lin,
		pr:       pr,
		e:        e,
		fast:     make(map[string]*FastPath),
	}
	k.calls = pool.New("mckernel: call", nil, func() *call { return &call{k: k} },
		func(c *call) { *c = call{k: c.k} })
	return k
}

// account closes out one syscall: it feeds the in-house profiler and,
// when tracing is on, emits a span on the calling process's track.
func (k *Kernel) account(ctx *kernel.Ctx, name string, start time.Duration) {
	end := ctx.Now()
	k.Syscalls.Add(name, end-start)
	if rec := k.e.Recorder(); rec != nil {
		rec.Span(trace.CatMcKernel, name, ctx.P.Name(), start, end)
	}
}

// RegisterFastPath installs a PicoDriver's fast-path handlers for a
// device path.
func (k *Kernel) RegisterFastPath(path string, fp *FastPath) error {
	if _, dup := k.fast[path]; dup {
		return fmt.Errorf("mckernel: fast path for %s already registered", path)
	}
	k.fast[path] = fp
	return nil
}

// NewProcess creates an application process with McKernel's memory
// policy: physically contiguous, large-page-mapped, pinned anonymous
// memory from the LWK partition.
func (k *Kernel) NewProcess(name string) *uproc.Process {
	return uproc.NewProcess(name, k.Space.Alloc, uproc.BackingContigLarge)
}

// enter charges the LWK syscall entry cost and returns the time the call
// began, for account: every system call opens with
// `defer k.account(ctx, name, k.enter(ctx))`.
func (k *Kernel) enter(ctx *kernel.Ctx) time.Duration {
	start := ctx.Now()
	ctx.Spend(lwkSyscallEntry)
	return start
}

// callOp names the Linux system call an offloaded call runs.
type callOp uint8

const (
	callOpen callOp = iota
	callClose
	callWritev
	callIoctl
	callMmap
	callMisc
)

// call is one offloaded system call: its arguments on the way to Linux
// and its result on the way back. Records are recycled once the caller
// has read the result, poisoned until reused.
type call struct {
	pool.Slot
	k      *Kernel
	op     callOp
	proc   *uproc.Process
	f      *linux.File
	path   string
	iov    []linux.IOVec
	cmd    uint32 // ioctl command, or mmap kind
	arg    uproc.VirtAddr
	length uint64
	cost   time.Duration
	// Results.
	res  uint64
	file *linux.File
	err  error
}

// exec runs the *call arg on a Linux CPU, in the proxy's context.
func exec(lctx *kernel.Ctx, arg any) {
	c := arg.(*call)
	c.Check()
	lin := c.k.lin
	switch c.op {
	case callOpen:
		c.file, c.err = lin.Open(lctx, c.proc, c.path)
	case callClose:
		c.err = lin.Close(lctx, c.f)
	case callWritev:
		c.res, c.err = lin.Writev(lctx, c.f, c.iov)
	case callIoctl:
		c.res, c.err = lin.Ioctl(lctx, c.f, c.cmd, c.arg)
	case callMmap:
		var va uproc.VirtAddr
		va, c.err = lin.MmapDevice(lctx, c.f, c.cmd, c.length)
		c.res = uint64(va)
	case callMisc:
		lctx.Spend(c.cost)
	}
}

// newCall returns a cleared call record for op.
func (k *Kernel) newCall(op callOp) *call {
	c := k.calls.Get()
	c.op = op
	return c
}

// offload delegates c to Linux: it runs on a Linux CPU behind an IKC
// round trip and its result travels back to the LWK core. c goes back
// to the pool once its result is read.
func (k *Kernel) offload(ctx *kernel.Ctx, label string, c *call) (uint64, *linux.File, error) {
	k.Del.Offload(ctx.P, label, exec, c)
	res, file, err := c.res, c.file, c.err
	k.calls.Put(c)
	return res, file, err
}

// Pools returns the counts of the kernel's offloaded-call pool.
func (k *Kernel) Pools() []pool.Stats { return []pool.Stats{k.calls.Stats()} }

// fastPath returns the PicoDriver handlers that serve f: nil when the
// device has none, or while the descriptor bypasses them (failover).
func (k *Kernel) fastPath(f *linux.File) *FastPath {
	if f.NoFastPath {
		return nil
	}
	return k.fast[f.Path]
}

// Open opens a device file. McKernel has no VFS: the call is offloaded
// and the Linux file object is returned; McKernel merely forwards the
// descriptor (§2.1).
func (k *Kernel) Open(ctx *kernel.Ctx, proc *uproc.Process, path string) (*linux.File, error) {
	defer k.account(ctx, "open", k.enter(ctx))
	c := k.newCall(callOpen)
	c.proc, c.path = proc, path
	_, f, err := k.offload(ctx, "open:"+path, c)
	return f, err
}

// Close releases a device file (offloaded).
func (k *Kernel) Close(ctx *kernel.Ctx, f *linux.File) error {
	defer k.account(ctx, "close", k.enter(ctx))
	c := k.newCall(callClose)
	c.f = f
	_, _, err := k.offload(ctx, "close", c)
	return err
}

// Writev submits a vectored write. With a PicoDriver present the SDMA
// fast path runs right here on the LWK core; otherwise — or while the
// descriptor bypasses it — the call pays the full offload round trip
// plus Linux-CPU queueing.
func (k *Kernel) Writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, error) {
	defer k.account(ctx, "writev", k.enter(ctx))
	if fp := k.fastPath(f); fp != nil && fp.Writev != nil {
		if n, handled, err := fp.Writev(ctx, f, iov); handled {
			return n, err
		}
	}
	c := k.newCall(callWritev)
	c.f, c.iov = f, iov
	n, _, err := k.offload(ctx, "writev", c)
	return n, err
}

// Ioctl dispatches an ioctl, fast-pathing the commands the PicoDriver
// ported and offloading the rest transparently.
func (k *Kernel) Ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	defer k.account(ctx, "ioctl", k.enter(ctx))
	if fp := k.fastPath(f); fp != nil && fp.Ioctl != nil {
		if res, handled, err := fp.Ioctl(ctx, f, cmd, arg); handled {
			return res, err
		}
	}
	c := k.newCall(callIoctl)
	c.f, c.cmd, c.arg = f, cmd, arg
	res, _, err := k.offload(ctx, "ioctl", c)
	return res, err
}

// MmapDevice maps a driver region (offloaded; device mappings are
// established through the proxy, §2.1).
func (k *Kernel) MmapDevice(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	defer k.account(ctx, "mmap", k.enter(ctx))
	c := k.newCall(callMmap)
	c.f, c.cmd, c.length = f, kind, length
	va, _, err := k.offload(ctx, "mmap-dev", c)
	return uproc.VirtAddr(va), err
}

// MmapAnon is served locally: memory management is exactly what McKernel
// implements itself.
func (k *Kernel) MmapAnon(ctx *kernel.Ctx, proc *uproc.Process, size uint64) (uproc.VirtAddr, error) {
	defer k.account(ctx, "mmap", k.enter(ctx))
	npages := (size + mem.PageSize4K - 1) / mem.PageSize4K
	ctx.Spend(time.Duration(npages) * k.pr.McKMmapPerPage)
	return proc.MmapAnon(size)
}

// Munmap is served locally; its per-page cost is the memory-management
// shortcoming the paper's profiling exposed.
func (k *Kernel) Munmap(ctx *kernel.Ctx, proc *uproc.Process, va uproc.VirtAddr) error {
	defer k.account(ctx, "munmap", k.enter(ctx))
	if v, ok := proc.VMAOf(va); ok {
		npages := v.Range.Size / mem.PageSize4K
		ctx.Spend(time.Duration(npages) * k.pr.McKMunmapPerPage)
	}
	return proc.Munmap(va)
}

// Misc models miscellaneous offloaded calls (read on config files,
// nanosleep, ...) so that kernel profiles include them.
func (k *Kernel) Misc(ctx *kernel.Ctx, name string, linuxCost time.Duration) {
	defer k.account(ctx, name, k.enter(ctx))
	c := k.newCall(callMisc)
	c.cost = linuxCost
	k.offload(ctx, name, c)
}

// Compute runs application computation on an isolated LWK core: no
// ticks, no daemons, no noise — the lightweight kernel promise.
func (k *Kernel) Compute(p *sim.Proc, d time.Duration) {
	if d > 0 {
		p.Sleep(d)
	}
}
