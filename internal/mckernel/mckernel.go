// Package mckernel models the McKernel lightweight co-kernel: a small
// set of locally implemented, performance-sensitive system calls (its
// own memory management above all), with everything else delegated to
// Linux through IHK's IKC layer and the proxy process (§2.1).
//
// Device files are a hybrid: open/close/mmap/poll are always offloaded;
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

	lin  *linux.Kernel
	pr   *model.Params
	e    *sim.Engine
	fast map[string]*FastPath // by device path
}

// NewKernel creates the LWK bound to its node's Linux kernel.
func NewKernel(e *sim.Engine, pr *model.Params, space *kmem.Space, lin *linux.Kernel, del *ihk.Delegator) *Kernel {
	return &Kernel{
		Space:    space,
		Del:      del,
		Syscalls: trace.NewSyscallProfile(),
		lin:      lin,
		pr:       pr,
		e:        e,
		fast:     make(map[string]*FastPath),
	}
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

// ReplaceFastPath swaps the fast path of an already-registered device
// (used by tests and by driver upgrades).
func (k *Kernel) ReplaceFastPath(path string, fp *FastPath) {
	k.fast[path] = fp
}

// HasFastPath reports whether a device has a registered PicoDriver.
func (k *Kernel) HasFastPath(path string) bool { return k.fast[path] != nil }

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

// offload delegates one call to Linux: fn runs on a Linux CPU behind an
// IKC round trip and its result travels back to the LWK core.
func offload[T any](k *Kernel, ctx *kernel.Ctx, label string, fn func(lctx *kernel.Ctx) (T, error)) (T, error) {
	var out struct { // one heap cell shared with the closure, not two
		res T
		err error
	}
	k.Del.Offload(ctx.P, label, func(lctx *kernel.Ctx) { out.res, out.err = fn(lctx) })
	return out.res, out.err
}

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
	return offload(k, ctx, "open:"+path, func(lctx *kernel.Ctx) (*linux.File, error) {
		return k.lin.Open(lctx, proc, path)
	})
}

// Close releases a device file (offloaded).
func (k *Kernel) Close(ctx *kernel.Ctx, f *linux.File) error {
	defer k.account(ctx, "close", k.enter(ctx))
	_, err := offload(k, ctx, "close", func(lctx *kernel.Ctx) (struct{}, error) {
		return struct{}{}, k.lin.Close(lctx, f)
	})
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
	return offload(k, ctx, "writev", func(lctx *kernel.Ctx) (uint64, error) {
		return k.lin.Writev(lctx, f, iov)
	})
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
	return offload(k, ctx, "ioctl", func(lctx *kernel.Ctx) (uint64, error) {
		return k.lin.Ioctl(lctx, f, cmd, arg)
	})
}

// MmapDevice maps a driver region (offloaded; device mappings are
// established through the proxy, §2.1).
func (k *Kernel) MmapDevice(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	defer k.account(ctx, "mmap", k.enter(ctx))
	return offload(k, ctx, "mmap-dev", func(lctx *kernel.Ctx) (uproc.VirtAddr, error) {
		return k.lin.MmapDevice(lctx, f, kind, length)
	})
}

// Poll polls a device file (offloaded).
func (k *Kernel) Poll(ctx *kernel.Ctx, f *linux.File) (uint32, error) {
	defer k.account(ctx, "poll", k.enter(ctx))
	return offload(k, ctx, "poll", func(lctx *kernel.Ctx) (uint32, error) {
		return k.lin.Poll(lctx, f)
	})
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
	k.Del.Offload(ctx.P, name, func(lctx *kernel.Ctx) { lctx.Spend(linuxCost) })
}

// Compute runs application computation on an isolated LWK core: no
// ticks, no daemons, no noise — the lightweight kernel promise.
func (k *Kernel) Compute(p *sim.Proc, d time.Duration) {
	if d > 0 {
		p.Sleep(d)
	}
}
