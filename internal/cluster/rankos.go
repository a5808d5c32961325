package cluster

import (
	"fmt"
	"time"

	"repro/internal/hfi"
	"repro/internal/kernel"
	"repro/internal/linux"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/uproc"
	"repro/internal/verbs"
)

// syscalls is the one system call table a rank runs against. Both
// *linux.Kernel and *mckernel.Kernel implement it; how a call is routed
// — served locally, offloaded over IKC, or fast-pathed by a PicoDriver —
// is entirely the kernel's business (§2.1, §3).
type syscalls interface {
	Open(ctx *kernel.Ctx, proc *uproc.Process, path string) (*linux.File, error)
	Close(ctx *kernel.Ctx, f *linux.File) error
	Writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, error)
	Ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error)
	MmapDevice(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error)
	MmapAnon(ctx *kernel.Ctx, proc *uproc.Process, size uint64) (uproc.VirtAddr, error)
	Munmap(ctx *kernel.Ctx, proc *uproc.Process, va uproc.VirtAddr) error
	Misc(ctx *kernel.Ctx, name string, cost time.Duration)
	Compute(p *sim.Proc, d time.Duration)
}

// RankOS is the per-rank OS personality, the same type on every OS
// configuration: the rank's process, its application core, and the
// kernel that core runs. It implements psm.OSOps and verbs.OSOps.
type RankOS struct {
	node *Node
	proc *uproc.Process
	cpu  int
	k    syscalls
	// ctxs holds execution contexts between system calls. Each call
	// takes its own, so a rank's daemon inside one call never shares a
	// context with the rank sleeping in another, and a context handed
	// back keeps no finished process reachable.
	ctxs pool.Pool[*kernel.Ctx]
}

var _ verbs.OSOps = (*RankOS)(nil) // and so psm.OSOps

// NewRankOS creates the personality of one rank: the process (with the
// OS-appropriate memory policy) bound to the node's application kernel.
func (n *Node) NewRankOS(rank int) *RankOS {
	o := &RankOS{node: n, cpu: n.nextAppCPU()}
	o.ctxs = pool.New("cluster: kernel.Ctx", nil, func() *kernel.Ctx { return new(kernel.Ctx) },
		func(c *kernel.Ctx) { c.P = nil })
	name := fmt.Sprintf("rank%d@node%d", rank, n.ID)
	if n.OS == OSLinux {
		backing := uproc.BackingScattered4K
		if n.hugePages {
			backing = uproc.BackingContigLarge
		}
		o.proc = uproc.NewProcess(name, n.Phys.Partition("linux"), backing)
		o.k = n.Lin
	} else {
		o.proc = n.Mck.NewProcess(name)
		o.k = n.Mck
	}
	n.ranks = append(n.ranks, o)
	return o
}

// enter returns an execution context on the rank's core for one system
// call by p; leave hands it back when the call returns.
func (o *RankOS) enter(p *sim.Proc) *kernel.Ctx {
	c := o.ctxs.Get()
	c.P, c.CPU = p, o.cpu
	return c
}

func (o *RankOS) leave(c *kernel.Ctx) { o.ctxs.Put(c) }

// Pools returns the counts of the rank's context pool.
func (o *RankOS) Pools() []pool.Stats { return []pool.Stats{o.ctxs.Stats()} }

func (o *RankOS) NodeID() int          { return o.node.ID }
func (o *RankOS) Proc() *uproc.Process { return o.proc }
func (o *RankOS) NIC() *hfi.NIC        { return o.node.NIC }
func (o *RankOS) RNIC() *verbs.RNIC    { return o.node.RNIC }

func (o *RankOS) Open(p *sim.Proc, path string) (*linux.File, error) {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.Open(c, o.proc, path)
}

func (o *RankOS) Close(p *sim.Proc, f *linux.File) error {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.Close(c, f)
}

func (o *RankOS) Writev(p *sim.Proc, f *linux.File, iov []linux.IOVec) (uint64, error) {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.Writev(c, f, iov)
}

func (o *RankOS) Ioctl(p *sim.Proc, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.Ioctl(c, f, cmd, arg)
}

func (o *RankOS) MmapDevice(p *sim.Proc, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.MmapDevice(c, f, kind, length)
}

func (o *RankOS) MmapAnon(p *sim.Proc, size uint64) (uproc.VirtAddr, error) {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.MmapAnon(c, o.proc, size)
}

func (o *RankOS) Munmap(p *sim.Proc, va uproc.VirtAddr) error {
	c := o.enter(p)
	defer o.leave(c)
	return o.k.Munmap(c, o.proc, va)
}

func (o *RankOS) Compute(p *sim.Proc, d time.Duration) { o.k.Compute(p, d) }

func (o *RankOS) Misc(p *sim.Proc, name string, cost time.Duration) {
	c := o.enter(p)
	defer o.leave(c)
	o.k.Misc(c, name, cost)
}
