// Package ihk models the Interface for Heterogeneous Kernels: node
// resource partitioning (CPU cores and physical memory are divided
// between Linux and the LWK), LWK boot, and the Inter-Kernel
// Communication (IKC) layer used for system call delegation (§2.1).
package ihk

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vas"
)

// Plan describes how a node's resources are split.
type Plan struct {
	Regions   []mem.Region
	LinuxCPUs []int
	LWKCPUs   []int
}

// NodeSpec sizes a node before partitioning.
type NodeSpec struct {
	MCDRAM uint64
	DDR    uint64
	// LinuxMCDRAM/LinuxDDR are reserved for Linux; the rest goes to
	// the LWK. IHK can change this at runtime without rebooting, which
	// here simply means building a new Plan.
	LinuxMCDRAM uint64
	LinuxDDR    uint64
	LinuxCPUs   int
	TotalCPUs   int
}

// DefaultNodeSpec mirrors the OFP configuration: 16 GB MCDRAM + 96 GB
// DDR4, 68 cores of which 4 serve the OS; 64 run the application on the
// LWK. Memory sizes here are address-space sizes — the backing is sparse.
func DefaultNodeSpec() NodeSpec {
	return NodeSpec{
		MCDRAM: 16 << 30, DDR: 96 << 30,
		LinuxMCDRAM: 2 << 30, LinuxDDR: 16 << 30,
		LinuxCPUs: 4, TotalCPUs: 68,
	}
}

// Partition carves the node per spec. Physical layout: MCDRAM at 0,
// DDR at 256 GiB, each split into a Linux and an LWK region.
func Partition(spec NodeSpec) (Plan, error) {
	if spec.LinuxMCDRAM >= spec.MCDRAM || spec.LinuxDDR >= spec.DDR {
		return Plan{}, fmt.Errorf("ihk: Linux reservation exceeds node memory")
	}
	if spec.LinuxCPUs >= spec.TotalCPUs {
		return Plan{}, fmt.Errorf("ihk: no CPUs left for the LWK")
	}
	const ddrBase = 256 << 30
	p := Plan{
		Regions: []mem.Region{
			{Base: 0, Size: spec.LinuxMCDRAM, Kind: mem.MCDRAM, NUMANode: 0, Owner: "linux"},
			{Base: mem.PhysAddr(spec.LinuxMCDRAM), Size: spec.MCDRAM - spec.LinuxMCDRAM, Kind: mem.MCDRAM, NUMANode: 0, Owner: "lwk"},
			{Base: ddrBase, Size: spec.LinuxDDR, Kind: mem.DDR4, NUMANode: 4, Owner: "linux"},
			{Base: ddrBase + mem.PhysAddr(spec.LinuxDDR), Size: spec.DDR - spec.LinuxDDR, Kind: mem.DDR4, NUMANode: 4, Owner: "lwk"},
		},
	}
	for c := 0; c < spec.LinuxCPUs; c++ {
		p.LinuxCPUs = append(p.LinuxCPUs, c)
	}
	for c := spec.LinuxCPUs; c < spec.TotalCPUs; c++ {
		p.LWKCPUs = append(p.LWKCPUs, c)
	}
	return p, nil
}

// BootLWK performs the LWK boot protocol on an already-created pair of
// kernel spaces: load the LWK image, and — when the unified layout is in
// use — map it into Linux and enable the foreign-CPU free path. It
// returns whether the address spaces are unified.
func BootLWK(lin, lwk *kmem.Space, imageSize uint64) (bool, error) {
	if err := lwk.LoadImage(imageSize); err != nil {
		return false, fmt.Errorf("ihk: loading LWK image: %w", err)
	}
	if err := vas.CheckUnified(lin.Layout, lwk.Layout); err != nil {
		// Original layout: bootable, but no cross-kernel cooperation.
		return false, nil
	}
	if err := lin.MapForeignImage(lwk); err != nil {
		return false, fmt.Errorf("ihk: mapping LWK image into Linux: %w", err)
	}
	lwk.EnableForeignFree()
	return true, nil
}

// Delegator is the IKC-based system call delegation channel of one node:
// requests cross the inter-kernel boundary, execute in the proxy process
// context on one of the few Linux CPUs (queueing under load — the §4.3
// contention), and the result crosses back.
type Delegator struct {
	Pool *kernel.WorkerPool
	pr   *model.Params

	// Count and Time accumulate offload statistics.
	Count uint64
	Time  time.Duration

	calls pool.Pool[*call] `snap:"-"`
}

// call is one offloaded system call on its way through a proxy: the work
// and the proxy's overhead before it. Records go back to the pool when
// the caller wakes, poisoned until reused.
type call struct {
	pool.Slot
	overhead time.Duration
	fn       func(ctx *kernel.Ctx)
	run      func(ctx *kernel.Ctx) // c.exec, bound once
}

func (c *call) exec(ctx *kernel.Ctx) {
	c.Check()
	ctx.Spend(c.overhead)
	c.fn(ctx)
}

// NewDelegator wires delegation onto the node's Linux CPU pool.
func NewDelegator(wp *kernel.WorkerPool, pr *model.Params) *Delegator {
	return &Delegator{Pool: wp, pr: pr, calls: pool.New("ihk: call", nil, func() *call {
		c := &call{}
		c.run = c.exec
		return c
	}, func(c *call) { *c = call{run: c.run} })}
}

// Pools returns the counts of the delegator's call pool.
func (d *Delegator) Pools() []pool.Stats { return []pool.Stats{d.calls.Stats()} }

// Offload runs fn as an offloaded system call on behalf of p and returns
// the end-to-end latency: IKC to Linux, queueing + proxy execution on a
// Linux CPU, IKC back.
func (d *Delegator) Offload(p *sim.Proc, name string, fn func(ctx *kernel.Ctx)) time.Duration {
	start := p.Now()
	p.Sleep(d.pr.IKCLatency)
	// Scheduler thrash: every runnable proxy beyond one per Linux CPU
	// adds wakeup/context-switch overhead to the call being serviced
	// (CFS timeslicing across proxy processes).
	thrash := d.Pool.QueueLen() - 1
	if thrash < 0 {
		thrash = 0
	}
	c := d.calls.Get()
	c.overhead = d.pr.OffloadFixed + time.Duration(thrash)*d.pr.OffloadThrashPerQueued
	c.fn = fn
	d.Pool.SubmitAndWait(p, name, c.run)
	d.calls.Put(c)
	p.Sleep(d.pr.IKCLatency)
	lat := p.Now() - start
	d.Count++
	d.Time += lat
	if rec := p.Engine().Recorder(); rec != nil {
		rec.Span(trace.CatIKC, "offload:"+name, p.Name(), start, p.Now())
	}
	return lat
}
