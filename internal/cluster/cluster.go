// Package cluster assembles simulated compute nodes into an OmniPath-
// connected machine under one of the paper's three OS configurations —
// Linux, the original McKernel, and McKernel with the HFI PicoDriver —
// and provides the per-rank OS personality (RankOS) that PSM runs against.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/ihk"
	"repro/internal/kmem"
	"repro/internal/linux"
	"repro/internal/mckernel"
	"repro/internal/mem"
	"repro/internal/mlx"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vas"
	"repro/internal/verbs"
)

// OSType selects the node operating system configuration.
type OSType int

const (
	// OSLinux runs the application on Linux (the Fujitsu HPC-tuned
	// production baseline).
	OSLinux OSType = iota
	// OSMcKernel is the original multi-kernel: every device system
	// call is offloaded.
	OSMcKernel
	// OSMcKernelHFI is McKernel with the HFI PicoDriver fast path.
	OSMcKernelHFI
)

func (o OSType) String() string {
	switch o {
	case OSLinux:
		return "Linux"
	case OSMcKernel:
		return "McKernel"
	case OSMcKernelHFI:
		return "McKernel+HFI1"
	}
	return fmt.Sprintf("OSType(%d)", int(o))
}

// AllOSTypes lists the three evaluated configurations in paper order.
var AllOSTypes = []OSType{OSLinux, OSMcKernel, OSMcKernelHFI}

// Spec is the single construction entry point for a simulated machine:
// it owns the node count, the OS configuration, the model parameters
// (fabric profile included), RNG seeding, fault/congestion profiles and
// the shard partition. Every consumer — cluster, simtest, experiments
// and the cmd/ binaries — builds through New(Spec); none of them wire
// sim.NewEngine + fabrics by hand.
type Spec struct {
	Nodes int
	OS    OSType
	// Params are the model constants (model.Default() if zero-valued
	// fields — callers pass a full set).
	Params model.Params
	Spec   ihk.NodeSpec
	Seed   int64
	// Synthetic disables payload materialization (large-scale mode).
	Synthetic bool
	// LinuxHugePages backs Linux rank processes with pinned contiguous
	// (large-page) anonymous memory instead of scattered 4K frames,
	// modeling hugetlbfs-backed applications. McKernel ranks always use
	// the LWK's contiguous policy, so this only affects OSLinux.
	LinuxHugePages bool
	// Faults configures deterministic fault injection on the OmniPath
	// fabric (the verbs/IB fabric is exempt: RC transport retries at
	// the link level in hardware). The zero value is loss-free. An
	// unset Faults.Seed defaults to the cluster Seed.
	Faults fabric.FaultProfile
	// Congestion configures credit/ECN congestion control on the
	// OmniPath fabric (the verbs/IB fabric is exempt, like Faults). The
	// zero value disables it entirely: no credit gating, no ECN marks,
	// and byte-identical snapshots/traces to pre-congestion builds.
	Congestion fabric.CongProfile
	// Shards partitions the cluster into that many contiguous node
	// groups, each simulated by its own engine and synchronized
	// conservatively with the fabric link latency as lookahead
	// (sim.ShardSet). 0 or 1 builds one standalone engine that runs the
	// whole machine in a single unbounded window: same dispatcher, no
	// barrier, and no restriction on faults, congestion or jitter.
	// Shards > 1 requires the loss-free, jitter-free, congestion-free,
	// untraced profile and is clamped to the node count.
	Shards int
}

// Cluster is the simulated machine.
type Cluster struct {
	Fab *fabric.Fabric
	// IBFab is the InfiniBand network the verbs HCAs attach to — a
	// second adapter per node, independent of the OmniPath fabric.
	IBFab  *fabric.Fabric
	Params *model.Params
	Cfg    Spec
	Nodes  []*Node

	// Set drives the sharded configuration (nil when Shards <= 1).
	Set *sim.ShardSet
	// machine is what runs and snapshots the whole cluster: Set when
	// sharded, the one engine otherwise. Chosen once, at construction.
	machine snapshot.Machine
	// Per-shard engines and fabrics, indexed by shard; single-engine
	// clusters hold one entry each.
	engines []*sim.Engine
	fabs    []*fabric.Fabric
	ibfabs  []*fabric.Fabric
	shardOf []int // node id -> owning shard
}

// Node is one compute node.
type Node struct {
	ID   int
	OS   OSType
	Phys *mem.PhysMem

	LinSpace *kmem.Space
	LWKSpace *kmem.Space
	Lin      *linux.Kernel
	Mck      *mckernel.Kernel
	Del      *ihk.Delegator
	NIC      *hfi.NIC
	Drv      *hfi.LinuxDriver
	Pico     *core.HFIPico
	RNIC     *verbs.RNIC
	Mlx      *mlx.Driver
	MlxPico  *core.MLXPico

	appCPUs []int
	nextApp int

	pr        *model.Params
	synthetic bool
	hugePages bool
}

const kernelImageSize = 8 << 20

// New builds and boots the cluster described by the spec.
func New(cfg Spec) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if cfg.Spec.TotalCPUs == 0 {
		cfg.Spec = ihk.DefaultNodeSpec()
	}
	if cfg.Faults.Seed == 0 {
		cfg.Faults.Seed = cfg.Seed
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	c := &Cluster{Cfg: cfg}
	c.Params = &c.Cfg.Params
	// Pick the engines — one standalone engine, or a shard set's — then
	// build every engine's fabric pair the same way.
	if cfg.Shards > 1 {
		set, err := newShardSet(&c.Cfg)
		if err != nil {
			return nil, err
		}
		c.Set, c.machine, c.engines = set, set, set.Engines()
	} else {
		eng := sim.NewEngine(cfg.Seed)
		c.machine, c.engines = eng, []*sim.Engine{eng}
	}
	shards := len(c.engines)
	c.shardOf = make([]int, cfg.Nodes)
	for s, eng := range c.engines {
		// Contiguous block partition: shard s owns nodes [s*N/S, (s+1)*N/S).
		for id := s * cfg.Nodes / shards; id < (s+1)*cfg.Nodes/shards; id++ {
			c.shardOf[id] = s
		}
		fab, ibfab := fabric.New(eng, c.Params), fabric.New(eng, c.Params)
		fab.SetFaults(&c.Cfg.Faults)
		fab.SetCongestion(&c.Cfg.Congestion)
		// Snapshot registration: the OmniPath fabric takes the bare
		// label, the IB fabric the deterministic "#1" suffix.
		eng.RegisterState("fabric", fab.EncodeState)
		eng.RegisterState("fabric", ibfab.EncodeState)
		if c.Set != nil {
			fab.SetRouter(c.router(eng, &c.fabs))
			ibfab.SetRouter(c.router(eng, &c.ibfabs))
		}
		c.fabs = append(c.fabs, fab)
		c.ibfabs = append(c.ibfabs, ibfab)
	}
	c.Fab, c.IBFab = c.fabs[0], c.ibfabs[0]
	for i := 0; i < cfg.Nodes; i++ {
		n, err := c.buildNode(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// newShardSet checks that the spec's profile can be sharded and creates
// the shard set. Cross-shard packet delivery is the only inter-shard
// event source, so the fabric's (jitter-free) link latency is the exact
// conservative lookahead.
func newShardSet(cfg *Spec) (*sim.ShardSet, error) {
	if cfg.Faults.Active() {
		return nil, fmt.Errorf("cluster: Shards=%d requires a loss-free fabric (fault injection draws from a run-global RNG stream)", cfg.Shards)
	}
	if cfg.Congestion.Active() {
		return nil, fmt.Errorf("cluster: Shards=%d is incompatible with congestion control (credit budgets are shared across links)", cfg.Shards)
	}
	if cfg.Params.LinkJitter > 0 {
		return nil, fmt.Errorf("cluster: Shards=%d requires LinkJitter=0 (jitter draws from the engine RNG in global send order)", cfg.Shards)
	}
	if cfg.Params.LinkLatency <= 0 {
		return nil, fmt.Errorf("cluster: Shards=%d needs a positive LinkLatency as conservative lookahead", cfg.Shards)
	}
	return sim.NewShardSet(cfg.Seed, cfg.Shards, cfg.Params.LinkLatency)
}

// crossPkt is the argument record of one routed cross-shard delivery.
type crossPkt struct {
	fab *fabric.Fabric
	pkt *fabric.Packet
}

// crossDeliver completes a routed flight on the destination shard. A
// package-level func value, so every delivery shares it (sim.AfterArg
// convention).
var crossDeliver = func(a any) {
	cp := a.(*crossPkt)
	if err := cp.fab.Deliver(cp.pkt); err != nil {
		cp.fab.Engine().Fail(err)
	}
}

// router builds the cross-shard routing hook for one shard's fabric:
// resolve the destination shard, then schedule the delivery on its
// engine through the conservative cross-event path. fabs (c.fabs or
// c.ibfabs) is read at routing time, after every shard's fabrics exist.
func (c *Cluster) router(src *sim.Engine, fabs *[]*fabric.Fabric) func(*fabric.Packet, time.Duration) error {
	return func(pkt *fabric.Packet, lat time.Duration) error {
		// Port IDs are rail-qualified; rails share the node's shard.
		node := pkt.DstNode % fabric.RailBase
		if node < 0 || node >= len(c.shardOf) {
			return fmt.Errorf("cluster: route to unknown node %d", pkt.DstNode)
		}
		dst := c.shardOf[node]
		c.Set.CrossAfter(src, c.engines[dst], lat, crossDeliver,
			&crossPkt{fab: (*fabs)[dst], pkt: pkt})
		return nil
	}
}

func (c *Cluster) buildNode(id int) (*Node, error) {
	cfg := c.Cfg
	eng, fab, ibfab := c.EngineFor(id), c.fabs[c.shardOf[id]], c.ibfabs[c.shardOf[id]]
	n := &Node{ID: id, OS: cfg.OS, pr: c.Params, synthetic: cfg.Synthetic, hugePages: cfg.LinuxHugePages}

	plan, err := ihk.Partition(cfg.Spec)
	if err != nil {
		return nil, err
	}
	regions := plan.Regions
	linuxCPUs := plan.LinuxCPUs
	if cfg.OS == OSLinux {
		// No partitioning: Linux owns every resource; application
		// cores remain the non-OS cores.
		regions = []mem.Region{
			{Base: 0, Size: cfg.Spec.MCDRAM, Kind: mem.MCDRAM, NUMANode: 0, Owner: "linux"},
			{Base: 256 << 30, Size: cfg.Spec.DDR, Kind: mem.DDR4, NUMANode: 4, Owner: "linux"},
		}
	}
	n.Phys, err = mem.NewPhysMem(regions...)
	if err != nil {
		return nil, err
	}

	// Linux kernel space: on pure Linux it owns all CPUs; in the multi-
	// kernel configurations only the OS cores.
	linKernCPUs := linuxCPUs
	if cfg.OS == OSLinux {
		for c := 0; c < cfg.Spec.TotalCPUs; c++ {
			if c >= cfg.Spec.LinuxCPUs {
				linKernCPUs = append(linKernCPUs, c)
			}
		}
	}
	n.LinSpace, err = kmem.NewSpace("linux", vas.LinuxLayout(), n.Phys.Partition("linux"), linKernCPUs)
	if err != nil {
		return nil, err
	}
	if err := n.LinSpace.LoadImage(kernelImageSize); err != nil {
		return nil, err
	}
	n.Lin = linux.NewKernel(eng, c.Params, n.LinSpace, linuxCPUs, cfg.Seed*7919+int64(id))
	n.appCPUs = append([]int(nil), plan.LWKCPUs...)

	worlds := []*kmem.Space{n.LinSpace}
	if cfg.OS != OSLinux {
		layout := vas.McKernelOriginalLayout()
		if cfg.OS == OSMcKernelHFI {
			layout = vas.McKernelUnifiedLayout()
		}
		n.LWKSpace, err = kmem.NewSpace("mckernel", layout, n.Phys.Partition("lwk"), plan.LWKCPUs)
		if err != nil {
			return nil, err
		}
		if _, err := ihk.BootLWK(n.LinSpace, n.LWKSpace, kernelImageSize); err != nil {
			return nil, err
		}
		n.Del = ihk.NewDelegator(n.Lin.Pool, c.Params)
		n.Mck = mckernel.NewKernel(eng, c.Params, n.LWKSpace, n.Lin, n.Del)
		worlds = append(worlds, n.LWKSpace)
	}

	n.NIC, err = hfi.NewNIC(eng, c.Params, id, n.Phys, fab)
	if err != nil {
		return nil, err
	}
	n.Drv, err = hfi.NewLinuxDriver(n.Lin, n.NIC, c.Params, worlds)
	if err != nil {
		return nil, err
	}
	if err := n.Lin.RegisterDevice("/dev/hfi1", n.Drv); err != nil {
		return nil, err
	}

	// The verbs HCA and its driver: present on every configuration (the
	// device is the same; only the registration path differs).
	n.RNIC, err = verbs.NewRNIC(eng, c.Params, id, n.Phys, ibfab, n.LinSpace, cfg.Synthetic)
	if err != nil {
		return nil, err
	}
	n.Mlx, err = mlx.NewDriver(n.Lin, n.RNIC)
	if err != nil {
		return nil, err
	}
	if err := n.Lin.RegisterDevice(mlx.DevicePath, n.Mlx); err != nil {
		return nil, err
	}

	if cfg.OS == OSMcKernelHFI {
		fw, err := core.NewFramework(n.Lin, n.Mck)
		if err != nil {
			return nil, err
		}
		n.Pico, err = core.NewHFIPico(fw, n.NIC, n.Drv.DWARFBlob, c.Params)
		if err != nil {
			return nil, err
		}
		if err := n.Pico.Attach(fw, "/dev/hfi1"); err != nil {
			return nil, err
		}
		n.MlxPico, err = core.NewMLXPico(fw, n.Mlx.DWARFBlob, n.RNIC)
		if err != nil {
			return nil, err
		}
		if err := n.MlxPico.Attach(fw, mlx.DevicePath); err != nil {
			return nil, err
		}
	}

	// Register this node's per-layer snapshot sections. Labels sort
	// together per node; short-lived layers (PSM endpoints) register
	// and unregister themselves instead.
	eng.RegisterState(fmt.Sprintf("node%d/mem", id), n.Phys.EncodeState)
	eng.RegisterState(fmt.Sprintf("node%d/kmem-linux", id), n.LinSpace.EncodeState)
	if n.LWKSpace != nil {
		eng.RegisterState(fmt.Sprintf("node%d/kmem-lwk", id), n.LWKSpace.EncodeState)
	}
	eng.RegisterState(fmt.Sprintf("node%d/linux", id), n.Lin.EncodeState)
	eng.RegisterState(fmt.Sprintf("node%d/hfi", id), n.NIC.EncodeState)
	eng.RegisterState(fmt.Sprintf("node%d/hfidrv", id), n.Drv.EncodeState)
	eng.RegisterState(fmt.Sprintf("node%d/rnic", id), n.RNIC.EncodeState)
	eng.RegisterState(fmt.Sprintf("node%d/mlx", id), n.Mlx.EncodeState)
	return n, nil
}

// Shards returns the effective shard count (1 on a single-engine
// cluster).
func (c *Cluster) Shards() int { return len(c.engines) }

// Engines returns the per-shard engines in shard order, one on a
// single-engine cluster.
func (c *Cluster) Engines() []*sim.Engine { return c.engines }

// EngineFor returns the engine simulating the node. Everything local to
// a node — processes, device callbacks, snapshot sections — must be
// scheduled here.
func (c *Cluster) EngineFor(node int) *sim.Engine { return c.engines[c.shardOf[node]] }

// Go spawns a process on the node's engine.
func (c *Cluster) Go(node int, name string, fn func(p *sim.Proc)) *sim.Proc {
	return c.EngineFor(node).Go(name, fn)
}

// Run drives the whole machine to completion (or to limit), regardless
// of shard count. This is the only correct way to run a cluster: an
// engine's own Run drives that shard alone (and panics on a sharded
// cluster).
func (c *Cluster) Run(limit time.Duration) error { return c.machine.Run(limit) }

// Now returns the machine's virtual time (the maximum shard clock).
func (c *Cluster) Now() time.Duration { return c.machine.Now() }

// Close ends the simulation and frees the machine: it closes every
// shard's engine (sim.Engine.Close), unwinding the processes still
// parked there — the NIC, CPU and timer daemons of every node at least.
// Until then they keep the whole cluster reachable. Call it last, after
// reading the syscall profiles and spans an unwinding defer can add to;
// counters stay readable after it, and the cluster cannot run again.
func (c *Cluster) Close() {
	for _, e := range c.engines {
		e.Close()
	}
}

// NewRendezvous creates an n-participant rendezvous spanning every
// shard of the cluster.
func (c *Cluster) NewRendezvous(n int) *sim.Rendezvous { return sim.NewRendezvous(c.engines[0], n) }

// SetRecorder attaches a span recorder to every shard's engine (nil
// turns tracing off).
func (c *Cluster) SetRecorder(rec *trace.Recorder) {
	for _, e := range c.engines {
		e.SetRecorder(rec)
	}
}

// Machine returns the cluster's snapshot surface: the shard set on a
// sharded cluster, the standalone engine otherwise. Checkpoint and
// restore flow through it, so Shards=1 keeps the single-engine snapshot
// layout while sharded clusters get the "shards"-sectioned one.
func (c *Cluster) Machine() snapshot.Machine { return c.machine }

// Fabrics returns the per-shard OmniPath fabrics in shard order
// (single-engine clusters return [Fab]).
func (c *Cluster) Fabrics() []*fabric.Fabric { return c.fabs }

// Ties sums simultaneity ties over every fabric instance (both rails).
// A zero total certifies that no two packets from different sources
// arrived anywhere at the same instant, which makes the run's digest
// independent of the shard count (see the sharded-engine notes in
// EXPERIMENTS.md).
func (c *Cluster) Ties() uint64 {
	var n uint64
	for _, f := range c.fabs {
		n += f.Ties()
	}
	for _, f := range c.ibfabs {
		n += f.Ties()
	}
	return n
}

// AppCPUs returns the node's application core ids.
func (n *Node) AppCPUs() []int { return n.appCPUs }

// nextAppCPU assigns application cores round-robin.
func (n *Node) nextAppCPU() int {
	cpu := n.appCPUs[n.nextApp%len(n.appCPUs)]
	n.nextApp++
	return cpu
}
