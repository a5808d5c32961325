package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RankFunc is a rank's main function.
type RankFunc func(c *Comm) error

// JobResult aggregates a finished run.
type JobResult struct {
	// Elapsed is the figure-of-merit runtime: the latest rank finish
	// time minus the post-init barrier (MPI_Init excluded, like the
	// mini-apps' own timers).
	Elapsed time.Duration
	// WallTime includes MPI_Init.
	WallTime time.Duration
	// MPI is the per-call profile summed over all ranks (Table 1's
	// "cumulative time spent in the call summed over all ranks").
	MPI *trace.SyscallProfile
	// Ranks is the world size.
	Ranks int
	// PerRankElapsed is the mean of per-rank body times.
	PerRankElapsed time.Duration
	// RankElapsed is the distribution of per-rank body times (one
	// sample per rank), for percentile reporting.
	RankElapsed *trace.Histogram
}

// JobSpec configures one job launched onto a shared cluster via
// StartJob. A scheduler overlays several specs — each with its own
// rank numbering, address book and RMA world — onto the same nodes and
// engine; their traffic contends on the shared fabric.
type JobSpec struct {
	// Name prefixes rank process names ("<Name>:rank<r>") so traces
	// from concurrent jobs stay distinguishable. Empty keeps the bare
	// "rank<r>" RunJob has always used.
	Name string
	// Placement maps rank r of this job to cluster node Placement[r].
	Placement []int
	// Delay is the job's arrival time: every rank sleeps Delay of
	// virtual time before starting MPI_Init.
	Delay time.Duration
	Body  RankFunc
}

// JobHandle tracks a job started with StartJob. Result is valid only
// after the engine has run to completion.
type JobHandle struct {
	Spec JobSpec
	// arrival is the virtual time MPI_Init begins (spawn time + Delay).
	arrival   time.Duration
	comms     []*Comm
	failed    cluster.FirstErr
	bodyStart []time.Duration
	bodyEnd   []time.Duration
}

// StartJob spawns one rank process per Placement entry without driving
// the engine: the caller (RunJob, or a scheduler overlaying several
// jobs) runs the engine and then collects each handle's Result.
func StartJob(cl *cluster.Cluster, spec JobSpec) *JobHandle {
	nRanks := len(spec.Placement)
	book := make(psm.MapBook, nRanks)
	rma := newRMAWorld()
	h := &JobHandle{
		Spec:      spec,
		arrival:   cl.Now() + spec.Delay,
		comms:     make([]*Comm, nRanks),
		bodyStart: make([]time.Duration, nRanks),
		bodyEnd:   make([]time.Duration, nRanks),
	}
	// Per-node rank counts let applications build node-aware
	// decompositions even under non-uniform placement.
	occupancy := make(map[int]int, nRanks)
	for _, n := range spec.Placement {
		occupancy[n]++
	}
	ready := cl.NewRendezvous(nRanks)

	for r := 0; r < nRanks; r++ {
		r := r
		node := cl.Nodes[spec.Placement[r]]
		rpn := occupancy[spec.Placement[r]]
		osops := node.NewRankOS(r)
		name := fmt.Sprintf("rank%d", r)
		if spec.Name != "" {
			name = fmt.Sprintf("%s:rank%d", spec.Name, r)
		}
		cl.Go(spec.Placement[r], name, func(p *sim.Proc) {
			if spec.Delay > 0 {
				p.Sleep(spec.Delay)
			}
			fail := func(err error) { h.failed.Record(p, r, err) }
			comm, err := initRank(p, cl, osops, r, nRanks, rpn, book, rma, ready)
			if err != nil {
				fail(err)
				return
			}
			comm.Job = spec.Name
			h.comms[r] = comm
			// Post-init barrier: application timing starts here.
			if err := comm.Barrier(); err != nil {
				fail(err)
				return
			}
			h.bodyStart[r] = p.Now()
			if err := spec.Body(comm); err != nil {
				fail(fmt.Errorf("rank %d: %w", r, err))
				return
			}
			// Completion barrier quiesces outstanding traffic.
			if err := comm.Barrier(); err != nil {
				fail(err)
				return
			}
			h.bodyEnd[r] = p.Now()
		})
	}
	return h
}

// Comms exposes the per-rank communicators (valid after the engine has
// drained and Result reported no error) so callers can read endpoint
// statistics.
func (h *JobHandle) Comms() []*Comm { return h.comms }

// Result aggregates the finished job's profiles and timings. It must
// only be called after the engine has drained. If ranks failed it
// returns the first failure (cluster.FirstErr's rule, as Ranks.Err).
func (h *JobHandle) Result() (*JobResult, error) {
	if err := h.failed.Err(); err != nil {
		return nil, err
	}
	nRanks := len(h.comms)
	res := &JobResult{MPI: trace.NewSyscallProfile(), Ranks: nRanks, RankElapsed: &trace.Histogram{}}
	var latest, meanSum time.Duration
	earliest := h.bodyStart[0]
	for r := 0; r < nRanks; r++ {
		if h.bodyEnd[r] > latest {
			latest = h.bodyEnd[r]
		}
		if h.bodyStart[r] < earliest {
			earliest = h.bodyStart[r]
		}
		meanSum += h.bodyEnd[r] - h.bodyStart[r]
		res.RankElapsed.Observe(h.bodyEnd[r] - h.bodyStart[r])
		res.MPI.Merge(h.comms[r].Prof)
	}
	res.Elapsed = latest - earliest
	res.WallTime = latest - h.arrival
	res.PerRankElapsed = meanSum / time.Duration(nRanks)
	return res, nil
}

// RunJob launches ranksPerNode ranks on every node of the cluster, runs
// MPI_Init (endpoint creation plus the OS-dependent initialization
// costs), synchronizes, executes body on every rank and aggregates
// profiles. It drives the engine to completion.
func RunJob(cl *cluster.Cluster, ranksPerNode int, body RankFunc) (*JobResult, error) {
	nRanks := len(cl.Nodes) * ranksPerNode
	placement := make([]int, nRanks)
	for r := range placement {
		placement[r] = r / ranksPerNode
	}
	h := StartJob(cl, JobSpec{Placement: placement, Body: body})
	if err := cl.Run(0); err != nil {
		return nil, fmt.Errorf("mpi: job execution: %w", err)
	}
	return h.Result()
}

// initRank is MPI_Init: PSM endpoint creation (device open, context
// setup, mmaps — all offloaded on McKernel) plus the runtime's own
// startup costs, which differ per OS configuration (Table 1 shows
// MPI_Init visibly larger with the PicoDriver because of its kernel-
// level mapping bootstrap).
func initRank(p *sim.Proc, cl *cluster.Cluster, osops psm.OSOps, rank, nRanks, rpn int,
	book psm.MapBook, rma *rmaWorld, ready *sim.Rendezvous) (*Comm, error) {
	initStart := p.Now()
	ep, err := psm.NewEndpoint(p, osops, rank, book, cl.Cfg.Synthetic)
	if err != nil {
		ready.Done(p)
		return nil, fmt.Errorf("rank %d init: %w", rank, err)
	}
	// Runtime init: configuration reads, shared-memory setup, PMI
	// exchange. The base cost is amortized model time; per-OS extras
	// reflect offloaded device initialization and the PicoDriver's
	// kernel-mapping bootstrap.
	pr := cl.Params
	extra := time.Duration(0)
	switch cl.Cfg.OS {
	case cluster.OSMcKernel:
		extra = pr.MPIInitOffloadExtra
	case cluster.OSMcKernelHFI:
		extra = pr.MPIInitOffloadExtra + pr.MPIInitPicoExtra
	}
	// A few visible miscellaneous syscalls during startup.
	for i := 0; i < 4; i++ {
		osops.Misc(p, "open", 2*time.Microsecond)
		osops.Misc(p, "read", 3*time.Microsecond)
	}
	p.Sleep(pr.MPIInitBase + extra)

	comm := &Comm{
		EP: ep, P: p, Rank: rank, Size: nRanks,
		RanksPerNode: rpn,
		Prof:         trace.NewSyscallProfile(),
		bufCap:       collBufCap,
		rma:          rma,
	}
	comm.sendBuf, err = osops.MmapAnon(p, collBufCap)
	if err != nil {
		ready.Done(p)
		return nil, err
	}
	comm.recvBuf, err = osops.MmapAnon(p, collBufCap)
	if err != nil {
		ready.Done(p)
		return nil, err
	}
	book[rank] = psm.Addr{Node: osops.NodeID(), Ctx: ep.CtxID}
	comm.Prof.Add("MPI_Init", p.Now()-initStart)
	ready.Done(p)
	ready.Wait(p)
	return comm, nil
}
