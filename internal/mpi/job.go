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
// StartJob. Several specs — each with its own rank numbering, address
// book and RMA world — can overlay the same nodes and engine; their
// traffic contends on the shared fabric.
type JobSpec struct {
	// Name prefixes rank process names ("<Name>:rank<r>") so traces
	// from concurrent jobs stay distinguishable. Empty keeps the bare
	// "rank<r>" RunJob has always used.
	Name string
	// Placement maps rank r of this job to cluster node Placement[r].
	Placement []int
	Body      RankFunc
}

// JobHandle tracks a job started with StartJob. Result is valid only
// after the engine has run to completion.
type JobHandle struct {
	// arrival is the virtual time MPI_Init begins (spawn time).
	arrival   time.Duration
	ranks     *cluster.Ranks
	comms     []*Comm
	bodyStart []time.Duration
	bodyEnd   []time.Duration
}

// StartJob starts one rank per Placement entry through
// cluster.StartRanks, with MPI_Init (initRank) as its init stage,
// without driving the engine: the caller (RunJob, or a cell overlaying
// several jobs) runs the engine and then collects each handle's Result.
func StartJob(cl *cluster.Cluster, spec JobSpec) *JobHandle {
	nRanks := len(spec.Placement)
	rma := newRMAWorld()
	h := &JobHandle{
		arrival:   cl.Now(),
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
	prefix := "rank"
	if spec.Name != "" {
		prefix = spec.Name + ":rank"
	}
	h.ranks = cl.StartRanks(prefix, spec.Placement,
		func(p *sim.Proc, r int, ep *psm.Endpoint) (err error) {
			h.comms[r], err = initRank(p, cl, ep, h.arrival, nRanks, occupancy[spec.Placement[r]], rma)
			return err
		},
		func(p *sim.Proc, r int, _ *psm.Endpoint) error {
			comm := h.comms[r]
			// Post-init barrier: application timing starts here.
			if err := comm.Barrier(); err != nil {
				return err
			}
			h.bodyStart[r] = p.Now()
			if err := spec.Body(comm); err != nil {
				return fmt.Errorf("rank %d: %w", r, err)
			}
			// Completion barrier quiesces outstanding traffic.
			if err := comm.Barrier(); err != nil {
				return err
			}
			h.bodyEnd[r] = p.Now()
			return nil
		})
	return h
}

// Comms exposes the per-rank communicators (valid after the engine has
// drained and Result reported no error) so callers can read endpoint
// statistics.
func (h *JobHandle) Comms() []*Comm { return h.comms }

// Result aggregates the finished job's profiles and timings. It must
// only be called after the engine has drained. If ranks failed it
// returns the first failure (Ranks.Err).
func (h *JobHandle) Result() (*JobResult, error) {
	if err := h.ranks.Err(); err != nil {
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
	h := StartJob(cl, JobSpec{Placement: cluster.Blocks(len(cl.Nodes), ranksPerNode), Body: body})
	if err := cl.Run(0); err != nil {
		return nil, fmt.Errorf("mpi: job execution: %w", err)
	}
	return h.Result()
}

// initRank is MPI_Init past the endpoint, which StartRanks has opened
// (device open, context setup, mmaps — all offloaded on McKernel): the
// runtime's own startup costs, which differ per OS configuration (Table
// 1 shows MPI_Init visibly larger with the PicoDriver because of its
// kernel-level mapping bootstrap). Its profile entry is timed from
// spawn, the endpoint's opening included.
func initRank(p *sim.Proc, cl *cluster.Cluster, ep *psm.Endpoint, spawn time.Duration,
	nRanks, rpn int, rma *rmaWorld) (*Comm, error) {
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
		ep.OS.Misc(p, "open", 2*time.Microsecond)
		ep.OS.Misc(p, "read", 3*time.Microsecond)
	}
	p.Sleep(pr.MPIInitBase + extra)

	comm := &Comm{
		EP: ep, P: p, Rank: ep.Rank, Size: nRanks,
		RanksPerNode: rpn,
		Prof:         trace.NewSyscallProfile(),
		bufCap:       collBufCap,
		rma:          rma,
	}
	var err error
	if comm.sendBuf, err = ep.OS.MmapAnon(p, collBufCap); err != nil {
		return nil, err
	}
	if comm.recvBuf, err = ep.OS.MmapAnon(p, collBufCap); err != nil {
		return nil, err
	}
	comm.Prof.Add("MPI_Init", p.Now()-spawn)
	return comm, nil
}
