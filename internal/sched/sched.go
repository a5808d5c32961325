// Package sched implements a deterministic multi-tenant cluster
// scheduler: several jobs — mini-apps, pingpong streams, bulk SDMA
// flows — are packed onto the nodes of one shared cluster and run
// concurrently on its single discrete-event engine, contending for
// NICs and fabric links exactly like co-scheduled tenants on a real
// machine. Placement is a pure function of the submission sequence, so
// the same job mix on the same seed reproduces byte-identical runs.
//
// Two placement policies bracket the tenancy experiments:
//
//   - Packed fills nodes from the lowest ID up, so successive jobs
//     share nodes (and their NIC ingress) as soon as the cluster has
//     more jobs than nodes — the noisy-neighbor configuration.
//   - Spread picks the least-loaded nodes first, keeping tenants on
//     disjoint nodes while capacity lasts — they still share fabric
//     links, but not NICs.
package sched

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Policy selects a placement strategy.
type Policy int

const (
	// Packed fills nodes from the lowest ID up.
	Packed Policy = iota
	// Spread picks the least-loaded nodes first.
	Spread
)

func (p Policy) String() string {
	switch p {
	case Packed:
		return "packed"
	case Spread:
		return "spread"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// JobSpec describes one job in the queue.
type JobSpec struct {
	// Name identifies the job in traces and reports.
	Name string
	// Tenant groups jobs for per-tenant accounting.
	Tenant string
	// Ranks is the world size.
	Ranks int
	// RanksPerNode is how many of this job's ranks share one node
	// (defaults to 1): the job occupies ceil(Ranks/RanksPerNode) nodes.
	RanksPerNode int
	// Arrival is the job's queue arrival in virtual time, relative to
	// scheduler start.
	Arrival time.Duration
	// Policy selects the placement strategy.
	Policy Policy
	// Placement, when non-nil, pins rank r to node Placement[r] and
	// bypasses Policy entirely — incast and hot-spot scenarios need
	// exact victim/aggressor geometry.
	Placement []int
	// Body is the per-rank main function.
	Body mpi.RankFunc
}

// JobReport is one finished job's accounting.
type JobReport struct {
	Name      string
	Tenant    string
	Policy    Policy
	Arrival   time.Duration
	Placement []int
	// Res is the MPI-level result (elapsed, wall time, call profile).
	Res *mpi.JobResult
	// BytesSent sums the job ranks' PSM payload bytes.
	BytesSent uint64
	// CongBackoffs sums the job ranks' congestion window halvings.
	CongBackoffs uint64
	// GoodputMBps is BytesSent over the job's body elapsed time.
	GoodputMBps float64
}

// TenantReport aggregates the jobs of one tenant.
type TenantReport struct {
	Tenant      string
	Jobs        int
	BytesSent   uint64
	GoodputMBps float64
	// Elapsed is the latest job completion minus the earliest job
	// arrival: the tenant's makespan.
	Elapsed time.Duration
}

// Scheduler queues jobs against one shared cluster.
type Scheduler struct {
	cl   *cluster.Cluster
	load []int // ranks currently placed per node
	jobs []queued
}

type queued struct {
	spec      JobSpec
	placement []int
}

// New builds a scheduler over cl. The cluster must not have been
// driven yet: arrival times are relative to the engine's current time.
func New(cl *cluster.Cluster) *Scheduler {
	return &Scheduler{cl: cl, load: make([]int, len(cl.Nodes))}
}

// Place computes the rank→node mapping the next submission of
// (ranks, ranksPerNode, pol) would receive, without submitting. It is
// a pure function of the jobs submitted so far.
func (s *Scheduler) Place(ranks, ranksPerNode int, pol Policy) ([]int, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("sched: job needs at least one rank")
	}
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	needed := (ranks + ranksPerNode - 1) / ranksPerNode
	if needed > len(s.cl.Nodes) {
		return nil, fmt.Errorf("sched: job needs %d nodes, cluster has %d", needed, len(s.cl.Nodes))
	}
	order := make([]int, len(s.cl.Nodes))
	for i := range order {
		order[i] = i
	}
	if pol == Spread {
		// Least-loaded first, node ID breaking ties — a deterministic
		// total order.
		sort.SliceStable(order, func(i, j int) bool {
			if s.load[order[i]] != s.load[order[j]] {
				return s.load[order[i]] < s.load[order[j]]
			}
			return order[i] < order[j]
		})
	}
	placement := make([]int, ranks)
	for r := 0; r < ranks; r++ {
		placement[r] = order[r/ranksPerNode]
	}
	return placement, nil
}

// Submit queues a job; its placement is fixed immediately (static
// planning keeps the schedule a pure function of the submit sequence).
func (s *Scheduler) Submit(spec JobSpec) error {
	if spec.Body == nil {
		return fmt.Errorf("sched: job %q has no body", spec.Name)
	}
	placement := spec.Placement
	if placement == nil {
		var err error
		placement, err = s.Place(spec.Ranks, spec.RanksPerNode, spec.Policy)
		if err != nil {
			return fmt.Errorf("sched: job %q: %w", spec.Name, err)
		}
	} else {
		if len(placement) != spec.Ranks && spec.Ranks != 0 {
			return fmt.Errorf("sched: job %q: %d ranks but %d placement entries", spec.Name, spec.Ranks, len(placement))
		}
		for _, n := range placement {
			if n < 0 || n >= len(s.cl.Nodes) {
				return fmt.Errorf("sched: job %q: placement onto nonexistent node %d", spec.Name, n)
			}
		}
	}
	for _, n := range placement {
		s.load[n]++
	}
	s.jobs = append(s.jobs, queued{spec: spec, placement: placement})
	return nil
}

// Run launches every queued job at its arrival time, drives the engine
// until all traffic drains and returns per-job reports in submission
// order.
func (s *Scheduler) Run() ([]JobReport, error) {
	if len(s.jobs) == 0 {
		return nil, fmt.Errorf("sched: empty job queue")
	}
	handles := make([]*mpi.JobHandle, len(s.jobs))
	for i, q := range s.jobs {
		handles[i] = mpi.StartJob(s.cl, mpi.JobSpec{
			Name:      q.spec.Name,
			Placement: q.placement,
			Delay:     q.spec.Arrival,
			Body:      q.spec.Body,
		})
	}
	if err := s.cl.Run(0); err != nil {
		return nil, fmt.Errorf("sched: execution: %w", err)
	}
	reports := make([]JobReport, len(s.jobs))
	for i, q := range s.jobs {
		res, err := handles[i].Result()
		if err != nil {
			return nil, fmt.Errorf("sched: job %q: %w", q.spec.Name, err)
		}
		rep := JobReport{
			Name: q.spec.Name, Tenant: q.spec.Tenant, Policy: q.spec.Policy,
			Arrival: q.spec.Arrival, Placement: q.placement, Res: res,
		}
		for _, c := range handles[i].Comms() {
			rep.BytesSent += c.EP.Stats.BytesSent
			rep.CongBackoffs += c.EP.CongStats.Backoffs
		}
		if res.Elapsed > 0 {
			rep.GoodputMBps = float64(rep.BytesSent) / 1e6 / res.Elapsed.Seconds()
		}
		reports[i] = rep
	}
	return reports, nil
}

// ByTenant folds job reports into per-tenant aggregates, ordered by
// tenant name.
func ByTenant(reports []JobReport) []TenantReport {
	byName := map[string]*TenantReport{}
	type window struct{ lo, hi time.Duration }
	spans := map[string]*window{}
	for _, r := range reports {
		tr, ok := byName[r.Tenant]
		if !ok {
			tr = &TenantReport{Tenant: r.Tenant}
			byName[r.Tenant] = tr
			spans[r.Tenant] = &window{lo: r.Arrival, hi: r.Arrival + r.Res.WallTime}
		}
		tr.Jobs++
		tr.BytesSent += r.BytesSent
		w := spans[r.Tenant]
		if r.Arrival < w.lo {
			w.lo = r.Arrival
		}
		if end := r.Arrival + r.Res.WallTime; end > w.hi {
			w.hi = end
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TenantReport, 0, len(names))
	for _, n := range names {
		tr := byName[n]
		tr.Elapsed = spans[n].hi - spans[n].lo
		if tr.Elapsed > 0 {
			tr.GoodputMBps = float64(tr.BytesSent) / 1e6 / tr.Elapsed.Seconds()
		}
		out = append(out, *tr)
	}
	return out
}
