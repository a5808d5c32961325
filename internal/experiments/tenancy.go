// The tenancy experiment measures multi-tenant interference on a
// congestion-controlled fabric. A latency tenant runs a paced
// request/echo stream between two nodes while bulk tenants push SDMA
// transfers beside it, one MPI job per tenant on the shared cluster:
//
//   - solo: the latency tenant alone — the interference baseline.
//   - packed: the bulk tenant lands on the victim's nodes (shared NIC
//     and link), inflating the victim's p99.
//   - spread: the bulk tenant is pushed to idle nodes; the tenants
//     share nothing and the victim's p99 recovers.
//   - incast: three bulk tenants converge on one destination node
//     (N→1 hot spot); per-tenant goodput measures fabric fairness.
//
// Every cell runs with credit/ECN congestion control active, so the
// sweep is the end-to-end gate on the fabric's admission gating and
// PSM's CNP backoff — and on pooled-buffer hygiene under multi-flow
// contention: each cell's teardown asserts the fabric's pools balance
// (every pooled packet, payload and delivery record returned exactly
// once).
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/runner"
	"repro/internal/trace"
)

// tenancyCong is the congestion profile every tenancy cell runs under.
// The link's bandwidth-delay product is ~20KB (900ns latency at
// 12.5GB/s), so a 16K link budget admits two eager chunks: a lone
// paced 4K latency stream never crosses the 50% mark line, while
// back-to-back bulk chunks do — and an incast of several senders blows
// through the destination's 48K ingress budget.
func tenancyCong() fabric.CongProfile {
	return fabric.CongProfile{
		LinkBudget:    16 << 10,
		IngressBudget: 48 << 10,
		MarkFrac:      0.5,
	}
}

// tenancyScenarios names the per-OS sweep cells, in artifact order.
var tenancyScenarios = []string{"solo", "packed", "spread", "incast"}

// TenancyRow is one (OS, scenario) measurement.
type TenancyRow struct {
	OS       string
	Scenario string // solo | packed | spread | incast
	// Victim latency-tenant request/echo round-trip percentiles.
	VictimP50 time.Duration
	VictimP99 time.Duration
	// VictimMBps is the latency tenant's goodput, BulkMBps the bulk
	// tenants' aggregate goodput (0 in the solo cell).
	VictimMBps float64
	BulkMBps   float64
	// Fabric congestion-control activity for the cell.
	Marks  uint64
	Stalls uint64
	// Backoffs sums window halvings over all endpoints in the cell.
	Backoffs uint64
	// Fairness is the min/max per-tenant goodput ratio of the incast
	// cell (1.0 = perfectly fair; 0 for other scenarios).
	Fairness float64
}

// Tenancy runs the four tenancy scenarios once per OS configuration.
func Tenancy(cfg Config) ([]TenancyRow, error) {
	var jobs []runner.Job[TenancyRow]
	for _, os := range cluster.AllOSTypes {
		for _, scen := range tenancyScenarios {
			jobs = append(jobs, job(cfg, tenancyID(os, scen), func(cfg Config) (TenancyRow, error) {
				return tenancyCell(cfg, os, scen)
			}))
		}
	}
	rows, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return nil, err
	}
	// The sweep's reason to exist: packed co-location must visibly
	// inflate the victim's tail, and spreading must recover most of it.
	byScen := map[string]map[string]TenancyRow{}
	for _, r := range rows {
		if byScen[r.OS] == nil {
			byScen[r.OS] = map[string]TenancyRow{}
		}
		byScen[r.OS][r.Scenario] = r
	}
	for os, cells := range byScen {
		solo, packed, spread := cells["solo"], cells["packed"], cells["spread"]
		packedDelta := packed.VictimP99 - solo.VictimP99
		spreadDelta := spread.VictimP99 - solo.VictimP99
		if packedDelta <= 0 {
			return nil, fmt.Errorf("tenancy: packed neighbor on %s did not inflate victim p99 (solo %v, packed %v)",
				os, solo.VictimP99, packed.VictimP99)
		}
		if spreadDelta >= packedDelta {
			return nil, fmt.Errorf("tenancy: spreading on %s did not reduce interference (packed Δ%v, spread Δ%v)",
				os, packedDelta, spreadDelta)
		}
		if packed.Marks == 0 && packed.Stalls == 0 {
			return nil, fmt.Errorf("tenancy: packed cell on %s ran congestion-silent: %+v", os, packed)
		}
	}
	return rows, nil
}

// tenancyID names one tenancy cell (OS first: the sweep's rows are
// grouped per OS). Frozen like every cell id — seeds derive from it.
func tenancyID(os cluster.OSType, scen string) string {
	return fmt.Sprintf("tenancy/%s/%s", osName(os), scen)
}

// tenancyLatencyBody is the victim: msgs paced request/echo round
// trips from rank 0 to rank 1, each RTT observed into hist.
func tenancyLatencyBody(msgs int, size uint64, hist *trace.Histogram) mpi.RankFunc {
	return func(c *mpi.Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		switch c.Rank {
		case 0:
			for i := 0; i < msgs; i++ {
				tag := uint64(1000 + i)
				t0 := c.P.Now()
				if err := c.EP.Send(c.P, 1, tag, buf, size); err != nil {
					return err
				}
				if err := c.EP.Recv(c.P, 1, tag, buf, size); err != nil {
					return err
				}
				hist.Observe(c.P.Now() - t0)
				// Pacing: a latency tenant issues requests, it does not
				// saturate the link.
				c.P.Sleep(5 * time.Microsecond)
			}
		case 1:
			for i := 0; i < msgs; i++ {
				tag := uint64(1000 + i)
				if err := c.EP.Recv(c.P, 0, tag, buf, size); err != nil {
					return err
				}
				if err := c.EP.Send(c.P, 0, tag, buf, size); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// tenancyStreamBody is a bulk tenant: count back-to-back transfers
// (SDMA-eager sized) from rank `from` to the job's other rank, tagged
// tagBase+i. The noisy neighbor streams 0→1; an incast aggressor
// streams 1→0, from its remote node into rank 0 on the shared hot-spot
// node.
func tenancyStreamBody(from int, tagBase uint64, count int, size uint64) mpi.RankFunc {
	return func(c *mpi.Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			tag := tagBase + uint64(i)
			if c.Rank == from {
				err = c.EP.Send(c.P, 1-from, tag, buf, size)
			} else {
				err = c.EP.Recv(c.P, from, tag, buf, size)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// tenancyCell builds a 4-node congestion-controlled cluster, starts
// the scenario's tenant jobs and collects the victim percentiles,
// tenant goodputs and fabric congestion counters.
func tenancyCell(cfg Config, os cluster.OSType, scen string) (TenancyRow, error) {
	msgs := cfg.Scale.TenancyMsgs
	const latSize, bulkSize = 4 << 10, 32 << 10
	cl, err := cfg.cluster(cluster.Spec{Nodes: 4, OS: os, Congestion: tenancyCong()})
	if err != nil {
		return TenancyRow{}, err
	}
	defer cl.Close()
	hist := &trace.Histogram{}

	// The victim always occupies nodes 0 and 1; a packed neighbor shares
	// them, a spread one takes the idle nodes 2 and 3.
	var jobs []*mpi.JobHandle
	start := func(name string, placement []int, body mpi.RankFunc) {
		jobs = append(jobs, mpi.StartJob(cl, mpi.JobSpec{Name: name, Placement: placement, Body: body}))
	}
	start("victim", []int{0, 1}, tenancyLatencyBody(msgs, latSize, hist))
	bulkCount := msgs / 2
	switch scen {
	case "solo":
		// No neighbor.
	case "packed":
		start("bulk", []int{0, 1}, tenancyStreamBody(0, 2000, bulkCount, bulkSize))
	case "spread":
		start("bulk", []int{2, 3}, tenancyStreamBody(0, 2000, bulkCount, bulkSize))
	case "incast":
		// Three aggressors converge on node 0 — the victim's own node —
		// while their senders sit on nodes 1..3.
		for i := 0; i < 3; i++ {
			start(fmt.Sprintf("in%d", i), []int{0, i + 1}, tenancyStreamBody(1, 3000, bulkCount, bulkSize))
		}
	default:
		return TenancyRow{}, fmt.Errorf("tenancy: unknown scenario %q", scen)
	}
	if err := cl.Run(0); err != nil {
		return TenancyRow{}, fmt.Errorf("tenancy: %s/%s: %w", osName(os), scen, err)
	}

	row := TenancyRow{OS: osName(os), Scenario: scen,
		VictimP50: hist.P50(), VictimP99: hist.P99()}
	var bulkMin, bulkMax float64
	for i, job := range jobs {
		res, err := job.Result()
		if err != nil {
			return TenancyRow{}, fmt.Errorf("tenancy: %s/%s: %w", osName(os), scen, err)
		}
		// A job's goodput is its ranks' PSM payload bytes over its body
		// elapsed time.
		var sent uint64
		for _, c := range job.Comms() {
			sent += c.EP.Stats.BytesSent
			row.Backoffs += c.EP.Stats.Backoffs
		}
		var mbps float64
		if res.Elapsed > 0 {
			mbps = float64(sent) / 1e6 / res.Elapsed.Seconds()
		}
		if i == 0 {
			row.VictimMBps = mbps
			continue
		}
		row.BulkMBps += mbps
		if bulkMin == 0 || mbps < bulkMin {
			bulkMin = mbps
		}
		if mbps > bulkMax {
			bulkMax = mbps
		}
	}

	// Pooled-buffer hygiene: after the drain every pooled packet and
	// payload the fabric handed out must have come back exactly once —
	// congestion stalls must neither leak in-flight buffers nor
	// double-release them.
	if err := pool.Balance(cl.Fab.Pools()...); err != nil {
		return TenancyRow{}, fmt.Errorf("tenancy: %s/%s leaked pooled records: %w", osName(os), scen, err)
	}
	cs := cl.Fab.CongStats()
	row.Marks, row.Stalls = cs.Marks, cs.Stalls
	if scen == "incast" && bulkMax > 0 {
		row.Fairness = bulkMin / bulkMax
	}
	if hist.Count() != uint64(msgs) {
		return TenancyRow{}, fmt.Errorf("tenancy: %s/%s: victim completed %d/%d round trips",
			osName(os), scen, hist.Count(), msgs)
	}
	return row, nil
}
