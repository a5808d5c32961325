// The ablations isolate the mechanisms the paper's results rest on: each
// row runs one fixed workload twice with a single knob moved. The cells
// never touch Linux-side noise, so the rows do not move with Scale.Seed.
package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/ihk"
	"repro/internal/mem"
	"repro/internal/miniapps"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/uproc"
)

// AblationRow is one mechanism isolated: What, measured in Unit ("us" of
// figure-of-merit runtime, or "extents") without the mechanism and with.
type AblationRow struct {
	ID, What, Unit string
	Arms           [2]string
	Value          [2]float64
}

// Ratio is what the mechanism buys: without it over with it.
func (r AblationRow) Ratio() float64 { return r.Value[0] / r.Value[1] }

// ablations are the rows' recipes; cell measures arm 0 or 1. ID and
// Arms make the cell ids, so they are frozen like every other cell id.
var ablations = []struct {
	AblationRow
	cell func(cfg Config, arm int, seed int64) (float64, error)
}{
	{AblationRow{ID: "coalescing", Unit: "us", Arms: [2]string{"off", "on"},
		What: "4 MB exchange, 2 nodes x 1 rank, McKernel+HFI1: SDMA request coalescing"}, coalescingCell},
	{AblationRow{ID: "linux-cpus", Unit: "us", Arms: [2]string{"2", "16"},
		What: "UMT2013 (1 step), 2 nodes x 16 ranks, McKernel: Linux CPUs serving offloads"}, linuxCPUsCell},
	{AblationRow{ID: "backing", Unit: "extents", Arms: [2]string{"scattered-4k", "contig-large"},
		What: "4 MB anonymous mapping: extents a page-table walk hands the SDMA path"}, backingCell},
	{AblationRow{ID: "munmap", Unit: "us", Arms: [2]string{"260ns", "20ns"},
		What: "QBOX, 2 nodes x 8 ranks, McKernel+HFI1: McKernel munmap cost per page"}, munmapCell},
}

// ablationJobs is one pool job per (ablation, arm).
func ablationJobs(cfg Config) (jobs []runner.Job[float64]) {
	for _, a := range ablations {
		for arm, name := range a.Arms {
			id := "ablation/" + a.ID + "/" + name
			jobs = append(jobs, runner.Job[float64]{ID: id, Fn: func() (float64, error) {
				return a.cell(cfg, arm, runner.DeriveSeed(cfg.Scale.Seed, id))
			}})
		}
	}
	return jobs
}

// Ablations runs every ablation on the Config's pool.
func Ablations(cfg Config) ([]AblationRow, error) {
	vals, err := runner.Run(cfg.pool(), ablationJobs(cfg))
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(ablations))
	for i, a := range ablations {
		rows[i] = a.AblationRow
		rows[i].Value = [2]float64{vals[2*i], vals[2*i+1]}
	}
	return rows, nil
}

// elapsedUS is a job's figure-of-merit runtime in microseconds.
func elapsedUS(res *mpi.JobResult, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return float64(res.Elapsed) / float64(time.Microsecond), nil
}

// coalescingCell exchanges 4 MB each way with the PicoDriver's SDMA
// requests one per page, like the Linux driver's, or coalesced (§3.4).
func coalescingCell(cfg Config, arm int, seed int64) (float64, error) {
	cl, err := cfg.cluster(cluster.Spec{Nodes: 2, OS: cluster.OSMcKernelHFI, Seed: seed, Synthetic: true})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	for _, n := range cl.Nodes {
		n.Pico.Coalesce = arm == 1
	}
	const size = 4 << 20
	return elapsedUS(mpi.RunJob(cl, 1, func(c *mpi.Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		rr, err := c.Irecv(1-c.Rank, 1, buf, size)
		if err != nil {
			return err
		}
		if err := c.Send(1-c.Rank, 1, buf, size); err != nil {
			return err
		}
		return c.Wait(rr)
	}))
}

// linuxCPUsCell runs one UMT2013 step with the offloaded system calls
// of 16 ranks queueing on 2 or on 16 Linux CPUs (§4.3).
func linuxCPUsCell(cfg Config, arm int, seed int64) (float64, error) {
	spec := ihk.DefaultNodeSpec()
	spec.LinuxCPUs = [2]int{2, 16}[arm]
	app := miniapps.UMT2013()
	app.Steps = 1
	return elapsedUS(runApp(cfg, app, cluster.Spec{Nodes: 2, OS: cluster.OSMcKernel, Spec: spec, Seed: seed}, 16, nil))
}

// munmapCell runs QBOX with McKernel's munmap at its calibrated cost and
// at the cost a fixed path would have (§6 future work; Figure 9).
func munmapCell(cfg Config, arm int, seed int64) (float64, error) {
	pr := model.Default()
	pr.McKMunmapPerPage = [2]time.Duration{260 * time.Nanosecond, 20 * time.Nanosecond}[arm]
	return elapsedUS(runApp(cfg, miniapps.QBOX(), cluster.Spec{Nodes: 2, OS: cluster.OSMcKernelHFI, Params: pr, Seed: seed}, 8, nil))
}

// backingCell counts the extents a 4 MB anonymous mapping walks to
// under Linux's scattered 4 KB frames and McKernel's contiguous runs:
// the raw material of coalescing. It builds no cluster.
func backingCell(_ Config, arm int, _ int64) (float64, error) {
	const size = 4 << 20
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 256 << 20, Kind: mem.DDR4, Owner: "k"})
	if err != nil {
		return 0, err
	}
	backing := [2]uproc.Backing{uproc.BackingScattered4K, uproc.BackingContigLarge}[arm]
	proc := uproc.NewProcess("ablation", pm.Partition("k"), backing)
	va, err := proc.MmapAnon(size)
	if err != nil {
		return 0, err
	}
	exts, err := proc.PT.WalkExtents(va, size)
	return float64(len(exts)), err
}
