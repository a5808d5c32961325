// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the ping-pong bandwidth sweep (Figure 4), the five
// mini-application scaling studies (Figures 5–7), the communication
// profile (Table 1) and the kernel-level system call breakdowns
// (Figures 8 and 9).
//
// Each experiment builds fresh clusters per OS configuration and node
// count, runs deterministically, and returns structured results that the
// report package renders in the layout of the paper's artifacts.
//
// The sweep cells are independent simulations, so every experiment fans
// them out over a runner.Pool and merges the results in submission
// order: artifacts are byte-identical for any pool size. Each cell's
// engine seed is derived from (Scale.Seed, cell identity), never from
// scheduling, which is what keeps the merge deterministic.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/miniapps"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
)

// Config is the single entry point every experiment runs under: the
// sweep bounds, the pool the independent simulation cells fan out over,
// an optional span recorder for the traced single-run variants, and a
// fabric fault profile applied to every cluster the experiments build.
// Callers construct one Config instead of re-plumbing (pool, scale,
// seed, recorder, faults) through each entry point.
type Config struct {
	Scale Scale
	// Pool fans the experiment's cells out (nil = a fresh
	// GOMAXPROCS-wide pool per call).
	Pool *runner.Pool
	// Trace, when non-nil, receives the spans of traced single runs
	// (TracedRun, TracedPingPong, TracedVerbsRun).
	Trace *trace.Recorder
	// Faults is the lossy-fabric profile for every cluster built by the
	// experiments. The reliability sweep overrides the drop rate per
	// cell; everything else runs it as given.
	Faults fabric.FaultProfile
	// Congestion is the fabric congestion-control profile for every
	// cluster built by the experiments. The zero value (the default)
	// disables it, keeping all pre-congestion artifacts byte-identical;
	// the tenancy experiment overrides it per cell.
	Congestion fabric.CongProfile
	// Shards partitions every cluster the experiments build into that
	// many conservatively-synchronized engine shards (0 or 1 = one
	// standalone engine, the configuration every artifact is cut from).
	// Sharding requires the loss-free, jitter-free, congestion-free
	// profile; cluster.New rejects anything else.
	Shards int
}

// NewConfig bundles a scale with a worker pool (workers 0 = GOMAXPROCS).
func NewConfig(sc Scale, workers int) Config {
	return Config{Scale: sc, Pool: runner.New(workers)}
}

// pool returns the configured pool, lazily defaulting.
func (c Config) pool() *runner.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	return runner.New(0)
}

// cluster builds one simulation cluster under the Config's fault
// profile. Synthetic clusters skip payload materialization; lossy cells
// need real bytes, so the reliability sweep passes synthetic=false.
func (c Config) cluster(nodes int, os cluster.OSType, seed int64, synthetic bool) (*cluster.Cluster, error) {
	return cluster.New(cluster.Spec{
		Nodes: nodes, OS: os, Params: model.Default(), Seed: seed,
		Synthetic: synthetic, Faults: c.Faults, Congestion: c.Congestion,
		Shards: c.Shards,
	})
}

// Scale bounds an experiment run. SmallScale finishes in minutes on a
// laptop; PaperScale sweeps the paper's node counts (hours).
type Scale struct {
	Name string
	// PingPongSizes for Figure 4.
	PingPongSizes []uint64
	// PingPongReps per size.
	PingPongReps int
	// AppNodes is the node-count sweep for Figures 5-7.
	AppNodes []int
	// QBoxNodes starts at 4 (the paper's input constraint).
	QBoxNodes []int
	// RanksPerNode caps each app's configured density (0 = app default).
	RanksPerNode int
	// ProfileNodes/ProfileRPN size the Table 1 / Figures 8-9 runs.
	ProfileNodes int
	ProfileRPN   int
	// VerbsSizes/VerbsReps size the RDMA registration-vs-data-path sweep.
	VerbsSizes []uint64
	VerbsReps  int
	// LossRates is the per-packet drop probability sweep of the
	// reliability experiment (0 = the loss-free reference column).
	LossRates []float64
	// ReliabilitySizes straddle the PIO (16K) and eager-SDMA (64K)
	// protocol thresholds so every transfer mode recovers from loss.
	ReliabilitySizes []uint64
	// FailoverMsgs/FailoverSize shape the failover experiment's paced
	// message stream (0 = defaults: 160 messages of 32K).
	FailoverMsgs int
	FailoverSize uint64
	// TenancyMsgs is the latency tenant's message count per tenancy
	// cell, TenancyBulkSize the noisy neighbor's transfer size
	// (0 = defaults: 120 messages, 32K bulk transfers).
	TenancyMsgs     int
	TenancyBulkSize uint64
	// BigscaleNodes/BigscaleRPN size the sharded-engine scaling run
	// (the bigscale experiment, an explicit-only id in cmd/experiments);
	// BigscaleShards is its shard-count sweep, Shards=1 first so every
	// later row has a speedup baseline.
	BigscaleNodes  int
	BigscaleRPN    int
	BigscaleShards []int
	Seed           int64
}

// SmallScale is the default: shapes are visible, runtime is modest.
func SmallScale() Scale {
	return Scale{
		Name:             "small",
		PingPongSizes:    []uint64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20},
		PingPongReps:     4,
		AppNodes:         []int{1, 2, 4, 8},
		QBoxNodes:        []int{4, 8},
		RanksPerNode:     16,
		ProfileNodes:     8,
		ProfileRPN:       16,
		VerbsSizes:       []uint64{4 << 10, 64 << 10, 1 << 20, 2<<20 + 4096},
		VerbsReps:        4,
		LossRates:        []float64{0, 0.001, 0.01, 0.05},
		ReliabilitySizes: []uint64{8 << 10, 32 << 10, 256 << 10},
		FailoverMsgs:     160,
		FailoverSize:     32 << 10,
		BigscaleNodes:    128,
		BigscaleRPN:      4,
		BigscaleShards:   []int{1, 2, 4},
		Seed:             1,
	}
}

// PaperScale follows the paper's sweeps (expensive).
func PaperScale() Scale {
	return Scale{
		Name: "paper",
		PingPongSizes: []uint64{
			1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10,
			128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
		},
		PingPongReps: 6,
		AppNodes:     []int{1, 2, 4, 8, 16, 32, 64},
		QBoxNodes:    []int{4, 8, 16, 32, 64},
		RanksPerNode: 32,
		ProfileNodes: 8,
		ProfileRPN:   32,
		VerbsSizes: []uint64{
			1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20,
			2 << 20, 2<<20 + 4096, 8 << 20,
		},
		VerbsReps: 8,
		LossRates: []float64{0, 0.001, 0.01, 0.05},
		ReliabilitySizes: []uint64{
			2 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10,
		},
		FailoverMsgs: 400,
		FailoverSize: 32 << 10,
		// RPN is 4, not the profile sweep's 32: at 1024 nodes the tie
		// count (fabric.Ties — same-instant arrivals at one destination
		// from different sources) grows ~40x between rpn=4 (26 ties) and
		// rpn=8 (872), and with that many ties the delivery order the
		// sharded barrier imposes starts to differ observably from the
		// single-engine send order — rpn=16 fails the digest gate. At
		// rpn=4 the full shard sweep is digest-identical.
		BigscaleNodes:  1024,
		BigscaleRPN:    4,
		BigscaleShards: []int{1, 2, 4, 8, 16},
		Seed:           1,
	}
}

// OSNames in paper order.
var OSNames = []string{"Linux", "McKernel", "McKernel+HFI1"}

func osName(o cluster.OSType) string { return o.String() }

// ---------------------------------------------------------------------
// Figure 4: ping-pong bandwidth.
// ---------------------------------------------------------------------

// Fig4Row is one message size across the three OS configurations.
type Fig4Row struct {
	Size uint64
	// MBps is bandwidth in MB/s per OS name.
	MBps map[string]float64
	// OneWayP50/OneWayP99 are per-repetition one-way latency
	// percentiles per OS name (the distribution behind the mean).
	OneWayP50 map[string]time.Duration
	OneWayP99 map[string]time.Duration
}

// ppResult is one ping-pong cell: the mean one-way time plus the
// per-repetition distribution.
type ppResult struct {
	mean time.Duration
	hist *trace.Histogram
}

// Fig4 runs the IMB-style ping-pong sweep on a two-node cluster, one
// pool job per (message size, OS) cell.
func Fig4(cfg Config) ([]Fig4Row, error) {
	sc := cfg.Scale
	var jobs []runner.Job[ppResult]
	for _, size := range sc.PingPongSizes {
		for _, os := range cluster.AllOSTypes {
			size, os := size, os
			id := fmt.Sprintf("fig4/%dB/%s", size, osName(os))
			jobs = append(jobs, runner.Job[ppResult]{ID: id, Fn: func() (ppResult, error) {
				return pingPong(cfg, os, size, sc.PingPongReps, runner.DeriveSeed(sc.Seed, id))
			}})
		}
	}
	cells, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, len(sc.PingPongSizes))
	for i, size := range sc.PingPongSizes {
		row := Fig4Row{
			Size: size, MBps: make(map[string]float64),
			OneWayP50: make(map[string]time.Duration),
			OneWayP99: make(map[string]time.Duration),
		}
		for j, os := range cluster.AllOSTypes {
			cell := cells[i*len(cluster.AllOSTypes)+j]
			row.MBps[osName(os)] = float64(size) / cell.mean.Seconds() / 1e6
			row.OneWayP50[osName(os)] = cell.hist.P50()
			row.OneWayP99[osName(os)] = cell.hist.P99()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// pingPong returns the mean and distribution of one-way times for the
// given message size.
func pingPong(cfg Config, os cluster.OSType, size uint64, reps int, seed int64) (ppResult, error) {
	r, err := pingPongRec(cfg, os, size, reps, seed, nil)
	return r, err
}

// TracedPingPong runs one ping-pong cell with a span recorder attached
// (cfg.Trace, or a fresh one) and returns the recorder alongside the
// timing result.
func TracedPingPong(cfg Config, os cluster.OSType, size uint64) (*trace.Recorder, error) {
	rec := cfg.Trace
	if rec == nil {
		rec = trace.NewRecorder()
	}
	_, err := pingPongRec(cfg, os, size, cfg.Scale.PingPongReps, cfg.Scale.Seed, rec)
	return rec, err
}

func pingPongRec(cfg Config, os cluster.OSType, size uint64, reps int, seed int64, rec *trace.Recorder) (ppResult, error) {
	c, err := buildPingPong(cfg, os, size, reps, seed, rec)
	if err != nil {
		return ppResult{}, err
	}
	return c.finish()
}

// ppCell is a built-but-not-yet-run ping-pong cell: the cluster with
// both rank processes spawned, plus the accumulators their closures
// write into. Splitting construction from execution is what lets
// checkpoint/resume interpose on the engine between the two.
type ppCell struct {
	cl    *cluster.Cluster
	ranks *cluster.Ranks
	reps  int
	total time.Duration
	hist  *trace.Histogram
}

// buildPingPong constructs the cell and spawns the ranks; the engine
// has not run yet when it returns.
func buildPingPong(cfg Config, os cluster.OSType, size uint64, reps int, seed int64, rec *trace.Recorder) (*ppCell, error) {
	// Loss-free cells run synthetic (no payload materialization); a
	// lossy fault profile needs real bytes so every bounce can be
	// verified against the reference pattern.
	lossy := cfg.Faults.Active()
	cl, err := cfg.cluster(2, os, seed, !lossy)
	if err != nil {
		return nil, err
	}
	cl.SetRecorder(rec)
	c := &ppCell{cl: cl, reps: reps, hist: &trace.Histogram{}}
	c.ranks = cl.StartRanks("pp", []int{0, 1}, !lossy, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		// On a lossy fabric rank 0 seeds a reference pattern and
		// checks that every bounce returns it intact: the reliability
		// layer must recover loss, never rewrite bytes.
		if lossy && r == 0 {
			if err := ep.OS.Proc().WriteAt(buf, relPattern(uint64(seed), size)); err != nil {
				return err
			}
		}
		// Warmup round, then timed rounds.
		for i := 0; i <= reps; i++ {
			tag := uint64(10 + i)
			var start time.Duration
			if r == 0 {
				start = p.Now()
				if err := ep.Send(p, 1, tag, buf, size); err != nil {
					return err
				}
				if err := ep.Recv(p, 1, tag, buf, size); err != nil {
					return err
				}
				if lossy {
					got := make([]byte, size)
					if err := ep.OS.Proc().ReadAt(buf, got); err != nil {
						return err
					}
					if !bytes.Equal(got, relPattern(uint64(seed), size)) {
						return fmt.Errorf("pingpong: bounce %d corrupted the payload (size %d, %s)", i, size, os)
					}
				}
				if i > 0 {
					rtt := p.Now() - start
					c.total += rtt
					c.hist.Observe(rtt / 2)
				}
			} else {
				if err := ep.Recv(p, 0, tag, buf, size); err != nil {
					return err
				}
				if err := ep.Send(p, 0, tag, buf, size); err != nil {
					return err
				}
			}
		}
		if lossy {
			return c.ranks.Drain(p, ep)
		}
		return nil
	})
	return c, nil
}

// finish runs the cell's cluster to completion and folds the result.
func (c *ppCell) finish() (ppResult, error) {
	if err := c.cl.Run(0); err != nil {
		return ppResult{}, err
	}
	if err := c.ranks.Err(); err != nil {
		return ppResult{}, err
	}
	return ppResult{mean: c.total / time.Duration(2*c.reps), hist: c.hist}, nil
}

// ---------------------------------------------------------------------
// Figures 5-7: mini-application scaling.
// ---------------------------------------------------------------------

// ScalingPoint is one node count of a scaling study.
type ScalingPoint struct {
	Nodes int
	// Elapsed is the runtime per OS name.
	Elapsed map[string]time.Duration
	// RelToLinux is performance relative to Linux (1.0 = parity;
	// > 1 means faster than Linux), matching the paper's y axes.
	RelToLinux map[string]float64
	// RankP50/RankP99 are per-rank body-time percentiles per OS name
	// (their spread is the OS-noise signature).
	RankP50 map[string]time.Duration
	RankP99 map[string]time.Duration
}

// AppScaling runs one mini-app across the node sweep, one pool job per
// (node count, OS) cell. Ranks per node and the seed come from
// cfg.Scale.
func AppScaling(cfg Config, app *miniapps.App, nodes []int) ([]ScalingPoint, error) {
	rpn := cfg.Scale.RanksPerNode
	if rpn <= 0 {
		rpn = app.RanksPerNode
	}
	var jobs []runner.Job[*mpi.JobResult]
	for _, n := range nodes {
		for _, os := range cluster.AllOSTypes {
			n, os := n, os
			id := fmt.Sprintf("%s/%dn/%s", app.Name, n, osName(os))
			jobs = append(jobs, runner.Job[*mpi.JobResult]{ID: id, Fn: func() (*mpi.JobResult, error) {
				return runApp(cfg, app, n, rpn, os, runner.DeriveSeed(cfg.Scale.Seed, id))
			}})
		}
	}
	results, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([]ScalingPoint, 0, len(nodes))
	for i, n := range nodes {
		pt := ScalingPoint{
			Nodes:      n,
			Elapsed:    make(map[string]time.Duration),
			RelToLinux: make(map[string]float64),
			RankP50:    make(map[string]time.Duration),
			RankP99:    make(map[string]time.Duration),
		}
		for j, os := range cluster.AllOSTypes {
			res := results[i*len(cluster.AllOSTypes)+j]
			pt.Elapsed[osName(os)] = res.Elapsed
			pt.RankP50[osName(os)] = res.RankElapsed.P50()
			pt.RankP99[osName(os)] = res.RankElapsed.P99()
		}
		lin := pt.Elapsed["Linux"]
		for name, d := range pt.Elapsed {
			pt.RelToLinux[name] = lin.Seconds() / d.Seconds()
		}
		out = append(out, pt)
	}
	return out, nil
}

func runApp(cfg Config, app *miniapps.App, nodes, rpn int, os cluster.OSType, seed int64) (*mpi.JobResult, error) {
	cl, err := cfg.cluster(nodes, os, seed, true)
	if err != nil {
		return nil, err
	}
	return mpi.RunJob(cl, rpn, func(c *mpi.Comm) error { return app.Body(c, app) })
}

// TracedRun executes one mini-app job with a span recorder attached to
// the cluster's engine (cfg.Trace, or a fresh one) and returns the
// recorder (spans + latency histograms from every layer) alongside the
// job result. Same-seed calls produce byte-identical Chrome trace
// output.
func TracedRun(cfg Config, appName string, nodes, rpn int, os cluster.OSType) (*trace.Recorder, *mpi.JobResult, error) {
	app, err := miniapps.ByName(appName)
	if err != nil {
		return nil, nil, err
	}
	if rpn <= 0 {
		rpn = app.RanksPerNode
	}
	cl, err := cfg.cluster(nodes, os, cfg.Scale.Seed, true)
	if err != nil {
		return nil, nil, err
	}
	rec := cfg.Trace
	if rec == nil {
		rec = trace.NewRecorder()
	}
	cl.SetRecorder(rec)
	res, err := mpi.RunJob(cl, rpn, func(c *mpi.Comm) error { return app.Body(c, app) })
	if err != nil {
		return nil, nil, err
	}
	return rec, res, nil
}

// ---------------------------------------------------------------------
// Table 1: communication profile.
// ---------------------------------------------------------------------

// ProfileEntry is one row of the Table 1 reproduction.
type ProfileEntry struct {
	Call   string
	Time   time.Duration
	PctMPI float64
	PctRt  float64
}

// AppProfile is one (application, OS) cell of Table 1: the top-5 MPI
// calls with their share of MPI time and of overall runtime.
type AppProfile struct {
	App     string
	OS      string
	Top     []ProfileEntry
	Elapsed time.Duration
}

// Table1 profiles UMT2013, HACC and QBOX on the configured node count
// under all three OS configurations, one pool job per (app, OS) cell.
func Table1(cfg Config) ([]AppProfile, error) {
	sc := cfg.Scale
	names := []string{"UMT2013", "HACC", "QBOX"}
	type cell struct {
		app string
		os  cluster.OSType
	}
	var cells []cell
	var jobs []runner.Job[*mpi.JobResult]
	for _, name := range names {
		app, err := miniapps.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, os := range cluster.AllOSTypes {
			os := os
			id := fmt.Sprintf("table1/%s/%s", name, osName(os))
			cells = append(cells, cell{app: name, os: os})
			jobs = append(jobs, runner.Job[*mpi.JobResult]{ID: id, Fn: func() (*mpi.JobResult, error) {
				return runApp(cfg, app, sc.ProfileNodes, sc.ProfileRPN, os, runner.DeriveSeed(sc.Seed, id))
			}})
		}
	}
	results, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([]AppProfile, 0, len(cells))
	for i, c := range cells {
		res := results[i]
		prof := AppProfile{App: c.app, OS: osName(c.os), Elapsed: res.Elapsed}
		mpiTotal := res.MPI.Total()
		// %Rt is relative to the cumulative runtime over all ranks,
		// including initialization (the paper's profiles contain
		// MPI_Init).
		rtTotal := res.WallTime * time.Duration(res.Ranks)
		for _, e := range res.MPI.Top(5) {
			prof.Top = append(prof.Top, ProfileEntry{
				Call:   e.Name,
				Time:   e.Time,
				PctMPI: 100 * float64(e.Time) / float64(mpiTotal),
				PctRt:  100 * float64(e.Time) / float64(rtTotal),
			})
		}
		out = append(out, prof)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figures 8-9: kernel-level system call breakdown.
// ---------------------------------------------------------------------

// Breakdown is the LWK profiler view of one (app, OS) run: per-syscall
// shares of in-kernel time, as in the pie charts of Figures 8 and 9.
type Breakdown struct {
	App    string
	OS     string
	Shares []trace.Entry
	// KernelTime is the total time spent in (local or offloaded)
	// system calls across the LWK.
	KernelTime time.Duration
}

// SyscallBreakdown runs app on both McKernel configurations and returns
// their kernel profiles. The paper reports that with the HFI PicoDriver
// the kernel time shrinks to 7% (UMT2013) and 25% (QBOX) of the original
// McKernel's, with ioctl+writev dropping from >70% to <30% of it.
func SyscallBreakdown(cfg Config, appName string) (orig, pico Breakdown, err error) {
	sc := cfg.Scale
	app, err := miniapps.ByName(appName)
	if err != nil {
		return orig, pico, err
	}
	run := func(os cluster.OSType) (Breakdown, error) {
		seed := runner.DeriveSeed(sc.Seed, fmt.Sprintf("breakdown/%s/%s", appName, osName(os)))
		cl, err := cfg.cluster(sc.ProfileNodes, os, seed, true)
		if err != nil {
			return Breakdown{}, err
		}
		// Snapshot each node's kernel profile at body start so the
		// breakdown covers steady-state execution, not MPI_Init (the
		// paper's applications run long enough to amortize startup).
		baselines := make([]*trace.SyscallProfile, len(cl.Nodes))
		if _, err := mpi.RunJob(cl, sc.ProfileRPN, func(c *mpi.Comm) error {
			node := c.Rank / c.RanksPerNode
			if c.Rank%c.RanksPerNode == 0 {
				baselines[node] = cl.Nodes[node].Mck.Syscalls.Clone()
			}
			return app.Body(c, app)
		}); err != nil {
			return Breakdown{}, err
		}
		merged := trace.NewSyscallProfile()
		for i, n := range cl.Nodes {
			prof := n.Mck.Syscalls.Clone()
			if baselines[i] != nil {
				prof.Sub(baselines[i])
			}
			merged.Merge(prof)
		}
		return Breakdown{
			App: appName, OS: osName(os),
			Shares:     merged.Top(7),
			KernelTime: merged.Total(),
		}, nil
	}
	jobs := []runner.Job[Breakdown]{
		{ID: fmt.Sprintf("breakdown/%s/%s", appName, osName(cluster.OSMcKernel)),
			Fn: func() (Breakdown, error) { return run(cluster.OSMcKernel) }},
		{ID: fmt.Sprintf("breakdown/%s/%s", appName, osName(cluster.OSMcKernelHFI)),
			Fn: func() (Breakdown, error) { return run(cluster.OSMcKernelHFI) }},
	}
	results, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return orig, pico, err
	}
	return results[0], results[1], nil
}

// uint64VA helps build user addresses in harness code.
func uint64VA(v uint64) uproc.VirtAddr { return uproc.VirtAddr(v) }
