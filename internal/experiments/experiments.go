// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the ping-pong bandwidth sweep (Figure 4), the five
// mini-application scaling studies (Figures 5–7), the communication
// profile (Table 1) and the kernel-level system call breakdowns
// (Figures 8 and 9), plus the reproduction's own verbs, reliability,
// failover, tenancy and bigscale sweeps.
//
// Every experiment is the same shape — a parameter sweep × the OS
// configurations, one independent simulation per cell — and runs on one
// cell harness: job names a cell by its frozen id and hands it a Config
// that knows that id, Config.cluster builds the cell's machine (the
// package's only cluster.New call), a cell function drives it and
// returns one measurement, and osGrid fans the cells out over a
// runner.Pool and hands the results back indexed [key][os]. Results
// merge in submission order, so artifacts are byte-identical for any
// pool size; each cell's engine seed is derived from (Scale.Seed, cell
// id), never from scheduling, which is what keeps the merge
// deterministic. The same id selects the cell's span recorder
// (Config.Trace), so a traced cell is the table's own run.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/miniapps"
	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config is the single entry point every experiment runs under: the
// sweep bounds, the pool the independent simulation cells fan out over,
// the fabric fault profile and shard count of every cluster the
// experiments build, and the cells traced. Callers construct one Config
// instead of re-plumbing (pool, scale, seed, faults, shards, recorders)
// through each entry point.
type Config struct {
	Scale Scale
	// Pool fans the experiment's cells out (nil = a fresh
	// GOMAXPROCS-wide pool per call).
	Pool *runner.Pool
	// Faults is the lossy-fabric profile for every cluster built by the
	// experiments. The reliability sweep sets the drop rate per cell and
	// the failover cell adds its outage windows; everything else runs it
	// as given.
	Faults fabric.FaultProfile
	// Shards partitions every cluster the experiments build into that
	// many conservatively-synchronized engine shards (0 or 1 = one
	// standalone engine, the configuration every artifact is cut from).
	// Sharding requires the loss-free, jitter-free, congestion-free
	// profile; cluster.New rejects anything else.
	Shards int
	// Trace maps cell ids (e.g. "fig4/65536B/McKernel+HFI1") to the span
	// recorder the cell runs under; a cell whose id is absent runs
	// untraced. Recording moves no simulated value. Cells run
	// concurrently, so each recorder belongs to one id.
	Trace map[string]*trace.Recorder

	// cell is the id of the cell this Config runs: set by job, and by
	// Bigscale for its one cell.
	cell string
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

// cluster builds one cell's machine, and is the only place the package
// calls cluster.New. spec carries what the cell chooses — nodes, OS,
// Synthetic, Congestion, and Params when it departs from
// model.Default(), cluster.New's default; the fault profile and the
// shard count always come from the Config, so they reach every cell or
// cluster.New refuses the combination. A cell that sweeps the fault
// profile edits its own copy of the Config first. The seed and the
// recorder come from the cell's id: the engine is seeded
// DeriveSeed(Scale.Seed, id) and records into Trace[id].
func (c Config) cluster(spec cluster.Spec) (*cluster.Cluster, error) {
	spec.Faults = c.Faults
	spec.Shards = c.Shards
	spec.Seed = runner.DeriveSeed(c.Scale.Seed, c.cell)
	cl, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	cl.SetRecorder(c.Trace[c.cell])
	return cl, nil
}

// job is the one constructor of a runner.Job: the cell named id runs
// fn on a copy of cfg that knows the id. The runner reports errors
// under it, and the cell's seed and recorder derive from it, so cell
// ids are frozen: changing one reseeds the cell and with it the
// artifact.
func job[R any](cfg Config, id string, fn func(Config) (R, error)) runner.Job[R] {
	cfg.cell = id
	return runner.Job[R]{ID: id, Fn: func() (R, error) { return fn(cfg) }}
}

// cellID names one (key, OS) cell.
func cellID(key string, os cluster.OSType) string { return key + "/" + osName(os) }

// osGrid runs cell once per (key, OS configuration) on the Config's pool
// and returns the results indexed [key][os], os in cluster.AllOSTypes
// order. key names a sweep entry; together with the OS it is the cell's
// id.
func osGrid[K, R any](cfg Config, keys []K, key func(K) string,
	cell func(cfg Config, k K, os cluster.OSType) (R, error)) ([][]R, error) {
	var jobs []runner.Job[R]
	for _, k := range keys {
		for _, os := range cluster.AllOSTypes {
			jobs = append(jobs, job(cfg, cellID(key(k), os), func(cfg Config) (R, error) {
				return cell(cfg, k, os)
			}))
		}
	}
	flat, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return nil, err
	}
	n := len(cluster.AllOSTypes)
	grid := make([][]R, len(keys))
	for i := range grid {
		grid[i] = flat[i*n : (i+1)*n]
	}
	return grid, nil
}

// byOS folds one grid row into the per-OS-name map the row structs
// carry.
func byOS[R, V any](cells []R, val func(R) V) map[string]V {
	m := make(map[string]V, len(cells))
	for j, os := range cluster.AllOSTypes {
		m[osName(os)] = val(cells[j])
	}
	return m
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
	// FailoverMsgs is the length of the failover experiment's paced
	// stream of 32K messages.
	FailoverMsgs int
	// TenancyMsgs is the latency tenant's message count per tenancy
	// cell.
	TenancyMsgs int
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
		TenancyMsgs:      120,
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
		TenancyMsgs:  120,
		// RPN is 4, not the profile sweep's 32. The sharded barrier
		// orders same-instant arrivals at one destination from different
		// sources (fabric.Ties) by shard, the single engine by send
		// order, so a tie is necessary for a shard sweep to diverge but
		// not sufficient: UMT2013 at 16x16 has 30 ties and matches, at
		// 4x12 two and diverges (TestBigscaleNamesFirstDivergence). At
		// 1024 nodes the count grows ~40x between rpn=4 (26 ties) and
		// rpn=8 (872), and rpn=16 fails the digest gate. At rpn=4 the
		// full shard sweep is digest-identical.
		BigscaleNodes:  1024,
		BigscaleRPN:    4,
		BigscaleShards: []int{1, 2, 4, 8, 16},
		Seed:           1,
	}
}

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

func fig4Key(size uint64) string { return fmt.Sprintf("fig4/%dB", size) }

// Fig4 runs the IMB-style ping-pong sweep on a two-node cluster, one
// pool job per (message size, OS) cell.
func Fig4(cfg Config) ([]Fig4Row, error) {
	sc := cfg.Scale
	grid, err := osGrid(cfg, sc.PingPongSizes, fig4Key,
		func(cfg Config, size uint64, os cluster.OSType) (ppResult, error) {
			c, err := fig4Cell(cfg, os, size)
			if err != nil {
				return ppResult{}, err
			}
			defer c.cl.Close()
			return c.finish()
		})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, len(grid))
	for i, size := range sc.PingPongSizes {
		rows = append(rows, Fig4Row{
			Size:      size,
			MBps:      byOS(grid[i], func(c ppResult) float64 { return float64(size) / c.mean.Seconds() / 1e6 }),
			OneWayP50: byOS(grid[i], func(c ppResult) time.Duration { return c.hist.P50() }),
			OneWayP99: byOS(grid[i], func(c ppResult) time.Duration { return c.hist.P99() }),
		})
	}
	return rows, nil
}

// ppCell is a built-but-not-yet-run ping-pong cell: the cluster with
// both rank processes spawned, plus the accumulators their closures
// write into. Splitting construction from execution lets a test swap
// the payload reference between the two.
type ppCell struct {
	cl    *cluster.Cluster
	ranks *cluster.Ranks
	reps  int
	total time.Duration
	hist  *trace.Histogram
	// want fills dst with the payload an arrival of tag at rank must
	// carry: relPattern on both ranks. The ranks read it when they run,
	// so the harness test can swap in a wrong one between build and
	// finish.
	want func(dst []byte, rank int, tag uint64)
}

// fig4Cell builds the Figure 4 cell for one (OS, size): the scale's
// repetition count, verified exactly when the Config's fabric is lossy.
func fig4Cell(cfg Config, os cluster.OSType, size uint64) (*ppCell, error) {
	return buildPingPong(cfg, os, size, cfg.Scale.PingPongReps, cfg.Faults.Active())
}

// buildPingPong constructs the cell and spawns the ranks; the engine
// has not run yet when it returns. A verified cell moves real bytes:
// rank 0 seeds a per-tag reference pattern, both ranks check every
// arrival against it — the reliability layer must recover loss, never
// rewrite bytes — and both leave through Ranks.Drain. An unverified
// cell runs synthetic and never materializes a payload.
func buildPingPong(cfg Config, os cluster.OSType, size uint64, reps int, verified bool) (*ppCell, error) {
	cl, err := cfg.cluster(cluster.Spec{Nodes: 2, OS: os, Synthetic: !verified})
	if err != nil {
		return nil, err
	}
	c := &ppCell{cl: cl, reps: reps, hist: &trace.Histogram{},
		want: func(dst []byte, _ int, tag uint64) { relPattern(dst, tag) }}
	c.ranks = cl.StartRanks("pp", []int{0, 1}, nil, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		proc := ep.OS.Proc()
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		// The rank's reference and arrival buffers, refilled per bounce.
		var want, got []byte
		if verified {
			want, got = make([]byte, size), make([]byte, size)
		}
		arrived := func(tag uint64) error {
			if !verified {
				return nil
			}
			if err := proc.ReadAt(buf, got); err != nil {
				return err
			}
			c.want(want, r, tag)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("pingpong: payload mismatch at rank %d, tag %d (loss=%g size=%d, %s)",
					r, tag, cfg.Faults.Drop, size, os)
			}
			return nil
		}
		// Warmup round, then timed rounds.
		for i := 0; i <= reps; i++ {
			tag := uint64(10 + i)
			if r == 0 {
				if verified {
					relPattern(want, tag)
					if err := proc.WriteAt(buf, want); err != nil {
						return err
					}
				}
				start := p.Now()
				if err := ep.Send(p, 1, tag, buf, size); err != nil {
					return err
				}
				if err := ep.Recv(p, 1, tag, buf, size); err != nil {
					return err
				}
				if err := arrived(tag); err != nil {
					return err
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
				if err := arrived(tag); err != nil {
					return err
				}
				if err := ep.Send(p, 0, tag, buf, size); err != nil {
					return err
				}
			}
		}
		if verified {
			return c.ranks.Drain(p, ep)
		}
		return nil
	})
	return c, nil
}

// finish runs the cell's cluster to completion and folds the result.
func (c *ppCell) finish() (ppResult, error) {
	runErr := c.cl.Run(0)
	// A rank's own error is the cause; the deadlock Run reports after it
	// is only the peer left waiting for the failed rank.
	if err := c.ranks.Err(); err != nil {
		return ppResult{}, err
	}
	if runErr != nil {
		return ppResult{}, runErr
	}
	return ppResult{mean: c.total / time.Duration(2*c.reps), hist: c.hist}, nil
}

// relPattern fills b with the deterministic loss-free reference payload
// for a tag.
func relPattern(b []byte, tag uint64) {
	for k := range b {
		b[k] = byte(uint64(k)*2654435761 + tag*97)
	}
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
	rpn := appRPN(cfg.Scale, app)
	grid, err := osGrid(cfg, nodes,
		func(n int) string { return scalingKey(app.Name, n) },
		func(cfg Config, n int, os cluster.OSType) (*mpi.JobResult, error) {
			return runApp(cfg, app, cluster.Spec{Nodes: n, OS: os}, rpn)
		})
	if err != nil {
		return nil, err
	}
	out := make([]ScalingPoint, 0, len(grid))
	for i, n := range nodes {
		lin := grid[i][0].Elapsed // AllOSTypes[0] is Linux
		out = append(out, ScalingPoint{
			Nodes:      n,
			Elapsed:    byOS(grid[i], func(r *mpi.JobResult) time.Duration { return r.Elapsed }),
			RelToLinux: byOS(grid[i], func(r *mpi.JobResult) float64 { return lin.Seconds() / r.Elapsed.Seconds() }),
			RankP50:    byOS(grid[i], func(r *mpi.JobResult) time.Duration { return r.RankElapsed.P50() }),
			RankP99:    byOS(grid[i], func(r *mpi.JobResult) time.Duration { return r.RankElapsed.P99() }),
		})
	}
	return out, nil
}

func scalingKey(app string, nodes int) string { return fmt.Sprintf("%s/%dn", app, nodes) }

// runApp runs one mini-app job on a fresh synthetic cluster built from
// spec.
func runApp(cfg Config, app *miniapps.App, spec cluster.Spec, rpn int) (*mpi.JobResult, error) {
	spec.Synthetic = true
	cl, err := cfg.cluster(spec)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return mpi.RunJob(cl, rpn, func(c *mpi.Comm) error { return app.Body(c, app) })
}

// appRPN is the ranks per node app runs at: the scale's cap, or the
// app's own density when the scale sets none.
func appRPN(sc Scale, app *miniapps.App) int {
	if sc.RanksPerNode > 0 {
		return sc.RanksPerNode
	}
	return app.RanksPerNode
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
	apps := []*miniapps.App{miniapps.UMT2013(), miniapps.HACC(), miniapps.QBOX()}
	grid, err := osGrid(cfg, apps,
		func(app *miniapps.App) string { return table1Key(app.Name) },
		func(cfg Config, app *miniapps.App, os cluster.OSType) (*mpi.JobResult, error) {
			return runApp(cfg, app, cluster.Spec{Nodes: sc.ProfileNodes, OS: os}, sc.ProfileRPN)
		})
	if err != nil {
		return nil, err
	}
	var out []AppProfile
	for i, app := range apps {
		for j, os := range cluster.AllOSTypes {
			res := grid[i][j]
			prof := AppProfile{App: app.Name, OS: osName(os), Elapsed: res.Elapsed}
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
	}
	return out, nil
}

func table1Key(app string) string { return "table1/" + app }

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
	run := func(cfg Config, os cluster.OSType) (Breakdown, error) {
		cl, err := cfg.cluster(cluster.Spec{Nodes: sc.ProfileNodes, OS: os, Synthetic: true})
		if err != nil {
			return Breakdown{}, err
		}
		defer cl.Close() // after the profiles are merged: unwinding can add to them
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
	var jobs []runner.Job[Breakdown]
	for _, os := range []cluster.OSType{cluster.OSMcKernel, cluster.OSMcKernelHFI} {
		jobs = append(jobs, job(cfg, cellID("breakdown/"+appName, os), func(cfg Config) (Breakdown, error) {
			return run(cfg, os)
		}))
	}
	results, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return orig, pico, err
	}
	return results[0], results[1], nil
}
