package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§4), plus ablation benches for the design
// decisions called out in DESIGN.md. Each benchmark runs the experiment
// at a reduced scale and reports the paper's figures of merit as custom
// metrics (bandwidth in MB/s, performance relative to Linux in percent).
//
// Regenerate everything at larger scale with:
//
//	go run ./cmd/experiments -scale paper -out artifacts/

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hfi"
	"repro/internal/ihk"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/miniapps"
	"repro/internal/mlx"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pagetable"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// benchPool fans each experiment's simulation cells across all cores,
// matching cmd/experiments' default. Results are identical to a
// single-worker run by the runner's deterministic-merge contract.
var benchPool = runner.New(0)

// benchScale keeps single-iteration runtimes around a second.
func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.AppNodes = []int{2}
	sc.QBoxNodes = []int{4}
	sc.RanksPerNode = 8
	sc.ProfileNodes = 2
	sc.ProfileRPN = 8
	sc.PingPongSizes = []uint64{4 << 20}
	sc.PingPongReps = 3
	sc.VerbsSizes = []uint64{1 << 20}
	sc.VerbsReps = 3
	sc.LossRates = []float64{0.02}
	sc.ReliabilitySizes = []uint64{32 << 10}
	sc.TenancyMsgs = 60
	return sc
}

// benchConfig is the shared-pool experiment configuration every
// benchmark runs under.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: benchScale(), Pool: benchPool}
}

// fig4Bench regenerates the Figure 4 headline point: 4 MB ping-pong
// bandwidth per OS configuration, with the three OS cells spread over
// the given pool.
func fig4Bench(b *testing.B, pool *runner.Pool) {
	b.Helper()
	cfg := benchConfig()
	cfg.Pool = pool
	var rows []experiments.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.MBps["Linux"], "linux-MB/s")
	b.ReportMetric(last.MBps["McKernel"], "mckernel-MB/s")
	b.ReportMetric(last.MBps["McKernel+HFI1"], "hfi-MB/s")
}

// BenchmarkFig4PingPong runs the Figure 4 point on the shared pool.
// Compare against BenchmarkFig4PingPongSeq for the parallel-runner
// speedup on this machine.
func BenchmarkFig4PingPong(b *testing.B) { fig4Bench(b, benchPool) }

// BenchmarkFig4PingPongSeq is the sequential (-j 1) baseline.
func BenchmarkFig4PingPongSeq(b *testing.B) { fig4Bench(b, runner.New(1)) }

// appBench runs one mini-app scaling point and reports the relative
// performance metrics of Figures 5-7.
func appBench(b *testing.B, app *miniapps.App, nodes int) {
	b.Helper()
	cfg := benchConfig()
	var pts []experiments.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AppScaling(cfg, app, []int{nodes})
		if err != nil {
			b.Fatal(err)
		}
	}
	pt := pts[0]
	b.ReportMetric(100*pt.RelToLinux["McKernel"], "mckernel-%ofLinux")
	b.ReportMetric(100*pt.RelToLinux["McKernel+HFI1"], "hfi-%ofLinux")
	b.ReportMetric(pt.Elapsed["Linux"].Seconds()*1e3, "linux-ms")
}

// BenchmarkFig5aLAMMPS regenerates Figure 5a.
func BenchmarkFig5aLAMMPS(b *testing.B) { appBench(b, miniapps.LAMMPS(), 2) }

// BenchmarkFig5bNekbone regenerates Figure 5b.
func BenchmarkFig5bNekbone(b *testing.B) { appBench(b, miniapps.Nekbone(), 2) }

// BenchmarkFig6aUMT2013 regenerates Figure 6a (the offload collapse).
func BenchmarkFig6aUMT2013(b *testing.B) { appBench(b, miniapps.UMT2013(), 2) }

// BenchmarkFig6bHACC regenerates Figure 6b.
func BenchmarkFig6bHACC(b *testing.B) { appBench(b, miniapps.HACC(), 2) }

// BenchmarkFig7QBOX regenerates Figure 7 (starts at 4 nodes, as in the
// paper).
func BenchmarkFig7QBOX(b *testing.B) { appBench(b, miniapps.QBOX(), 4) }

// BenchmarkVerbsDataPath runs the RDMA registration-vs-data-path sweep
// at one message size and reports the registration latency per OS (the
// paper's control-path story) next to the OS-invariant WRITE latency.
func BenchmarkVerbsDataPath(b *testing.B) {
	var rows []experiments.VerbsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.VerbsSweep(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(float64(r.RegLat["Linux"])/1e3, "linux-reg-µs")
	b.ReportMetric(float64(r.RegLat["McKernel"])/1e3, "mckernel-reg-µs")
	b.ReportMetric(float64(r.RegLat["McKernel+HFI1"])/1e3, "hfi-reg-µs")
	b.ReportMetric(float64(r.WriteLat["McKernel+HFI1"])/1e3, "write-µs")
}

// BenchmarkTable1Profile regenerates the Table 1 communication profile.
func BenchmarkTable1Profile(b *testing.B) {
	var profiles []experiments.AppProfile
	for i := 0; i < b.N; i++ {
		var err error
		profiles, err = experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline observation: McKernel spends far more time in MPI_Wait
	// than Linux on UMT2013.
	var linWait, mckWait time.Duration
	for _, p := range profiles {
		if p.App != "UMT2013" {
			continue
		}
		for _, e := range p.Top {
			if e.Call != "MPI_Wait" {
				continue
			}
			switch p.OS {
			case "Linux":
				linWait = e.Time
			case "McKernel":
				mckWait = e.Time
			}
		}
	}
	if linWait > 0 {
		b.ReportMetric(float64(mckWait)/float64(linWait), "umt-wait-inflation")
	}
}

// BenchmarkFig8SyscallUMT regenerates the Figure 8 kernel profile.
func BenchmarkFig8SyscallUMT(b *testing.B) { breakdownBench(b, "UMT2013") }

// BenchmarkFig9SyscallQBOX regenerates the Figure 9 kernel profile.
func BenchmarkFig9SyscallQBOX(b *testing.B) { breakdownBench(b, "QBOX") }

func breakdownBench(b *testing.B, app string) {
	b.Helper()
	var orig, pico experiments.Breakdown
	for i := 0; i < b.N; i++ {
		var err error
		orig, pico, err = experiments.SyscallBreakdown(benchConfig(), app)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*float64(pico.KernelTime)/float64(orig.KernelTime), "hfi-kerneltime-%oforig")
}

// BenchmarkReliabilityLossy runs one lossy (2% drop) reliability cell
// set and reports the recovery cost next to the delivered goodput.
func BenchmarkReliabilityLossy(b *testing.B) {
	var rows []experiments.ReliabilityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Reliability(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	b.ReportMetric(r.Goodput["McKernel+HFI1"], "hfi-MB/s")
	b.ReportMetric(float64(r.Retransmits["McKernel+HFI1"]), "hfi-retransmits")
}

// BenchmarkFailover runs the dual-rail live-failover cell set (all
// three OS configurations, rail 0 down mid-stream) and reports the
// blackout window the health machine's detection and rail switch cost.
func BenchmarkFailover(b *testing.B) {
	var rows []experiments.FailoverRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Failover(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.OS == "McKernel+HFI1" {
			b.ReportMetric(float64(r.Blackout)/1e3, "hfi-blackout-µs")
			b.ReportMetric(r.PostMBps, "hfi-post-MB/s")
		}
	}
}

// BenchmarkTenancy runs the multi-tenant interference sweep (all three
// OS configurations × solo/packed/spread/incast scenarios on the
// congestion-controlled fabric) and reports the noisy-neighbor p99
// inflation a packed placement costs the victim, plus the bulk
// neighbor's goodput under AIMD backoff.
func BenchmarkTenancy(b *testing.B) {
	var rows []experiments.TenancyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Tenancy(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	var solo, packed experiments.TenancyRow
	for _, r := range rows {
		if r.OS != "McKernel+HFI1" {
			continue
		}
		switch r.Scenario {
		case "solo":
			solo = r
		case "packed":
			packed = r
		}
	}
	b.ReportMetric(float64(packed.VictimP99-solo.VictimP99)/1e3, "hfi-p99-inflation-µs")
	b.ReportMetric(packed.BulkMBps, "hfi-bulk-MB/s")
}

// BenchmarkSharded runs one UMT2013 point on the sharded engine end to
// end — partitioned cluster build, conservative window loop,
// cross-shard packet delivery and barrier rendezvous. Its
// bench_budget.json ceiling keeps the sharded fast path
// allocation-clean: a per-window or per-cross-event allocation
// (thousands of each per run) trips the gate immediately.
func BenchmarkSharded(b *testing.B) {
	app, _ := miniapps.ByName("UMT2013")
	var windows, cross uint64
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(cluster.Spec{Nodes: 16, OS: cluster.OSMcKernelHFI,
			Params: model.Default(), Seed: 1, Synthetic: true, Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mpi.RunJob(cl, 4, func(c *mpi.Comm) error { return app.Body(c, app) }); err != nil {
			b.Fatal(err)
		}
		windows, cross = cl.Set.Windows, cl.Set.CrossEvents
	}
	b.ReportMetric(float64(windows), "windows")
	b.ReportMetric(float64(cross), "cross-events")
}

// ---------------------------------------------------------------------
// Ablation benches (DESIGN.md §4).
// ---------------------------------------------------------------------

// BenchmarkAblationCoalescing compares the PicoDriver with and without
// the §3.4 SDMA request coalescing on a 4 MB transfer.
func BenchmarkAblationCoalescing(b *testing.B) {
	run := func(coalesce bool) time.Duration {
		cl, err := cluster.New(cluster.Spec{
			Nodes: 2, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 1, Synthetic: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range cl.Nodes {
			n.Pico.Coalesce = coalesce
		}
		res, err := mpi.RunJob(cl, 1, func(c *mpi.Comm) error {
			buf, err := c.MmapAnon(4 << 20)
			if err != nil {
				return err
			}
			peer := 1 - c.Rank
			rr, err := c.Irecv(peer, 1, buf, 4<<20)
			if err != nil {
				return err
			}
			if err := c.Send(peer, 1, buf, 4<<20); err != nil {
				return err
			}
			return c.Wait(rr)
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Elapsed
	}
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		on = run(true)
		off = run(false)
	}
	b.ReportMetric(off.Seconds()/on.Seconds(), "coalescing-speedup")
}

// BenchmarkAblationLinuxCPUs varies the number of OS cores: the offload
// collapse is a function of the rank-to-Linux-CPU ratio (§4.3).
func BenchmarkAblationLinuxCPUs(b *testing.B) {
	run := func(osCPUs int) time.Duration {
		spec := ihk.DefaultNodeSpec()
		spec.LinuxCPUs = osCPUs
		cl, err := cluster.New(cluster.Spec{
			Nodes: 2, OS: cluster.OSMcKernel, Params: model.Default(),
			Spec: spec, Seed: 1, Synthetic: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		app := miniapps.UMT2013()
		app.Steps = 1
		res, err := mpi.RunJob(cl, 16, func(c *mpi.Comm) error { return app.Body(c, app) })
		if err != nil {
			b.Fatal(err)
		}
		return res.Elapsed
	}
	var few, many time.Duration
	for i := 0; i < b.N; i++ {
		few = run(2)
		many = run(16)
	}
	b.ReportMetric(few.Seconds()/many.Seconds(), "2cpu-vs-16cpu-slowdown")
}

// BenchmarkAblationBackingPolicy measures the page-table-walk output the
// two anonymous-memory policies hand the SDMA path for a 4 MB buffer:
// scattered 4K pages (Linux) versus contiguous large-page runs
// (McKernel) — the raw material of the §3.4 optimization.
func BenchmarkAblationBackingPolicy(b *testing.B) {
	pm, err := mem.NewPhysMem(
		mem.Region{Base: 0, Size: 256 << 20, Kind: mem.DDR4, Owner: "k"},
	)
	if err != nil {
		b.Fatal(err)
	}
	var scatterExts, contigExts int
	for i := 0; i < b.N; i++ {
		lin := uproc.NewProcess("lin", pm.Partition("k"), uproc.BackingScattered4K)
		mck := uproc.NewProcess("mck", pm.Partition("k"), uproc.BackingContigLarge)
		lva, err := lin.MmapAnon(4 << 20)
		if err != nil {
			b.Fatal(err)
		}
		mva, err := mck.MmapAnon(4 << 20)
		if err != nil {
			b.Fatal(err)
		}
		le, err := lin.PT.WalkExtents(lva, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		me, err := mck.PT.WalkExtents(mva, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		scatterExts, contigExts = len(le), len(me)
		if err := lin.Munmap(lva); err != nil {
			b.Fatal(err)
		}
		if err := mck.Munmap(mva); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(scatterExts), "scattered-extents")
	b.ReportMetric(float64(contigExts), "contig-extents")
}

// BenchmarkAblationMunmapOptimized implements the paper's immediate
// future work — fixing McKernel's munmap path — and measures how much of
// QBOX's remaining +HFI kernel time it recovers (Figure 9 showed munmap
// dominating).
func BenchmarkAblationMunmapOptimized(b *testing.B) {
	run := func(munmapPerPage time.Duration) time.Duration {
		pr := model.Default()
		pr.McKMunmapPerPage = munmapPerPage
		cl, err := cluster.New(cluster.Spec{
			Nodes: 2, OS: cluster.OSMcKernelHFI, Params: pr, Seed: 1, Synthetic: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		app := miniapps.QBOX()
		res, err := mpi.RunJob(cl, 8, func(c *mpi.Comm) error { return app.Body(c, app) })
		if err != nil {
			b.Fatal(err)
		}
		return res.Elapsed
	}
	var current, optimized time.Duration
	for i := 0; i < b.N; i++ {
		current = run(model.Default().McKMunmapPerPage)
		optimized = run(20 * time.Nanosecond)
	}
	b.ReportMetric(current.Seconds()/optimized.Seconds(), "munmap-fix-speedup")
}

// BenchmarkExtensionMLXRegMR measures the paper's §6 future work as
// implemented here: InfiniBand memory registration ported to the LWK
// (core.MLXPico) versus the offloaded path, for a 1 MB region.
func BenchmarkExtensionMLXRegMR(b *testing.B) {
	run := func(fast bool) time.Duration {
		cl, err := cluster.New(cluster.Spec{
			Nodes: 1, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		// The cluster registers the mlx driver and attaches its fast path
		// itself on this configuration; the offloaded leg detaches it.
		n := cl.Nodes[0]
		if !fast {
			n.Mck.ReplaceFastPath(mlx.DevicePath, nil)
		}
		var lat time.Duration
		proc := n.Mck.NewProcess("verbs")
		cl.Go(0, "app", func(p *sim.Proc) {
			ctx := &kernel.Ctx{P: p, CPU: n.AppCPUs()[0]}
			f, err := n.Mck.Open(ctx, proc, mlx.DevicePath)
			if err != nil {
				b.Error(err)
				return
			}
			buf, err := n.Mck.MmapAnon(ctx, proc, 1<<20)
			if err != nil {
				b.Error(err)
				return
			}
			argVA, err := n.Mck.MmapAnon(ctx, proc, 4096)
			if err != nil {
				b.Error(err)
				return
			}
			if err := mlx.EncodeMRInfo(proc, argVA, &mlx.MRInfo{VAddr: buf, Length: 1 << 20}); err != nil {
				b.Error(err)
				return
			}
			start := p.Now()
			if _, err := n.Mck.Ioctl(ctx, f, mlx.CmdRegMR, argVA); err != nil {
				b.Error(err)
				return
			}
			lat = p.Now() - start
		})
		if err := cl.Run(0); err != nil {
			b.Fatal(err)
		}
		return lat
	}
	var off, fast time.Duration
	for i := 0; i < b.N; i++ {
		off = run(false)
		fast = run(true)
	}
	b.ReportMetric(off.Seconds()*1e6, "offloaded-us")
	b.ReportMetric(fast.Seconds()*1e6, "fastpath-us")
	b.ReportMetric(off.Seconds()/fast.Seconds(), "regmr-speedup")
}

// ---------------------------------------------------------------------
// Micro benches of the hot primitives.
// ---------------------------------------------------------------------

// BenchmarkSDMARequestBuilder measures the pure descriptor-splitting
// logic both drivers share.
func BenchmarkSDMARequestBuilder(b *testing.B) {
	exts := []mem.Extent{{Addr: 0x100000, Len: 4 << 20}}
	tids := []hfi.TIDPair{}
	off := uint64(0)
	for off < 4<<20 {
		tids = append(tids, hfi.TIDPair{Idx: uint64(len(tids)), Len: 256 << 10})
		off += 256 << 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hfi.BuildExpectedRequests(exts, 10240, tids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDWARFExtract measures the §3.2 extraction path.
func BenchmarkDWARFExtract(b *testing.B) {
	blob, err := hfi.BuildDWARFBlob(hfi.BuildRegistry(hfi.DriverVersion))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtractLayouts(blob, "bench", core.HFIWants); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageTableWalk measures the fast path's extent gathering over
// a large-page-backed 4 MB mapping.
func BenchmarkPageTableWalk(b *testing.B) {
	pt := pagetable.New()
	if err := pt.Map(pagetable.Size2M*16, 0x40000000, 4<<20, pagetable.Writable); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pt.WalkExtents(pagetable.Size2M*16, 4<<20); err != nil {
			b.Fatal(err)
		}
	}
}
