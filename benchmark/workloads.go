package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/mem"
	"repro/internal/miniapps"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
)

// sizes is the fixed work of one unit of every workload. A unit is a
// closed loop: one simulation at a time, no time-based stopping, so every
// count it reports repeats exactly. fullSizes is what the benchmark
// measures; smokeSizes (÷100 where the work is a loop count) is what the
// tests run.
type sizes struct {
	ppSmallTrips int // 1 KB round trips per OS configuration
	ppLargeTrips int // 4 MB round trips per OS configuration
	lossyTrips   int // 32 KB round trips per OS configuration at 2 % drop
	umtNodes     int
	umtRPN       int
	shardNodes   int
	shardRPN     int
	driverIters  int // map/walk/build/pin/copy/unmap rounds per backing
	regenRPN     int
	regenLoss    []float64 // reliability drop rates
}

var fullSizes = sizes{
	ppSmallTrips: 16000,
	ppLargeTrips: 20,
	lossyTrips:   1000,
	umtNodes:     4,
	umtRPN:       16,
	shardNodes:   64,
	shardRPN:     4,
	driverIters:  600,
	regenRPN:     8,
	regenLoss:    []float64{0, 0.01},
}

var smokeSizes = sizes{
	ppSmallTrips: 160,
	ppLargeTrips: 1,
	lossyTrips:   10,
	umtNodes:     2,
	umtRPN:       2,
	shardNodes:   4,
	shardRPN:     2,
	driverIters:  6,
	regenRPN:     2,
	regenLoss:    []float64{0.01},
}

const (
	smallMsg = 1 << 10
	largeMsg = 4 << 20
	lossyMsg = 32 << 10
	lossRate = 0.02
	shards   = 4
	umtSteps = 1 // UMT2013 timesteps, both MPI workloads: half the default, so a unit is short
	// regenNodes is the AppScaling / Table1 node count (QBOX: twice that).
	regenNodes = 2
)

// unit accumulates what one unit of a workload measured: the host costs of
// its timed regions, the exact counters read from the layers' public
// accessors once each cell has finished, and (traced pass only) the
// simulated-time spans of the attached recorders.
type unit struct {
	seed   int64
	sz     sizes
	traced bool
	spans  *spanLog // harness host-time spans; nil when untraced

	c        counters      // exact, from public accessors; identical in every unit
	t        counters      // from the attached recorders; traced units only
	setup    time.Duration // Σ cluster.New (or the workload's own set-up)
	wall     time.Duration // Σ timed regions
	allocB   uint64        // Σ TotalAlloc delta over timed regions
	mallocs  uint64        // Σ Mallocs delta over timed regions
	nodes    int           // Σ nodes built, for cluster.setup_ms_per_node
	lat      trace.Histogram
	workers  int // runner pool width (regen_sweep)
	attempts int
	failures int
}

// timed runs fn as one timed region: host wall clock plus the allocation
// deltas the end-to-end metrics report.
func (u *unit) timed(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	u.wall += time.Since(t0)
	runtime.ReadMemStats(&m1)
	u.allocB += m1.TotalAlloc - m0.TotalAlloc
	u.mallocs += m1.Mallocs - m0.Mallocs
	return err
}

// newCluster is the set-up step of a cell: cluster.New, timed on its own
// so that work moved into construction shows in setup_s.
func (u *unit) newCluster(spec cluster.Spec) (*cluster.Cluster, *trace.Recorder, error) {
	spec.Params = model.Default()
	defer u.spans.begin("setup")()
	t0 := time.Now()
	cl, err := cluster.New(spec)
	u.setup += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	u.nodes += spec.Nodes
	var rec *trace.Recorder
	if u.traced {
		rec = trace.NewRecorder()
		for _, e := range cl.Engines() {
			e.SetRecorder(rec)
		}
	}
	return cl, rec, nil
}

// collect reads every layer's public counters off a finished cluster.
func (u *unit) collect(cl *cluster.Cluster, eps []*psm.Endpoint, rec *trace.Recorder) {
	c := u.c
	for _, e := range cl.Engines() {
		c.add("sim.events", e.Seq())
	}
	c.add("sim.sim_ns", uint64(cl.Now()))
	if cl.Set != nil {
		c.add("sim.windows", cl.Set.Windows)
		c.add("sim.cross_events", cl.Set.CrossEvents)
	}
	for _, f := range cl.Fabrics() {
		b, p := f.TxTotals()
		c.add("fabric.bytes", b)
		c.add("fabric.packets", p)
		fs := f.FaultStats()
		c.add("fabric.dropped", fs.Dropped+fs.DownDrops)
		ps := f.PoolStats()
		c.add("fabric.pool_buf_gets", ps.BufGets)
		c.add("fabric.pool_buf_hits", ps.BufHits)
		c.add("fabric.pool_pkt_gets", ps.PktGets)
		c.add("fabric.pool_pkt_hits", ps.PktHits)
	}
	c.add("fabric.ties", cl.Ties())
	for _, n := range cl.Nodes {
		c.add("hfi.tx_bytes", n.NIC.TxBytes())
		c.add("mem.pinned_frames_end", uint64(n.Phys.PinnedFrames()))
	}
	for _, ep := range eps {
		s := &ep.Stats
		c.add("psm.sends_pio", s.SendsPIO)
		c.add("psm.sends_eager_sdma", s.SendsEagerSDMA)
		c.add("psm.sends_rdv", s.SendsRdv)
		c.add("psm.writevs", s.Writevs)
		c.add("psm.tid_ioctls", s.TIDIoctls)
		c.add("psm.unexpected", s.Unexpected)
		c.add("psm.retransmits", s.Retransmits)
		c.add("psm.timeouts", s.Timeouts)
		c.add("psm.naks", s.NaksSent)
		c.add("psm.msg_resends", s.MsgResends)
		c.add("psm.bytes_recv", s.BytesRecv)
	}
	c = u.t
	rec.ForEachSpan(func(s *trace.Span) {
		d := uint64(s.End - s.Begin)
		c.add("trace.spans", 1)
		switch s.Cat {
		case trace.CatFabric:
			c.add("fabric.spans", 1)
			c.add("fabric.sim_busy_ns", d)
		case trace.CatSDMA:
			c.add("hfi.sdma_txns", 1)
			c.add("hfi.sdma_sim_busy_ns", d)
		case trace.CatIRQ:
			c.add("hfi.irq_spans", 1)
		case trace.CatPSM:
			c.add("psm.sim_busy_ns", d)
		case trace.CatLinux:
			c.add("kernels.linux_sim_busy_ns", d)
		case trace.CatMcKernel:
			c.add("kernels.mckernel_sim_busy_ns", d)
		case trace.CatIKC:
			c.add("kernels.offloads", 1)
			c.add("kernels.ikc_sim_busy_ns", d)
		}
	})
}

// cellSeed derives the seed one cluster is built from. The program under
// test only ever sees these derived seeds, never --seed itself.
func (u *unit) cellSeed(id string) int64 { return runner.DeriveSeed(u.seed, id) }

// ---------------------------------------------------------------------
// Ping-pong cells: pp_small, pp_large, lossy_stream.
// ---------------------------------------------------------------------

// stampStride spaces the per-bounce stamps through a payload, so that a
// stale or misplaced fragment anywhere in a large message is caught
// without rewriting the whole buffer every round trip.
const stampStride = 64 << 10

// pingPong runs one two-node cell written directly against psm: rank 0
// stamps the payload, sends it, receives the echo into a second buffer and
// compares every byte. It returns the summed round-trip time of the timed
// (post-warm-up) trips.
func (u *unit) pingPong(os cluster.OSType, size uint64, trips int, drop float64, id string) (time.Duration, error) {
	defer u.spans.begin("cell " + id)()
	seed := u.cellSeed(id)
	cl, rec, err := u.newCluster(cluster.Spec{
		Nodes: 2, OS: os, Seed: seed, Faults: fabric.FaultProfile{LinkFaults: fabric.LinkFaults{Drop: drop}},
	})
	if err != nil {
		return 0, err
	}
	var (
		eps    = make([]*psm.Endpoint, 2)
		book   = psm.MapBook{}
		ready  = cl.NewRendezvous(2)
		idle   int
		total  time.Duration
		runErr error
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	// The reference payload lives on the host; only its stamps change per
	// bounce and are mirrored into rank 0's simulated send buffer.
	want := make([]byte, size)
	fillPattern(want, uint64(seed))
	got := make([]byte, size)

	for r := 0; r < 2; r++ {
		r := r
		osops := cl.Nodes[r].NewRankOS(r)
		cl.Go(r, fmt.Sprintf("pp%d", r), func(p *sim.Proc) {
			ep, err := psm.NewEndpoint(p, osops, r, book, false)
			if err != nil {
				fail(err)
				ready.Done(p)
				return
			}
			eps[r] = ep
			book[r] = psm.Addr{Node: osops.NodeID(), Ctx: ep.CtxID}
			ready.Done(p)
			ready.Wait(p)
			proc := osops.Proc()
			sbuf, err := osops.MmapAnon(p, size)
			if err != nil {
				fail(err)
				return
			}
			rbuf, err := osops.MmapAnon(p, size)
			if err != nil {
				fail(err)
				return
			}
			if r == 0 {
				if err := proc.WriteAt(sbuf, want); err != nil {
					fail(err)
					return
				}
			}
			// One warm-up trip, then the timed trips.
			for i := 0; i <= trips; i++ {
				tag := uint64(10 + i)
				if r == 1 {
					if err := ep.Recv(p, 0, tag, rbuf, size); err != nil {
						fail(err)
						return
					}
					if err := ep.Send(p, 0, tag, rbuf, size); err != nil {
						fail(err)
						return
					}
					continue
				}
				for off := uint64(0); off+8 <= size; off += stampStride {
					binary.LittleEndian.PutUint64(want[off:], tag)
					if err := proc.WriteAt(sbuf+uproc.VirtAddr(off), want[off:off+8]); err != nil {
						fail(err)
						return
					}
				}
				start := p.Now()
				if err := ep.Send(p, 1, tag, sbuf, size); err != nil {
					fail(err)
					return
				}
				if err := ep.Recv(p, 1, tag, rbuf, size); err != nil {
					fail(err)
					return
				}
				rtt := p.Now() - start
				u.attempts++
				if err := proc.ReadAt(rbuf, got); err != nil {
					fail(err)
					return
				}
				if !bytes.Equal(got, want) {
					u.failures++
				}
				if i > 0 {
					total += rtt
					u.lat.Observe(rtt / 2)
				}
			}
			if drop > 0 {
				// As experiments/reliability.go does: quiesce, then stay
				// alive re-ACKing duplicates until the peer has drained too.
				if err := ep.Quiesce(p); err != nil {
					fail(err)
					return
				}
				idle++
				for idle < 2 {
					if _, err := ep.Progress(p); err != nil {
						fail(err)
						return
					}
					p.Sleep(time.Microsecond)
				}
			}
		})
	}
	end := u.spans.begin("run")
	err = u.timed(func() error { return cl.Run(0) })
	end()
	if err == nil {
		err = runErr
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", id, err)
	}
	defer u.spans.begin("verify")()
	u.collect(cl, eps, rec)
	u.c.add("sim.elapsed_ns", uint64(total))
	return total, nil
}

// fillPattern writes a seed-dependent reference payload.
func fillPattern(b []byte, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

func (u *unit) ppAllOS(name string, size uint64, trips int, drop float64) (map[cluster.OSType]time.Duration, error) {
	out := make(map[cluster.OSType]time.Duration)
	for _, os := range cluster.AllOSTypes {
		d, err := u.pingPong(os, size, trips, drop, name+"/"+os.String())
		if err != nil {
			return nil, err
		}
		out[os] = d
	}
	return out, nil
}

func runPPSmall(u *unit) error {
	_, err := u.ppAllOS("pp_small", smallMsg, u.sz.ppSmallTrips, 0)
	return err
}

// Figure 4's headline: at 4 MB the original McKernel reaches ≈90 % of
// Linux's bandwidth and McKernel+HFI1 ≈115 %.
const (
	paperMckPct = 90.0
	paperHFIPct = 115.0
)

func runPPLarge(u *unit) error {
	rtt, err := u.ppAllOS("pp_large", largeMsg, u.sz.ppLargeTrips, 0)
	if err != nil {
		return err
	}
	// Bandwidth relative to Linux is the inverse ratio of round-trip time.
	lin := float64(rtt[cluster.OSLinux])
	mck := 100 * lin / float64(rtt[cluster.OSMcKernel])
	pico := 100 * lin / float64(rtt[cluster.OSMcKernelHFI])
	u.c["model.fom_mck_pct_of_linux"] = mck
	u.c["model.fom_hfi_pct_of_linux"] = pico
	u.c["paper_err_pct"] = (math.Abs(mck-paperMckPct) + math.Abs(pico-paperHFIPct)) / 2
	return nil
}

func runLossyStream(u *unit) error {
	_, err := u.ppAllOS("lossy_stream", lossyMsg, u.sz.lossyTrips, lossRate)
	return err
}

// ---------------------------------------------------------------------
// MPI cells: umt_ranks, shard_scale.
// ---------------------------------------------------------------------

// mpiJob runs one mini-app job. It goes through StartJob rather than
// RunJob only to reach the per-rank endpoints' counters afterwards; the
// timed region is the same (spawn the ranks, drive the machine).
func (u *unit) mpiJob(app *miniapps.App, nodes, rpn, nshards int, os cluster.OSType, id string) error {
	defer u.spans.begin("cell " + id)()
	app.Steps = umtSteps
	cl, rec, err := u.newCluster(cluster.Spec{
		Nodes: nodes, OS: os, Seed: u.cellSeed(id), Synthetic: true, Shards: nshards,
	})
	if err != nil {
		return err
	}
	placement := make([]int, nodes*rpn)
	for r := range placement {
		placement[r] = r / rpn
	}
	var h *mpi.JobHandle
	end := u.spans.begin("run")
	err = u.timed(func() error {
		h = mpi.StartJob(cl, mpi.JobSpec{Placement: placement, Body: func(c *mpi.Comm) error { return app.Body(c, app) }})
		return cl.Run(0)
	})
	end()
	u.attempts++
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	defer u.spans.begin("verify")()
	res, err := h.Result()
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	eps := make([]*psm.Endpoint, 0, len(h.Comms()))
	for _, c := range h.Comms() {
		eps = append(eps, c.EP)
	}
	u.collect(cl, eps, rec)
	u.c.add("sim.elapsed_ns", uint64(res.Elapsed))
	u.c.add("mpi.wait_sim_ns", uint64(res.MPI.Total()-res.MPI.Time("MPI_Init")))
	return nil
}

func runUMTRanks(u *unit) error {
	for _, os := range cluster.AllOSTypes {
		if err := u.mpiJob(miniapps.UMT2013(), u.sz.umtNodes, u.sz.umtRPN, 0, os, "umt_ranks/"+os.String()); err != nil {
			return err
		}
	}
	return nil
}

func runShardScale(u *unit) error { return u.shardCell(shards) }

// shardCell is shard_scale at a given shard count; the traced pass runs it
// again at 1 for sim.shard1_match.
func (u *unit) shardCell(n int) error {
	return u.mpiJob(miniapps.UMT2013(), u.sz.shardNodes, u.sz.shardRPN, n, cluster.OSMcKernelHFI, "shard_scale")
}

// ---------------------------------------------------------------------
// driver_pure: the paper's §3.4 logic with zero events.
// ---------------------------------------------------------------------

const (
	driverBuf      = 4 << 20
	driverCopy     = 64 << 10
	driverResident = 32 << 20
	cap4K          = 4 << 10
	cap10K         = 10 << 10
)

func runDriverPure(u *unit) error {
	pr := model.Default()
	// Set-up: physical memory and the two processes whose backing policies
	// are the two sides of §3.4.
	end := u.spans.begin("setup")
	t0 := time.Now()
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 1 << 30, Kind: mem.MCDRAM, Owner: "bench"})
	if err != nil {
		return err
	}
	procs := []*uproc.Process{
		uproc.NewProcess("scattered", pm.Partition("bench"), uproc.BackingScattered4K),
		uproc.NewProcess("contig", pm.Partition("bench"), uproc.BackingContigLarge),
	}
	tids := make([]hfi.TIDPair, 0, driverBuf/pr.TIDMaxEntryBytes)
	for off := uint64(0); off < driverBuf; off += pr.TIDMaxEntryBytes {
		tids = append(tids, hfi.TIDPair{Idx: uint64(len(tids)), Len: pr.TIDMaxEntryBytes})
	}
	src := make([]byte, driverCopy)
	fillPattern(src, uint64(u.seed))
	dst := make([]byte, driverCopy)
	// Each process keeps a written resident mapping for the whole unit, as
	// a rank on a long-running node does: the frame table and the pin
	// counts are never near-empty, and the collector paces itself against
	// a live heap instead of firing every few megabytes. One warm-up round
	// then faults the page-table levels in.
	resident := make([]uproc.VirtAddr, len(procs))
	for i, p := range procs {
		if resident[i], err = p.MmapAnon(driverResident); err != nil {
			return err
		}
		for off := uint64(0); off < driverResident; off += driverCopy {
			if err := p.WriteAt(resident[i]+uproc.VirtAddr(off), src); err != nil {
				return err
			}
		}
		if _, err := driverRound(u, p, pm, &pr, tids, src, dst, nil); err != nil {
			return err
		}
	}
	u.setup += time.Since(t0)
	end()
	u.c = counters{}

	end = u.spans.begin("run")
	err = u.timed(func() error {
		var exts []mem.Extent
		for i := 0; i < u.sz.driverIters; i++ {
			for _, p := range procs {
				var err error
				if exts, err = driverRound(u, p, pm, &pr, tids, src, dst, exts); err != nil {
					return err
				}
			}
		}
		return nil
	})
	end()
	if err != nil {
		return err
	}
	defer u.spans.begin("verify")()
	for i, p := range procs {
		if err := p.Munmap(resident[i]); err != nil {
			return err
		}
	}
	u.c.add("mem.pinned_frames_end", uint64(pm.PinnedFrames())) // 0: every pin was dropped
	return nil
}

// driverRound is one map → walk → build requests → pin → copy → unpin →
// unmap round on one process, checked as it goes.
func driverRound(u *unit, p *uproc.Process, pm *mem.PhysMem, pr *model.Params, tids []hfi.TIDPair, src, dst []byte, exts []mem.Extent) ([]mem.Extent, error) {
	va, err := p.MmapAnon(driverBuf)
	if err != nil {
		return exts, err
	}
	exts, err = p.PT.WalkExtentsInto(exts[:0], va, driverBuf)
	if err != nil {
		return exts, err
	}
	u.c.add("driver.extents."+p.Name, uint64(len(exts)))
	for _, limit := range []uint64{cap4K, cap10K} {
		eager, err := hfi.BuildEagerRequests(exts, limit, pr.EagerChunk)
		if err != nil {
			return exts, err
		}
		expected, err := hfi.BuildExpectedRequests(exts, limit, tids)
		if err != nil {
			return exts, err
		}
		st := hfi.StatRequests(expected, limit)
		u.attempts++
		if st.Bytes != driverBuf || hfi.StatRequests(eager, limit).Bytes != driverBuf {
			u.failures++
		}
		u.c.add(fmt.Sprintf("driver.reqs_%dk.%s", limit>>10, p.Name), uint64(st.Count))
		u.c.add(fmt.Sprintf("driver.eager_reqs_%dk.%s", limit>>10, p.Name), uint64(len(eager)))
	}
	for _, e := range exts {
		pm.Pin(e)
	}
	for off := uint64(0); off < driverBuf; off += driverBuf / 4 {
		if err := p.WriteAt(va+uproc.VirtAddr(off), src); err != nil {
			return exts, err
		}
		if err := p.ReadAt(va+uproc.VirtAddr(off), dst); err != nil {
			return exts, err
		}
		u.attempts++
		if !bytes.Equal(src, dst) {
			u.failures++
		}
	}
	for _, e := range exts {
		pm.Unpin(e)
	}
	return exts, p.Munmap(va)
}

// ---------------------------------------------------------------------
// regen_sweep: artifact regeneration the way cmd/experiments does it.
// ---------------------------------------------------------------------

func runRegenSweep(u *unit) error {
	sc := experiments.SmallScale()
	sc.Seed = u.cellSeed("regen_sweep")
	sc.RanksPerNode = u.sz.regenRPN
	sc.ProfileNodes = regenNodes
	sc.ProfileRPN = u.sz.regenRPN
	sc.LossRates = u.sz.regenLoss
	sc.ReliabilitySizes = []uint64{lossyMsg}
	pool := runner.New(0)
	cfg := experiments.Config{Scale: sc, Pool: pool}
	u.workers = pool.Workers()

	digest := fnv.New32a()
	// fold hashes the rows an experiment returned (maps print in key
	// order) and counts its cells.
	fold := func(cells int, rows any) {
		fmt.Fprintf(digest, "%v", rows)
		u.c.add("runner.cells", uint64(cells))
		u.attempts += cells
	}
	nOS := len(cluster.AllOSTypes)
	fig4 := func() error {
		rows, err := experiments.Fig4(cfg)
		for _, r := range rows {
			for _, d := range r.OneWayP50 {
				u.c.add("sim.elapsed_ns", uint64(d))
			}
		}
		fold(len(rows)*nOS, rows)
		return err
	}
	steps := []func() error{
		fig4,
		func() error {
			for _, app := range []*miniapps.App{miniapps.LAMMPS(), miniapps.Nekbone(), miniapps.UMT2013(), miniapps.HACC(), miniapps.QBOX()} {
				nodes := regenNodes
				if app.Name == "QBOX" {
					nodes *= 2 // its input needs at least 4 nodes
				}
				pts, err := experiments.AppScaling(cfg, app, []int{nodes})
				if err != nil {
					return err
				}
				for _, pt := range pts {
					for _, d := range pt.Elapsed {
						u.c.add("sim.elapsed_ns", uint64(d))
					}
				}
				fold(len(pts)*nOS, pts)
			}
			return nil
		},
		func() error {
			profs, err := experiments.Table1(cfg)
			for _, p := range profs {
				u.c.add("sim.elapsed_ns", uint64(p.Elapsed))
			}
			fold(len(profs), profs)
			return err
		},
		func() error {
			for _, app := range []string{"UMT2013", "QBOX"} {
				orig, pico, err := experiments.SyscallBreakdown(cfg, app)
				if err != nil {
					return err
				}
				fold(2, []experiments.Breakdown{orig, pico})
			}
			return nil
		},
		func() error {
			rows, err := experiments.Reliability(cfg)
			fold(len(rows)*nOS, rows)
			return err
		},
		func() error {
			rows, err := experiments.Failover(cfg)
			fold(len(rows), rows)
			return err
		},
		func() error {
			rows, err := experiments.Tenancy(cfg)
			fold(len(rows), rows)
			return err
		},
		fig4,
	}
	defer u.spans.begin("run")()
	err := u.timed(func() error {
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	u.c["model.rows_digest"] = float64(digest.Sum32())
	return err
}
