package main

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*unit) error
}

// workloads, with why each exists: which layers it stresses and which it
// bypasses. BENCHMARK.json repeats names and reasons; a test keeps the two
// in step.
var workloads = []workload{
	{"pp_small", "2 nodes, 1 KB round trips over psm directly: per-message cost of psm+PIO+fabric and one process handoff per event; no driver, SDMA or TID", runPPSmall},
	{"pp_large", "same pair, 4 MB rendezvous round trips: SDMA request build, TID registration, page walks, pinning, copies; callback events dominate", runPPLarge},
	{"umt_ranks", "UMT2013 on 4 nodes x 16 ranks: goroutine handoff in sim plus offload queueing on 4 Linux CPUs; what a dispatcher change should move most", runUMTRanks},
	{"lossy_stream", "32 KB eager-SDMA round trips at 2% drop, every bounce verified: go-back-N, retained payloads, fault RNG; guards recovery against pooling changes", runLossyStream},
	{"shard_scale", "UMT2013 on 64 nodes x 4 ranks, McKernel+HFI1, Shards=4: window barrier, cross-shard injection, deep heaps, 256 rank goroutines", runShardScale},
	{"driver_pure", "engine-free mmap/walk/build-requests/pin/copy/munmap loop: mem, pagetable and hfi request building with zero events; bypasses sim entirely", runDriverPure},
	{"regen_sweep", "Fig4, AppScaling, Table1, breakdowns, reliability, failover, tenancy in one process through runner: multi-core, leaked goroutines tax later cells", runRegenSweep},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric describes one reported number. Host time is what the simulator
// costs; simulated time is what the modelled machine takes; the unit and
// the README say which.
type metric struct {
	name   string
	unit   string
	better string
	// bound (end-to-end only) is the share of the parent's median by which
	// the metric may get worse before a change counts as a regression.
	bound float64
	// of (end-to-end only) reads the metric off one unit.
	of func(*unitResult) float64
}

// endToEnd are the metrics a user of the simulator sees, all host-side and
// all per unit of fixed work; a run reports the median over its units.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25, func(u *unitResult) float64 { return u.WallS }},
	{"cpu_s", "s", "lower", 0.25, func(u *unitResult) float64 { return u.CPUS }},
	{"peak_rss_mb", "MB", "lower", 0.25, func(u *unitResult) float64 { return u.PeakRSSMB }},
	{"alloc_mb", "MB", "lower", 0.06, func(u *unitResult) float64 { return u.AllocMB }},
	{"mallocs_k", "k", "lower", 0.05, func(u *unitResult) float64 { return u.MallocsK }},
	{"setup_s", "s", "lower", 0.25, func(u *unitResult) float64 { return u.SetupS }},
}

func lower(unit string, names ...string) []metric {
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = metric{name: n, unit: unit, better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metric {
	out := lower(unit, names...)
	for i := range out {
		out[i].better = "higher"
	}
	return out
}

func concat(groups ...[]metric) []metric {
	var out []metric
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer are the metrics of single layers, printed by the traced pass.
// Sources: (c) public counter read after the run, exact; (r) rung; (p)
// self-time share of the CPU profile; (t) simulated-time spans of the
// attached trace.Recorder; (h) the harness's own host-time spans. A
// counter has a direction only so that a diff can be read; "lower" on a
// count means "less work for the same result".
var perLayer = concat(
	// sim
	lower("count", "sim.events", "sim.windows", "sim.cross_events", "sim.goroutines_end"), // (c)
	lower("ns", "sim.host_ns_per_event"),
	higher("1/s", "sim.events_per_s"),
	higher("us/ms", "sim.sim_us_per_wall_ms"),
	lower("ns", "sim.rung.proc_event_ns", "sim.rung.proc_event_direct_ns", "sim.rung.cb_event_ns",
		"sim.rung.cb_event_deep_ns", "sim.rung.queue_handoff_ns"), // (r)
	higher("count", "sim.shard1_match"),
	lower("MB", "sim.heap_end_mb"),
	// fabric
	lower("count", "fabric.packets", "fabric.dropped", "fabric.ties", "fabric.spans"),
	lower("MB", "fabric.bytes_mb"),
	higher("%", "fabric.pool_buf_hit_pct", "fabric.pool_pkt_hit_pct"),
	lower("ns", "fabric.rung.packet_ns", "fabric.rung.packet_faulty_ns"),
	lower("us", "fabric.sim_busy_us"),
	// hfi
	lower("MB", "hfi.tx_bytes_mb"),
	lower("count", "hfi.sdma_txns", "hfi.irq_spans", "hfi.rung.reqs_4k", "hfi.rung.reqs_10k"),
	lower("us", "hfi.sdma_sim_busy_us"),
	lower("ns", "hfi.rung.build_req_4k_ns", "hfi.rung.build_req_10k_ns"),
	// psm
	lower("count", "psm.sends_pio", "psm.sends_eager_sdma", "psm.sends_rdv", "psm.writevs", "psm.tid_ioctls",
		"psm.unexpected", "psm.retransmits", "psm.timeouts", "psm.naks", "psm.msg_resends"),
	higher("frac", "psm.goodput_frac"),
	lower("ns", "psm.lat_p50_ns", "psm.lat_p999_ns"),
	higher("count", "psm.lat_samples"),
	lower("us", "psm.sim_busy_us"),
	// mpi, mem, pagetable
	lower("us", "mpi.wait_sim_us"),
	lower("ns", "mem.rung.pin_frame_ns", "mem.rung.copy_64k_ns", "mem.rung.alloc_scattered_page_ns"),
	lower("count", "mem.pinned_frames_end"),
	lower("ns", "pagetable.rung.walk_4k_ns", "pagetable.rung.walk_2m_ns", "pagetable.rung.map_unmap_page_ns"),
	// kernels
	lower("us", "kernels.linux_sim_busy_us", "kernels.mckernel_sim_busy_us", "kernels.ikc_sim_busy_us"),
	lower("count", "kernels.offloads"),
	// cluster, runner, trace
	lower("ms", "cluster.setup_ms_per_node"),
	lower("count", "runner.cells"),
	higher("count", "runner.workers"),
	lower("count", "trace.spans"),
	lower("%", "trace.overhead_pct"),
	// model: calibrated constants -> simulated results
	higher("%", "model.fom_mck_pct_of_linux", "model.fom_hfi_pct_of_linux"),
	lower("count", "model.golden_mismatch"),
	lower("us", "sim_elapsed_us"),
	lower("%", "paper_err_pct"),
	// (p) where the host CPU went, by package of the leaf frame
	lower("%", profileMetrics...),
	// (h) self time of the harness's spans
	lower("ms", "harness.setup_self_ms", "harness.run_self_ms", "harness.verify_self_ms"),
)
