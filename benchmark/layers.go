package main

import (
	"fmt"
	"time"
)

// The traced pass. End-to-end metrics are measured with tracing off
// (measure); this pass produces the per-layer numbers: units run in
// untraced/traced pairs (the difference is the tracing overhead), each
// traced unit carrying a trace.Recorder on every engine, a CPU profile
// and the harness's own host-time spans, plus the rungs and, on
// shard_scale, the Shards=1 cross-check.

// rungsChild is the pseudo-workload name under which a child runs the
// rungs; they come back in the result line's counters.
const rungsChild = "rungs"

// layers runs the traced pass of one workload for about seconds.
func (s *spawner) layers(w *workload, seed int64, seconds float64) *runResult {
	r := &runResult{Workload: w.name, Seed: seed, Correct: true, E2E: map[string]dist{}}
	start := time.Now()
	rungs, err := s.unit(childOpts{workload: rungsChild})
	if err != nil {
		r.fail("rungs: %v", err)
		return r
	}
	var shard1 *unitResult
	if w.name == "shard_scale" {
		if shard1, err = s.unit(childOpts{workload: w.name, seed: seed, shards1: true}); err != nil {
			r.fail("Shards=1 cross-check: %v", err)
			return r
		}
	}
	var plain, traced []*unitResult
	pairs := time.Now()
	for {
		for _, tr := range []bool{false, true} {
			u, err := s.unit(childOpts{workload: w.name, seed: seed, traced: tr})
			r.Units++
			if err != nil {
				r.Attempted++
				r.Failed++
				r.fail("unit %d: %v", r.Units, err)
				return r
			}
			if tr {
				traced = append(traced, u)
			} else {
				plain = append(plain, u)
			}
		}
		perPair := time.Since(pairs).Seconds() / float64(len(plain))
		if time.Since(start).Seconds()+perPair/2 >= seconds {
			break
		}
	}
	// Tracing must not move an exact counter either.
	r.check(append(append([]*unitResult(nil), plain...), traced...))
	for _, u := range traced {
		r.spans = append(r.spans, u.Spans...)
	}
	if r.Layers, err = layerMetrics(plain, traced, rungs.Counters, shard1); err != nil {
		r.fail("%v", err)
	}
	return r
}

// med returns the median of f over the units.
func med(units []*unitResult, f func(*unitResult) float64) float64 {
	xs := make([]float64, len(units))
	for i, u := range units {
		xs[i] = f(u)
	}
	return median(xs)
}

// ratio is num/den, and 0 where the denominator is: a metric that does not
// apply to a workload reads 0 there.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func pct(num, den float64) float64 { return 100 * ratio(num, den) }

// shardDiff compares a Shards=N unit with its Shards=1 twin on every
// exact counter except those that count the sharding itself: windows,
// cross-shard events, the events the barrier adds to wake rendezvous
// waiters, and the hit counts of the per-shard freelists.
// It returns the first counter that differs, "" when none does.
func shardDiff(sharded, single *unitResult) string {
	strip := func(in counters) counters {
		out := counters{}
		for k, v := range in {
			switch k {
			case "sim.windows", "sim.cross_events", "sim.events", "fabric.pool_buf_hits", "fabric.pool_pkt_hits":
			default:
				out[k] = v
			}
		}
		return out
	}
	return firstDiff(strip(sharded.Counters), strip(single.Counters))
}

// layerMetrics computes every per-layer metric from the untraced units,
// the traced units, the rungs and (shard_scale only) the Shards=1 twin.
// Exact counters come from unit 0; host-time quantities are medians.
func layerMetrics(plain, traced []*unitResult, rungs counters, shard1 *unitResult) (map[string]float64, error) {
	c, t := plain[0].Counters, traced[0].TCounters
	wall := med(plain, func(u *unitResult) float64 { return u.WallS })
	setup := med(plain, func(u *unitResult) float64 { return u.SetupS })
	out := map[string]float64{
		"sim.events": c["sim.events"],
		// Host time per simulated event: what a dispatcher change should move.
		"sim.host_ns_per_event":  ratio(wall*1e9, c["sim.events"]),
		"sim.events_per_s":       ratio(c["sim.events"], wall),
		"sim.sim_us_per_wall_ms": ratio(c["sim.sim_ns"]/1e3, wall*1e3),

		"sim.windows":        c["sim.windows"],
		"sim.cross_events":   c["sim.cross_events"],
		"sim.goroutines_end": med(plain, func(u *unitResult) float64 { return float64(u.GoroutinesEnd) }),
		"sim.heap_end_mb":    med(plain, func(u *unitResult) float64 { return u.HeapEndMB }),
		"sim.shard1_match":   -1, // not applicable

		"fabric.packets":          c["fabric.packets"],
		"fabric.bytes_mb":         c["fabric.bytes"] / 1e6,
		"fabric.dropped":          c["fabric.dropped"],
		"fabric.ties":             c["fabric.ties"],
		"fabric.pool_buf_hit_pct": pct(c["fabric.pool_buf_hits"], c["fabric.pool_buf_gets"]),
		"fabric.pool_pkt_hit_pct": pct(c["fabric.pool_pkt_hits"], c["fabric.pool_pkt_gets"]),
		"fabric.spans":            t["fabric.spans"],
		"fabric.sim_busy_us":      t["fabric.sim_busy_ns"] / 1e3,

		"hfi.tx_bytes_mb":      c["hfi.tx_bytes"] / 1e6,
		"hfi.sdma_txns":        t["hfi.sdma_txns"],
		"hfi.sdma_sim_busy_us": t["hfi.sdma_sim_busy_ns"] / 1e3,
		"hfi.irq_spans":        t["hfi.irq_spans"],

		"psm.sends_pio":        c["psm.sends_pio"],
		"psm.sends_eager_sdma": c["psm.sends_eager_sdma"],
		"psm.sends_rdv":        c["psm.sends_rdv"],
		"psm.writevs":          c["psm.writevs"],
		"psm.tid_ioctls":       c["psm.tid_ioctls"],
		"psm.unexpected":       c["psm.unexpected"],
		"psm.retransmits":      c["psm.retransmits"],
		"psm.timeouts":         c["psm.timeouts"],
		"psm.naks":             c["psm.naks"],
		"psm.msg_resends":      c["psm.msg_resends"],
		"psm.goodput_frac":     ratio(c["psm.bytes_recv"], c["fabric.bytes"]),
		"psm.lat_p50_ns":       plain[0].LatP50NS,
		"psm.lat_p999_ns":      plain[0].LatP999NS,
		"psm.lat_samples":      float64(plain[0].LatSamples),
		"psm.sim_busy_us":      t["psm.sim_busy_ns"] / 1e3,

		"mpi.wait_sim_us":       c["mpi.wait_sim_ns"] / 1e3,
		"mem.pinned_frames_end": c["mem.pinned_frames_end"],

		"kernels.linux_sim_busy_us":    t["kernels.linux_sim_busy_ns"] / 1e3,
		"kernels.mckernel_sim_busy_us": t["kernels.mckernel_sim_busy_ns"] / 1e3,
		"kernels.ikc_sim_busy_us":      t["kernels.ikc_sim_busy_ns"] / 1e3,
		"kernels.offloads":             t["kernels.offloads"],

		"cluster.setup_ms_per_node": ratio(1e3*setup, float64(plain[0].Nodes)),

		"runner.cells":       c["runner.cells"],
		"runner.workers":     float64(plain[0].Workers),
		"trace.spans":        t["trace.spans"],
		"trace.overhead_pct": pct(med(traced, func(u *unitResult) float64 { return u.WallS }), wall) - 100,

		"model.fom_mck_pct_of_linux": c["model.fom_mck_pct_of_linux"],
		"model.fom_hfi_pct_of_linux": c["model.fom_hfi_pct_of_linux"],
		"model.golden_mismatch":      goldenMismatch(plain[0]),
		"sim_elapsed_us":             c["sim.elapsed_ns"] / 1e3,
		"paper_err_pct":              c["paper_err_pct"],
	}
	if shard1 != nil {
		out["sim.shard1_match"] = 0
		if shardDiff(plain[0], shard1) == "" {
			out["sim.shard1_match"] = 1
		}
	}
	for k, v := range rungs {
		out[k] = v
	}
	// Self-time shares of the CPU profiles taken around the traced units.
	profiles := make([][]byte, len(traced))
	for i, u := range traced {
		profiles[i] = u.Profile
	}
	shares, err := attributeProfile(profiles)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", traced[0].Workload, err)
	}
	for k, v := range shares {
		out[k] = v
	}
	// Self time of the harness's own spans: span minus children.
	self := make(map[string][]float64)
	for _, u := range traced {
		st := selfTimes(u.Spans)
		for _, name := range []string{"setup", "run", "verify"} {
			self[name] = append(self[name], float64(st[name])/1e6)
		}
	}
	for name, xs := range self {
		out["harness."+name+"_self_ms"] = median(xs)
	}
	return out, nil
}
