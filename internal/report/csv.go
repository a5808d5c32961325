package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
)

// CSV emitters for plotting the regenerated figures with external tools.

// Fig4CSV renders the bandwidth sweep as size,linux,mckernel,hfi rows
// with per-OS one-way latency p50/p99 columns (microseconds).
func Fig4CSV(rows []experiments.Fig4Row) string {
	var b strings.Builder
	b.WriteString("bytes,linux_mbps,mckernel_mbps,mckernel_hfi_mbps," +
		"linux_p50_us,linux_p99_us,mckernel_p50_us,mckernel_p99_us," +
		"mckernel_hfi_p50_us,mckernel_hfi_p99_us\n")
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%.1f,%.1f,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			r.Size, r.MBps["Linux"], r.MBps["McKernel"], r.MBps["McKernel+HFI1"],
			us(r.OneWayP50["Linux"]), us(r.OneWayP99["Linux"]),
			us(r.OneWayP50["McKernel"]), us(r.OneWayP99["McKernel"]),
			us(r.OneWayP50["McKernel+HFI1"]), us(r.OneWayP99["McKernel+HFI1"]))
	}
	return b.String()
}

// ScalingCSV renders a scaling study as nodes,relative-performance rows
// with per-OS rank-time p50/p99 columns (seconds).
func ScalingCSV(pts []experiments.ScalingPoint) string {
	var b strings.Builder
	b.WriteString("nodes,linux_rel,mckernel_rel,mckernel_hfi_rel,linux_seconds," +
		"linux_p50_s,linux_p99_s,mckernel_p50_s,mckernel_p99_s," +
		"mckernel_hfi_p50_s,mckernel_hfi_p99_s\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%d,%.4f,%.4f,%.4f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			p.Nodes,
			p.RelToLinux["Linux"],
			p.RelToLinux["McKernel"],
			p.RelToLinux["McKernel+HFI1"],
			p.Elapsed["Linux"].Seconds(),
			p.RankP50["Linux"].Seconds(), p.RankP99["Linux"].Seconds(),
			p.RankP50["McKernel"].Seconds(), p.RankP99["McKernel"].Seconds(),
			p.RankP50["McKernel+HFI1"].Seconds(), p.RankP99["McKernel+HFI1"].Seconds())
	}
	return b.String()
}

// BigscaleCSV renders the sharded-engine sweep as one row per shard
// count (wall/virtual in seconds).
func BigscaleCSV(rows []experiments.BigscaleRow) string {
	var b strings.Builder
	b.WriteString("shards,wall_seconds,virtual_seconds,windows,ties,cross_events,speedup,digest\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%.3f,%.6f,%d,%d,%d,%.3f,%016x\n",
			r.Shards, r.Wall.Seconds(), r.Virt.Seconds(),
			r.Windows, r.Ties, r.Cross, r.Speedup, r.Digest)
	}
	return b.String()
}

// Table1CSV renders the communication profile rows.
func Table1CSV(profiles []experiments.AppProfile) string {
	var b strings.Builder
	b.WriteString("app,os,call,seconds,pct_mpi,pct_rt\n")
	for _, p := range profiles {
		for _, e := range p.Top {
			fmt.Fprintf(&b, "%s,%s,%s,%.6f,%.2f,%.2f\n",
				p.App, p.OS, e.Call, e.Time.Seconds(), e.PctMPI, e.PctRt)
		}
	}
	return b.String()
}

// VerbsCSV renders the registration-vs-data-path sweep as one row per
// message size (all latencies in microseconds).
func VerbsCSV(rows []experiments.VerbsRow) string {
	var b strings.Builder
	b.WriteString("bytes,linux_reg_us,mckernel_reg_us,mckernel_hfi_reg_us," +
		"linux_write_us,linux_read_us,mckernel_write_us,mckernel_read_us," +
		"mckernel_hfi_write_us,mckernel_hfi_read_us\n")
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			r.Size,
			us(r.RegLat["Linux"]), us(r.RegLat["McKernel"]), us(r.RegLat["McKernel+HFI1"]),
			us(r.WriteLat["Linux"]), us(r.ReadLat["Linux"]),
			us(r.WriteLat["McKernel"]), us(r.ReadLat["McKernel"]),
			us(r.WriteLat["McKernel+HFI1"]), us(r.ReadLat["McKernel+HFI1"]))
	}
	return b.String()
}

// ReliabilityCSV renders the lossy-fabric sweep as one row per (loss
// rate, size) with per-OS goodput, latency percentiles (microseconds)
// and retransmit counts.
func ReliabilityCSV(rows []experiments.ReliabilityRow) string {
	var b strings.Builder
	b.WriteString("loss,bytes,reps,linux_mbps,mckernel_mbps,mckernel_hfi_mbps," +
		"linux_p50_us,linux_p99_us,mckernel_p50_us,mckernel_p99_us," +
		"mckernel_hfi_p50_us,mckernel_hfi_p99_us," +
		"linux_retransmits,mckernel_retransmits,mckernel_hfi_retransmits\n")
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, r := range rows {
		fmt.Fprintf(&b, "%g,%d,%d,%.1f,%.1f,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d,%d,%d\n",
			r.Loss, r.Size, r.Reps,
			r.Goodput["Linux"], r.Goodput["McKernel"], r.Goodput["McKernel+HFI1"],
			us(r.OneWayP50["Linux"]), us(r.OneWayP99["Linux"]),
			us(r.OneWayP50["McKernel"]), us(r.OneWayP99["McKernel"]),
			us(r.OneWayP50["McKernel+HFI1"]), us(r.OneWayP99["McKernel+HFI1"]),
			r.Retransmits["Linux"], r.Retransmits["McKernel"], r.Retransmits["McKernel+HFI1"])
	}
	return b.String()
}

// FailoverCSV renders the live-failover rows.
func FailoverCSV(rows []experiments.FailoverRow) string {
	var b strings.Builder
	b.WriteString("os,msgs,bytes,blackout_us,pre_mbps,post_mbps," +
		"failovers,rail_switches,fallbacks,freezes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%d,%.3f,%.1f,%.1f,%d,%d,%d,%d\n",
			r.OS, r.Msgs, r.Size, float64(r.Blackout)/1e3,
			r.PreMBps, r.PostMBps,
			r.Failovers, r.RailSwitches, r.Fallbacks, r.Freezes)
	}
	return b.String()
}

// TenancyCSV renders the multi-tenant interference rows.
func TenancyCSV(rows []experiments.TenancyRow) string {
	var b strings.Builder
	b.WriteString("os,scenario,victim_p50_us,victim_p99_us,victim_mbps,bulk_mbps," +
		"marks,stalls,backoffs,fairness\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%.3f,%.3f,%.1f,%.1f,%d,%d,%d,%.3f\n",
			r.OS, r.Scenario,
			float64(r.VictimP50)/1e3, float64(r.VictimP99)/1e3,
			r.VictimMBps, r.BulkMBps, r.Marks, r.Stalls, r.Backoffs, r.Fairness)
	}
	return b.String()
}

// AblationCSV renders the ablations as one row per mechanism.
func AblationCSV(rows []experiments.AblationRow) string {
	var b strings.Builder
	b.WriteString("id,unit,without_arm,without,with_arm,with,ratio\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%v,%s,%v,%.6f\n", r.ID, r.Unit, r.Arms[0], r.Value[0], r.Arms[1], r.Value[1], r.Ratio())
	}
	return b.String()
}

// BreakdownCSV renders a syscall-share pair.
func BreakdownCSV(orig, pico experiments.Breakdown) string {
	var b strings.Builder
	b.WriteString("app,os,syscall,share\n")
	for _, bd := range []experiments.Breakdown{orig, pico} {
		for _, e := range bd.Shares {
			fmt.Fprintf(&b, "%s,%s,%s,%.4f\n", bd.App, bd.OS, e.Name, e.Share)
		}
	}
	return b.String()
}
