// Package report renders experiment results as text tables in the
// layout of the paper's figures and tables.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// LatencyTable renders the per-phase latency distributions a Recorder
// accumulated (one histogram per category/name pair, in first-use
// order).
func LatencyTable(rec *trace.Recorder) string {
	var b strings.Builder
	b.WriteString("Span latency distributions (per category/phase)\n")
	fmt.Fprintf(&b, "%-28s %9s %12s %12s %12s %12s %12s\n",
		"phase", "count", "mean", "p50", "p90", "p99", "max")
	for _, name := range rec.HistogramNames() {
		h := rec.Histogram(name)
		fmt.Fprintf(&b, "%-28s %9d %12v %12v %12v %12v %12v\n",
			name, h.Count(), h.Mean(), h.P50(), h.P90(), h.P99(), h.Max())
	}
	return b.String()
}

// Fig4Table renders the ping-pong bandwidth sweep with one-way latency
// percentiles (p50/p99 over repetitions) next to the means.
func Fig4Table(rows []experiments.Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: MPI ping-pong bandwidth (MB/s) and one-way latency p50/p99 (µs)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %14s %9s %9s %15s %15s %15s\n",
		"size", "Linux", "McKernel", "McKernel+HFI1", "McK/Lin", "HFI/Lin",
		"Lin p50/p99", "McK p50/p99", "HFI p50/p99")
	for _, r := range rows {
		lin := r.MBps["Linux"]
		mck := r.MBps["McKernel"]
		hfi := r.MBps["McKernel+HFI1"]
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %14.1f %8.1f%% %8.1f%% %15s %15s %15s\n",
			sizeLabel(r.Size), lin, mck, hfi, 100*mck/lin, 100*hfi/lin,
			pctPair(r.OneWayP50["Linux"], r.OneWayP99["Linux"]),
			pctPair(r.OneWayP50["McKernel"], r.OneWayP99["McKernel"]),
			pctPair(r.OneWayP50["McKernel+HFI1"], r.OneWayP99["McKernel+HFI1"]))
	}
	return b.String()
}

// pctPair formats a p50/p99 pair in microseconds.
func pctPair(p50, p99 time.Duration) string {
	return fmt.Sprintf("%.1f/%.1f", float64(p50)/1e3, float64(p99)/1e3)
}

func sizeLabel(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// ScalingTable renders one mini-app scaling study (Figures 5-7): the
// paper's y axis is performance relative to Linux (100% = parity).
// Per-rank body-time p50/p99 columns expose the OS-noise spread behind
// each mean.
func ScalingTable(title string, pts []experiments.ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (performance relative to Linux; rank-time p50/p99 in ms)\n", title)
	fmt.Fprintf(&b, "%-7s %12s %12s %14s %17s %17s %17s\n",
		"nodes", "Linux", "McKernel", "McKernel+HFI1",
		"Lin p50/p99", "McK p50/p99", "HFI p50/p99")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-7d %11.1f%% %11.1f%% %13.1f%% %17s %17s %17s\n",
			p.Nodes,
			100*p.RelToLinux["Linux"],
			100*p.RelToLinux["McKernel"],
			100*p.RelToLinux["McKernel+HFI1"],
			msPair(p.RankP50["Linux"], p.RankP99["Linux"]),
			msPair(p.RankP50["McKernel"], p.RankP99["McKernel"]),
			msPair(p.RankP50["McKernel+HFI1"], p.RankP99["McKernel+HFI1"]))
	}
	return b.String()
}

// msPair formats a p50/p99 pair in milliseconds.
func msPair(p50, p99 time.Duration) string {
	return fmt.Sprintf("%.2f/%.2f", float64(p50)/1e6, float64(p99)/1e6)
}

// Table1 renders the communication profile in the layout of the paper's
// Table 1: per application and OS, the top five MPI calls with
// cumulative time (summed over ranks), share of MPI time and share of
// runtime.
func Table1(profiles []experiments.AppProfile) string {
	var b strings.Builder
	b.WriteString("Table 1: communication profile (top-5 MPI calls; Time summed over ranks)\n")
	byApp := map[string][]experiments.AppProfile{}
	var apps []string
	for _, p := range profiles {
		if _, seen := byApp[p.App]; !seen {
			apps = append(apps, p.App)
		}
		byApp[p.App] = append(byApp[p.App], p)
	}
	for _, app := range apps {
		fmt.Fprintf(&b, "\n%s\n", app)
		for _, p := range byApp[app] {
			fmt.Fprintf(&b, "  %-14s %-16s %14s %7s %7s\n", p.OS, "Call", "Time", "%MPI", "%Rt")
			for _, e := range p.Top {
				fmt.Fprintf(&b, "  %-14s %-16s %14v %6.2f%% %6.2f%%\n",
					"", e.Call, e.Time.Round(10_000), e.PctMPI, e.PctRt)
			}
		}
	}
	return b.String()
}

// BigscaleTable renders the sharded-engine scaling sweep: one row per
// shard count, all rows digest-identical by construction (Bigscale
// fails otherwise).
func BigscaleTable(title string, rows []experiments.BigscaleRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-7s %12s %12s %9s %6s %10s %12s %18s\n",
		"shards", "wall", "virtual", "windows", "ties", "cross-ev", "speedup", "digest")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %12s %12s %9d %6d %10d %11.2fx %18s\n",
			r.Shards, r.Wall.Round(time.Millisecond), r.Virt.Round(time.Microsecond),
			r.Windows, r.Ties, r.Cross, r.Speedup, fmt.Sprintf("%016x", r.Digest))
	}
	return b.String()
}

// VerbsTable renders the RDMA registration-vs-data-path sweep: per
// message size, the memory-registration latency under each OS
// configuration next to the mean RDMA WRITE/READ post-to-completion
// latencies. The data-path columns are OS-invariant by construction
// (kernel bypass); the registration columns carry the PicoDriver story.
func VerbsTable(rows []experiments.VerbsRow) string {
	var b strings.Builder
	b.WriteString("RDMA verbs: registration latency (µs) vs data-path latency (µs)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %15s %15s %15s\n",
		"size", "reg Lin", "reg McK", "reg HFI",
		"Lin wr/rd", "McK wr/rd", "HFI wr/rd")
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	wrRd := func(r experiments.VerbsRow, os string) string {
		return fmt.Sprintf("%.1f/%.1f", us(r.WriteLat[os]), us(r.ReadLat[os]))
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f %10.1f %15s %15s %15s\n",
			sizeLabel(r.Size),
			us(r.RegLat["Linux"]), us(r.RegLat["McKernel"]), us(r.RegLat["McKernel+HFI1"]),
			wrRd(r, "Linux"), wrRd(r, "McKernel"), wrRd(r, "McKernel+HFI1"))
	}
	return b.String()
}

// ReliabilityTable renders the lossy-fabric sweep: per (loss rate,
// size), the goodput and one-way latency percentiles under each OS
// configuration, with the recovery (retransmission) counts that bought
// the byte-identical delivery.
func ReliabilityTable(rows []experiments.ReliabilityRow) string {
	var b strings.Builder
	b.WriteString("Reliability: goodput (MB/s), one-way p50/p99 (µs) and retransmits vs loss rate\n")
	fmt.Fprintf(&b, "%-7s %-8s %5s %9s %9s %9s %15s %15s %15s %7s %7s %7s\n",
		"loss", "size", "reps", "Lin MB/s", "McK MB/s", "HFI MB/s",
		"Lin p50/p99", "McK p50/p99", "HFI p50/p99",
		"Lin rt", "McK rt", "HFI rt")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %-8s %5d %9.1f %9.1f %9.1f %15s %15s %15s %7d %7d %7d\n",
			lossLabel(r.Loss), sizeLabel(r.Size), r.Reps,
			r.Goodput["Linux"], r.Goodput["McKernel"], r.Goodput["McKernel+HFI1"],
			pctPair(r.OneWayP50["Linux"], r.OneWayP99["Linux"]),
			pctPair(r.OneWayP50["McKernel"], r.OneWayP99["McKernel"]),
			pctPair(r.OneWayP50["McKernel+HFI1"], r.OneWayP99["McKernel+HFI1"]),
			r.Retransmits["Linux"], r.Retransmits["McKernel"], r.Retransmits["McKernel+HFI1"])
	}
	return b.String()
}

// FailoverTable renders the live-failover measurement: blackout window
// and pre-outage / post-recovery goodput per OS configuration, plus the
// health-machine counters that prove the rail switch actually happened.
func FailoverTable(rows []experiments.FailoverRow) string {
	var b strings.Builder
	b.WriteString("Failover: rail-0 outage blackout window and goodput per OS configuration\n")
	fmt.Fprintf(&b, "%-14s %5s %-8s %12s %10s %10s %5s %5s %5s %7s\n",
		"os", "msgs", "size", "blackout", "pre MB/s", "post MB/s",
		"fo", "rail", "fb", "freezes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %5d %-8s %12s %10.1f %10.1f %5d %5d %5d %7d\n",
			r.OS, r.Msgs, sizeLabel(r.Size), r.Blackout,
			r.PreMBps, r.PostMBps,
			r.Failovers, r.RailSwitches, r.Fallbacks, r.Freezes)
	}
	return b.String()
}

// TenancyTable renders the multi-tenant interference sweep: the latency
// tenant's round-trip percentiles under each neighbor scenario, the
// bulk tenants' goodput, and the fabric congestion-control counters
// that prove the backoff machinery (not luck) kept the tail bounded.
func TenancyTable(rows []experiments.TenancyRow) string {
	var b strings.Builder
	b.WriteString("Tenancy: victim latency vs neighbor placement under fabric congestion control\n")
	fmt.Fprintf(&b, "%-14s %-8s %10s %10s %10s %10s %7s %7s %8s %8s\n",
		"os", "scenario", "p50", "p99", "vict MB/s", "bulk MB/s",
		"marks", "stalls", "backoffs", "fairness")
	for _, r := range rows {
		fair := "-"
		if r.Scenario == "incast" {
			fair = fmt.Sprintf("%.2f", r.Fairness)
		}
		fmt.Fprintf(&b, "%-14s %-8s %10s %10s %10.1f %10.1f %7d %7d %8d %8s\n",
			r.OS, r.Scenario, r.VictimP50, r.VictimP99,
			r.VictimMBps, r.BulkMBps, r.Marks, r.Stalls, r.Backoffs, fair)
	}
	return b.String()
}

// AblationTable renders the ablations: per mechanism, the measurement
// without it, with it (%v keeps every digit), and the ratio it buys.
func AblationTable(rows []experiments.AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations: one mechanism per row, everything else fixed (ratio = without / with)\n")
	fmt.Fprintf(&b, "%-11s %-26s %-26s %8s  %s\n", "id", "without", "with", "ratio", "workload: knob")
	for _, r := range rows {
		arm := func(i int) string { return fmt.Sprintf("%-12s %v %s", r.Arms[i], r.Value[i], r.Unit) }
		fmt.Fprintf(&b, "%-11s %-26s %-26s %7.4gx  %s\n", r.ID, arm(0), arm(1), r.Ratio(), r.What)
	}
	return b.String()
}

// lossLabel renders a drop probability as a percentage.
func lossLabel(loss float64) string {
	if loss == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.2g%%", 100*loss)
}

// BreakdownTable renders a Figures 8/9 pair: the per-syscall kernel-time
// shares under the original McKernel and under McKernel+HFI, plus the
// headline ratio of total kernel time.
func BreakdownTable(orig, pico experiments.Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "System call breakdown for %s (share of in-kernel time)\n", orig.App)
	names := map[string]bool{}
	for _, e := range orig.Shares {
		names[e.Name] = true
	}
	for _, e := range pico.Shares {
		names[e.Name] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	share := func(bd experiments.Breakdown, name string) float64 {
		for _, e := range bd.Shares {
			if e.Name == name {
				return 100 * e.Share
			}
		}
		return 0
	}
	fmt.Fprintf(&b, "%-12s %14s %16s\n", "syscall", orig.OS, pico.OS)
	for _, n := range sorted {
		fmt.Fprintf(&b, "%-12s %13.1f%% %15.1f%%\n", n, share(orig, n), share(pico, n))
	}
	fmt.Fprintf(&b, "total kernel time: %v -> %v (%.0f%% of original)\n",
		orig.KernelTime.Round(10_000), pico.KernelTime.Round(10_000),
		100*float64(pico.KernelTime)/float64(orig.KernelTime))
	return b.String()
}
