// Package report renders experiment results as text tables in the
// layout of the paper's figures and tables, and as CSVs for plotting
// them with external tools.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// LatencyTable renders the per-phase latency distributions of the
// spans a Recorder holds: one histogram per category/name pair, in
// first-use order.
func LatencyTable(rec *trace.Recorder) string {
	hists := map[string]*trace.Histogram{}
	var names []string
	rec.ForEachSpan(func(s *trace.Span) {
		name := s.Cat + "/" + s.Name
		h, ok := hists[name]
		if !ok {
			h = &trace.Histogram{}
			hists[name] = h
			names = append(names, name)
		}
		h.Observe(s.End - s.Begin)
	})
	var b strings.Builder
	b.WriteString("Span latency distributions (per category/phase)\n")
	fmt.Fprintf(&b, "%-28s %9s %12s %12s %12s %12s %12s\n",
		"phase", "count", "mean", "p50", "p90", "p99", "max")
	for _, name := range names {
		h := hists[name]
		fmt.Fprintf(&b, "%-28s %9d %12v %12v %12v %12v %12v\n",
			name, h.Count(), h.Mean(), h.P50(), h.P90(), h.P99(), h.Max())
	}
	return b.String()
}

// col is one column of an artifact, named once: its text header, width
// (negative left-aligns) and cell, then its CSV header and field, all
// read from the same row. The CSV side may hold several comma-separated
// fields (a p50/p99 pair is one text cell but two CSV fields). An empty
// head leaves the column out of the text table, an empty csvHead out of
// the CSV.
type col struct {
	head         string
	width        int
	text         string
	csvHead, csv string
}

// table renders rows under title as a text table of padded cells joined
// by spaces, and as a CSV. cols maps a row to its columns; the headers
// are read from the zero row's columns, so no header depends on a row.
func table[R any](title string, cols func(R) []col, rows []R) (text, csv string) {
	var t, c strings.Builder
	t.WriteString(title + "\n")
	line := func(cs []col, cell func(col) (text, csv string)) {
		var cells, fields []string
		for _, k := range cs {
			text, csv := cell(k)
			if k.head != "" {
				cells = append(cells, fmt.Sprintf("%*s", k.width, text))
			}
			if k.csvHead != "" {
				fields = append(fields, csv)
			}
		}
		t.WriteString(strings.Join(cells, " ") + "\n")
		c.WriteString(strings.Join(fields, ",") + "\n")
	}
	var zero R
	line(cols(zero), func(k col) (string, string) { return k.head, k.csvHead })
	for _, r := range rows {
		line(cols(r), func(k col) (string, string) { return k.text, k.csv })
	}
	return t.String(), c.String()
}

// osLabel labels one OS configuration's columns: name keys the rows'
// per-OS maps and heads the bandwidth and relative-performance columns
// (width wide), short heads the other text columns and csv prefixes the
// CSV fields.
type osLabel struct {
	name, short, csv string
	width            int
}

// osLabels are the per-OS column labels in cluster.AllOSTypes order.
var osLabels = []osLabel{
	{cluster.OSLinux.String(), "Lin", "linux", 12},
	{cluster.OSMcKernel.String(), "McK", "mckernel", 12},
	{cluster.OSMcKernelHFI.String(), "HFI", "mckernel_hfi", 14},
}

// plain is a column whose text cell and CSV field both print v.
func plain(head string, width int, csvHead string, v any) col {
	s := fmt.Sprint(v)
	return col{head, width, s, csvHead, s}
}

// sizeCol is a message size: a label in the text table, bytes in the CSV.
func sizeCol(width int, n uint64) col {
	return col{"size", width, sizeLabel(n), "bytes", fmt.Sprint(n)}
}

// usPair is one OS's pair of latencies, a and b: one text cell in µs,
// two CSV fields in µs to the nanosecond.
func usPair(o osLabel, head, csvA, csvB string, a, b time.Duration) col {
	return col{o.short + " " + head, 15, fmt.Sprintf("%.1f/%.1f", us(a), us(b)),
		o.csv + "_" + csvA + "_us," + o.csv + "_" + csvB + "_us", fmt.Sprintf("%.3f,%.3f", us(a), us(b))}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func sizeLabel(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// lossLabel renders a drop probability as a percentage.
func lossLabel(loss float64) string {
	if loss == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.2g%%", 100*loss)
}

// fig4Cols is the ping-pong bandwidth sweep with one-way latency
// percentiles (p50/p99 over repetitions) next to the means.
func fig4Cols(r experiments.Fig4Row) []col {
	cs := []col{sizeCol(-10, r.Size)}
	for _, o := range osLabels {
		cs = append(cs, plain(o.name, o.width, o.csv+"_mbps", fmt.Sprintf("%.1f", r.MBps[o.name])))
	}
	for _, o := range osLabels[1:] {
		cs = append(cs, col{head: o.short + "/Lin", width: 9, text: fmt.Sprintf("%.1f%%", 100*r.MBps[o.name]/r.MBps["Linux"])})
	}
	for _, o := range osLabels {
		cs = append(cs, usPair(o, "p50/p99", "p50", "p99", r.OneWayP50[o.name], r.OneWayP99[o.name]))
	}
	return cs
}

// scalingCols is one mini-app scaling study (Figures 5-7): the paper's
// y axis is performance relative to Linux (100% = parity). Per-rank
// body-time p50/p99 columns expose the OS-noise spread behind each mean.
func scalingCols(p experiments.ScalingPoint) []col {
	cs := []col{plain("nodes", -7, "nodes", p.Nodes)}
	for _, o := range osLabels {
		rel := p.RelToLinux[o.name]
		cs = append(cs, col{o.name, o.width, fmt.Sprintf("%.1f%%", 100*rel), o.csv + "_rel", fmt.Sprintf("%.4f", rel)})
	}
	cs = append(cs, col{csvHead: "linux_seconds", csv: fmt.Sprintf("%.6f", p.Elapsed["Linux"].Seconds())})
	for _, o := range osLabels {
		p50, p99 := p.RankP50[o.name], p.RankP99[o.name]
		cs = append(cs, col{o.short + " p50/p99", 17, fmt.Sprintf("%.2f/%.2f", float64(p50)/1e6, float64(p99)/1e6),
			o.csv + "_p50_s," + o.csv + "_p99_s", fmt.Sprintf("%.6f,%.6f", p50.Seconds(), p99.Seconds())})
	}
	return cs
}

// bigscaleCols is the sharded-engine scaling sweep: one row per shard
// count, all rows digest-identical by construction (Bigscale fails
// otherwise).
func bigscaleCols(r experiments.BigscaleRow) []col {
	return []col{
		plain("shards", -7, "shards", r.Shards),
		{"wall", 12, r.Wall.Round(time.Millisecond).String(), "wall_seconds", fmt.Sprintf("%.3f", r.Wall.Seconds())},
		{"virtual", 12, r.Virt.Round(time.Microsecond).String(), "virtual_seconds", fmt.Sprintf("%.6f", r.Virt.Seconds())},
		plain("windows", 9, "windows", r.Windows),
		plain("ties", 6, "ties", r.Ties),
		plain("cross-ev", 10, "cross_events", r.Cross),
		{"speedup", 12, fmt.Sprintf("%.2fx", r.Speedup), "speedup", fmt.Sprintf("%.3f", r.Speedup)},
		plain("digest", 18, "digest", fmt.Sprintf("%016x", r.Digest)),
	}
}

// verbsCols is the RDMA registration-vs-data-path sweep: per message
// size, the memory-registration latency under each OS configuration
// next to the mean RDMA WRITE/READ post-to-completion latencies. The
// data-path columns are OS-invariant by construction (kernel bypass);
// the registration columns carry the PicoDriver story.
func verbsCols(r experiments.VerbsRow) []col {
	cs := []col{sizeCol(-10, r.Size)}
	for _, o := range osLabels {
		reg := us(r.RegLat[o.name])
		cs = append(cs, col{"reg " + o.short, 10, fmt.Sprintf("%.1f", reg), o.csv + "_reg_us", fmt.Sprintf("%.3f", reg)})
	}
	for _, o := range osLabels {
		cs = append(cs, usPair(o, "wr/rd", "write", "read", r.WriteLat[o.name], r.ReadLat[o.name]))
	}
	return cs
}

// reliabilityCols is the lossy-fabric sweep: per (loss rate, size), the
// goodput and one-way latency percentiles under each OS configuration,
// with the recovery (retransmission) counts that bought the
// byte-identical delivery.
func reliabilityCols(r experiments.ReliabilityRow) []col {
	cs := []col{
		{"loss", -7, lossLabel(r.Loss), "loss", fmt.Sprintf("%g", r.Loss)},
		sizeCol(-8, r.Size),
		plain("reps", 5, "reps", r.Reps),
	}
	for _, o := range osLabels {
		cs = append(cs, plain(o.short+" MB/s", 9, o.csv+"_mbps", fmt.Sprintf("%.1f", r.Goodput[o.name])))
	}
	for _, o := range osLabels {
		cs = append(cs, usPair(o, "p50/p99", "p50", "p99", r.OneWayP50[o.name], r.OneWayP99[o.name]))
	}
	for _, o := range osLabels {
		cs = append(cs, plain(o.short+" rt", 7, o.csv+"_retransmits", r.Retransmits[o.name]))
	}
	return cs
}

// failoverCols is the live-failover measurement: blackout window and
// pre-outage / post-recovery goodput per OS configuration, plus the
// health-machine counters that prove the rail switch actually happened.
func failoverCols(r experiments.FailoverRow) []col {
	return []col{
		plain("os", -14, "os", r.OS),
		plain("msgs", 5, "msgs", r.Msgs),
		sizeCol(-8, r.Size),
		{"blackout", 12, r.Blackout.String(), "blackout_us", fmt.Sprintf("%.3f", us(r.Blackout))},
		plain("pre MB/s", 10, "pre_mbps", fmt.Sprintf("%.1f", r.PreMBps)),
		plain("post MB/s", 10, "post_mbps", fmt.Sprintf("%.1f", r.PostMBps)),
		plain("fo", 5, "failovers", r.Failovers),
		plain("rail", 5, "rail_switches", r.RailSwitches),
		plain("fb", 5, "fallbacks", r.Fallbacks),
		plain("freezes", 7, "freezes", r.Freezes),
	}
}

// tenancyCols is the multi-tenant interference sweep: the latency
// tenant's round-trip percentiles under each neighbor scenario, the bulk
// tenants' goodput, and the fabric congestion-control counters that
// prove the backoff machinery (not luck) kept the tail bounded. Fairness
// means something only under incast; the text table shows it there
// alone.
func tenancyCols(r experiments.TenancyRow) []col {
	fair := "-"
	if r.Scenario == "incast" {
		fair = fmt.Sprintf("%.2f", r.Fairness)
	}
	return []col{
		plain("os", -14, "os", r.OS),
		plain("scenario", -8, "scenario", r.Scenario),
		{"p50", 10, r.VictimP50.String(), "victim_p50_us", fmt.Sprintf("%.3f", us(r.VictimP50))},
		{"p99", 10, r.VictimP99.String(), "victim_p99_us", fmt.Sprintf("%.3f", us(r.VictimP99))},
		plain("vict MB/s", 10, "victim_mbps", fmt.Sprintf("%.1f", r.VictimMBps)),
		plain("bulk MB/s", 10, "bulk_mbps", fmt.Sprintf("%.1f", r.BulkMBps)),
		plain("marks", 7, "marks", r.Marks),
		plain("stalls", 7, "stalls", r.Stalls),
		plain("backoffs", 8, "backoffs", r.Backoffs),
		{"fairness", 8, fair, "fairness", fmt.Sprintf("%.3f", r.Fairness)},
	}
}

// ablationCols is the ablations: per mechanism, the measurement without
// it, with it (%v keeps every digit), and the ratio it buys.
func ablationCols(r experiments.AblationRow) []col {
	arm := func(head string, i int) col {
		return col{head, -26, fmt.Sprintf("%-12s %v %s", r.Arms[i], r.Value[i], r.Unit),
			head + "_arm," + head, fmt.Sprintf("%s,%v", r.Arms[i], r.Value[i])}
	}
	return []col{
		plain("id", -11, "id", r.ID),
		{csvHead: "unit", csv: r.Unit},
		arm("without", 0),
		arm("with", 1),
		{"ratio", 8, fmt.Sprintf("%.4gx", r.Ratio()), "ratio", fmt.Sprintf("%.6f", r.Ratio())},
		{head: " workload: knob", text: " " + r.What}, // two spaces before the free text
	}
}

// Table1 renders the communication profile in the layout of the paper's
// Table 1: per application and OS, the top five MPI calls with
// cumulative time (summed over ranks), share of MPI time and share of
// runtime. Its text groups rows by application and OS, so unlike the
// column-list artifacts it pairs with a hand-written flat CSV.
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

// BreakdownTable renders a Figures 8/9 pair: the per-syscall kernel-time
// shares under the original McKernel and under McKernel+HFI, plus the
// headline ratio of total kernel time. Its text pivots the two
// configurations into columns, so it pairs with a hand-written flat CSV.
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
