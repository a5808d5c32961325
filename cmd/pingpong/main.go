// Command pingpong runs the Figure 4 microbenchmark: IMB-style ping-pong
// bandwidth between two nodes under the three OS configurations.
//
// Usage:
//
//	pingpong [-sizes 1K,64K,4M] [-reps N] [-j N] [-shards N] [-loss 0.02]
//	         [-trace out.json] [-failover] [-neighbor]
//
// The shared -j/-shards/-loss/-trace block comes from internal/cliconf,
// the same run-setup path as every other simulator binary.
//
// A nonzero -loss arms the fabric fault model: packets are dropped at
// the given probability and the PSM reliability layer recovers them,
// with every bounce verified byte-for-byte against a reference pattern.
// -neighbor runs the noisy-neighbor pair instead of the sweep: a traced
// pingpong victim beside a bulk SDMA stream on a congestion-controlled
// fabric, printing the victim's p50/p99 inflation.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliconf"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	sizesFlag := flag.String("sizes", "1K,4K,16K,64K,256K,1M,4M", "message sizes")
	repsFlag := flag.Int("reps", 4, "timed repetitions per size")
	foFlag := flag.Bool("failover", false, "run the traced dual-rail failover cell (McKernel+HFI1) instead of the bandwidth sweep")
	nbFlag := flag.Bool("neighbor", false, "run the noisy-neighbor pair (McKernel+HFI1): traced pingpong victim beside a bulk SDMA stream, printing the victim's p50/p99 delta")
	shared := cliconf.New(cliconf.WithTrace)
	flag.Parse()

	sc := experiments.SmallScale()
	sc.PingPongReps = *repsFlag
	sizes, err := cliconf.ParseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(2)
	}
	sc.PingPongSizes = sizes
	cfg := shared.Config(sc)

	// writeTrace exports the mode's traced cell when -trace is set.
	writeTrace := func(rec *trace.Recorder, what string) {
		if *shared.Trace == "" {
			return
		}
		if err := shared.WriteTrace(rec); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s, %d spans -> %s\n", what, rec.SpanCount(), *shared.Trace)
	}

	switch {
	case *foFlag:
		row, rec, err := experiments.TracedFailover(cfg, cluster.OSMcKernelHFI)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.FailoverTable([]experiments.FailoverRow{row}))
		writeTrace(rec, "dual-rail failover cell")

	case *nbFlag:
		solo, packed, rec, err := experiments.NeighborDelta(cfg, cluster.OSMcKernelHFI)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.TenancyTable([]experiments.TenancyRow{solo, packed}))
		fmt.Printf("victim delta: p50 %+v, p99 %+v (bulk neighbor at %.1f MB/s)\n",
			packed.VictimP50-solo.VictimP50, packed.VictimP99-solo.VictimP99, packed.BulkMBps)
		writeTrace(rec, "packed noisy-neighbor cell")

	default:
		rows, err := experiments.Fig4(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.Fig4Table(rows))
		if *shared.Trace != "" {
			// Fig4's own 64KB McKernel+HFI1 cell (same derived seed)
			// run again under a recorder: its spans are the run behind
			// the table's 64KB row whenever -sizes includes 64K.
			rec := trace.NewRecorder()
			if _, err := experiments.PingPongStraight(cfg, cluster.OSMcKernelHFI, 64<<10, rec); err != nil {
				fatal(err)
			}
			writeTrace(rec, "64KB McKernel+HFI1 ping-pong")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pingpong:", err)
	os.Exit(1)
}
