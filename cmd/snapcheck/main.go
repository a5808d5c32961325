// Command snapcheck drives the checkpoint/restore smoke gate over one
// Figure 4 ping-pong cell. Two modes:
//
//	snapcheck -mode checkpoint -snap FILE         stop at half the cell's
//	                                              virtual time and write the
//	                                              full simulator snapshot
//	snapcheck -mode resume -snap FILE [-trace FILE]
//	                                              rebuild the cell, restore
//	                                              through the snapshot
//	                                              (byte-verified), finish it
//	                                              and check it against the
//	                                              straight run
//
// resume prints the cell's statistics on stdout and can serialize the
// resumed run's Chrome trace. It checks itself against the cell run
// start-to-finish in the same process: the statistics, the trace bytes
// when -trace is set, and snapshot.Bisect of the straight and the
// resumed run from the checkpoint to the end, which names the first
// nanosecond and field where their states differ. Any difference exits
// 1. TestPingPongCheckpointResume (internal/experiments) pins the same
// workflow in-process.
//
// Run setup (-j, -shards, -loss, -trace) comes from the shared
// cliconf block; with -shards N>1 the checkpoint mode exercises the
// sharded engine's versioned snapshot sections.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliconf"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	mode := flag.String("mode", "", "checkpoint or resume")
	snap := flag.String("snap", "", "snapshot file (written by checkpoint, read by resume)")
	osFlag := flag.String("os", "McKernel+HFI1", "OS configuration: Linux, McKernel or McKernel+HFI1")
	size := flag.Uint64("size", 1<<20, "ping-pong message size in bytes")
	shared := cliconf.New()
	flag.Parse()

	osType, err := cliconf.ParseOS(*osFlag)
	if err != nil {
		fatal(err)
	}
	cfg := shared.Config(experiments.SmallScale())

	switch *mode {
	case "checkpoint":
		if *snap == "" {
			fatal(fmt.Errorf("-mode checkpoint requires -snap FILE"))
		}
		f, err := os.Create(*snap)
		if err != nil {
			fatal(err)
		}
		at, err := experiments.PingPongCheckpoint(cfg, osType, *size, f)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapcheck: %s checkpointed at %v\n", *snap, at)
	case "resume":
		if *snap == "" {
			fatal(fmt.Errorf("-mode resume requires -snap FILE"))
		}
		img, err := os.ReadFile(*snap)
		if err != nil {
			fatal(err)
		}
		var rec, straightRec *trace.Recorder
		if *shared.Trace != "" {
			rec, straightRec = trace.NewRecorder(), trace.NewRecorder()
		}
		cell, err := experiments.PingPongResume(cfg, osType, *size, img, rec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fig4 %dB %s: %s\n", *size, osType, cell)
		if err := shared.WriteTrace(rec); err != nil {
			fatal(err)
		}
		straight, err := experiments.PingPongStraight(cfg, osType, *size, straightRec)
		if err != nil {
			fatal(err)
		}
		if cell != straight {
			fatal(fmt.Errorf("resumed run: %v, straight run: %v", cell, straight))
		}
		if rec != nil && !bytes.Equal(rec.ChromeTraceJSON(), straightRec.ChromeTraceJSON()) {
			fatal(fmt.Errorf("the resumed run's trace differs from the straight run's"))
		}
		d, err := experiments.PingPongBisect(cfg, osType, *size, img)
		if err != nil {
			fatal(err)
		}
		if d != nil {
			fatal(fmt.Errorf("straight (snapshot) and resumed (replayed) runs: %v", d))
		}
		checked := "statistics and snapshots"
		if rec != nil {
			checked = "statistics, trace and snapshots"
		}
		fmt.Fprintf(os.Stderr, "snapcheck: resumed run matches the straight run (%s)\n", checked)
	default:
		fatal(fmt.Errorf("unknown mode %q (want checkpoint or resume)", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapcheck:", err)
	os.Exit(1)
}
