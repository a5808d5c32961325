// Command snapcheck drives the checkpoint/restore smoke gate over one
// Figure 4 ping-pong cell. Three modes:
//
//	snapcheck -mode straight [-trace FILE]        run the cell start-to-finish
//	snapcheck -mode checkpoint -snap FILE         stop at half the cell's
//	                                              virtual time and write the
//	                                              full simulator snapshot
//	snapcheck -mode resume -snap FILE [-trace FILE]
//	                                              rebuild the cell, restore
//	                                              through the snapshot
//	                                              (byte-verified) and finish
//
// straight and resume print the cell's statistics on stdout and can
// serialize the run's Chrome trace; a correct implementation makes
// both outputs byte-identical, which is what
// TestPingPongCheckpointResume (internal/experiments) asserts
// in-process.
//
// Run setup (-j, -shards, -loss, -trace) comes from the shared
// cliconf block; with -shards N>1 the checkpoint mode exercises the
// sharded engine's versioned snapshot sections.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliconf"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	mode := flag.String("mode", "straight", "straight, checkpoint or resume")
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

	var rec *trace.Recorder
	if *shared.Trace != "" {
		rec = trace.NewRecorder()
	}
	emit := func(cell experiments.PingPongCell) {
		fmt.Printf("fig4 %dB %s: %s\n", *size, osType, cell)
		if err := shared.WriteTrace(rec); err != nil {
			fatal(err)
		}
	}

	switch *mode {
	case "straight":
		cell, err := experiments.PingPongStraight(cfg, osType, *size, rec)
		if err != nil {
			fatal(err)
		}
		emit(cell)
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
		cell, err := experiments.PingPongResume(cfg, osType, *size, img, rec)
		if err != nil {
			fatal(err)
		}
		emit(cell)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapcheck:", err)
	os.Exit(1)
}
