// Package cliconf is the one place the simulator binaries
// (cmd/experiments and cmd/snapcheck) declare their shared run-setup
// flags. New registers the shared block on the default flag set, and
// Config folds the parsed values into the single experiments.Config
// entry point all run setup flows through.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// Flags holds the shared run-setup flag block. The fields are the
// parsed flag values after flag.Parse; most callers only hand the
// struct to Config and read Trace.
type Flags struct {
	// J is the worker count the experiment cells fan out over
	// (0 = GOMAXPROCS).
	J *int
	// Shards is the simulation engine shard count. 1 (the default)
	// runs one standalone engine, the configuration the committed
	// artifacts are cut from; >1 requires a loss-free, jitter-free,
	// congestion-free profile (cluster.New rejects anything else).
	Shards *int
	// Loss is the per-packet drop probability; nonzero arms the fabric
	// fault model and the PSM reliability layer.
	Loss *float64
	// Trace is the Chrome trace output path ("" = no trace);
	// WriteTrace writes to it.
	Trace *string
}

// New registers the shared flag block on the default flag set. Call it
// before flag.Parse, alongside the binary's own flags.
func New() *Flags {
	return &Flags{
		J:      flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS)"),
		Shards: flag.Int("shards", 1, "simulation engine shards (1 = one standalone engine)"),
		Loss:   flag.Float64("loss", 0, "per-packet drop probability (activates the PSM reliability layer)"),
		Trace:  flag.String("trace", "", "write a Chrome trace-event JSON of one cell to this file"),
	}
}

// Config builds the experiments.Config for the parsed flags: the one
// construction path from command line to cluster wiring.
func (f *Flags) Config(sc experiments.Scale) experiments.Config {
	cfg := experiments.NewConfig(sc, *f.J)
	cfg.Faults.Drop = *f.Loss
	cfg.Shards = *f.Shards
	return cfg
}

// WriteTrace serializes rec as Chrome trace-event JSON to the -trace
// path. Without -trace it does nothing.
func (f *Flags) WriteTrace(rec *trace.Recorder) error {
	if *f.Trace == "" {
		return nil
	}
	file, err := os.Create(*f.Trace)
	if err != nil {
		return err
	}
	werr := rec.WriteChromeTrace(file)
	if cerr := file.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ParseOS maps a command-line OS name to its cluster.OSType.
func ParseOS(s string) (cluster.OSType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "linux":
		return cluster.OSLinux, nil
	case "mckernel":
		return cluster.OSMcKernel, nil
	case "mckernel+hfi", "hfi", "mckernel+hfi1":
		return cluster.OSMcKernelHFI, nil
	}
	return 0, fmt.Errorf("unknown OS %q", s)
}
