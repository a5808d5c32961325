// Package cliconf is the one place the simulator binaries declare
// their shared run-setup flags. Every cmd/ front end used to register
// its own copies of -j/-loss/-trace and convert them into an
// experiments.Config by hand; the duplication meant new engine knobs
// (like -shards) had to be plumbed four times or, worse, reached only
// some binaries. New registers the shared block on the default flag
// set, and Config folds the parsed values into the single
// experiments.Config entry point all run setup flows through.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"strconv"
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
	// Trace is the Chrome trace output path ("" = no trace). Only
	// registered by New(WithTrace); WriteTrace writes to it.
	Trace *string
}

// Option selects optional members of the shared flag block.
type Option int

const (
	// WithTrace registers -trace for binaries that write Chrome
	// trace-event JSON of one cell.
	WithTrace Option = iota
)

// New registers the shared flag block on the default flag set. Call it
// before flag.Parse, alongside the binary's own flags.
func New(opts ...Option) *Flags {
	f := &Flags{
		J:      flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS)"),
		Shards: flag.Int("shards", 1, "simulation engine shards (1 = one standalone engine)"),
		Loss:   flag.Float64("loss", 0, "per-packet drop probability (activates the PSM reliability layer)"),
	}
	trace := ""
	f.Trace = &trace
	for _, o := range opts {
		if o == WithTrace {
			f.Trace = flag.String("trace", "", "write a Chrome trace-event JSON of one run to this file")
		}
	}
	return f
}

// Config builds the experiments.Config for the parsed flags: the one
// construction path from command line to cluster wiring. Binaries
// adjust sc (sizes, seeds, reps) before calling.
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

// ParseSize parses a byte size with an optional K/KB/M/MB suffix.
func ParseSize(s string) (uint64, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "M") || strings.HasSuffix(s, "MB"):
		mult = 1 << 20
		s = strings.TrimSuffix(strings.TrimSuffix(s, "B"), "M")
	case strings.HasSuffix(s, "K") || strings.HasSuffix(s, "KB"):
		mult = 1 << 10
		s = strings.TrimSuffix(strings.TrimSuffix(s, "B"), "K")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	return v * mult, err
}

// ParseSizes parses a comma-separated list of ParseSize values.
func ParseSizes(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := ParseSize(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
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

// ParseInts parses a comma-separated list of positive ints (node or
// shard count sweeps).
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
