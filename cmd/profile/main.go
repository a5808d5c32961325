// Command profile reproduces the paper's profiling artifacts: the MPI
// communication profile of Table 1 and the kernel-level system call
// breakdowns of Figures 8 and 9.
//
// Usage:
//
//	profile [-nodes 8] [-rpn 16] [-what table1,fig8,fig9] [-j N] [-shards N]
//	        [-trace out.json] [-trace-app UMT2013] [-trace-os mckernel+hfi]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The shared -j/-shards/-loss/-trace block comes from internal/cliconf,
// the same run-setup path as every other simulator binary.
//
// The -cpuprofile/-memprofile flags wrap the whole run in runtime/pprof
// collection so simulator hot paths can be inspected with standard
// tooling (`go tool pprof`); see EXPERIMENTS.md "Profiling the
// simulator itself".
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cliconf"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	nodesFlag := flag.Int("nodes", 8, "compute nodes (the paper profiles on 8)")
	rpnFlag := flag.Int("rpn", 16, "ranks per node")
	whatFlag := flag.String("what", "table1,fig8,fig9", "artifacts to produce")
	shared := cliconf.New(cliconf.WithTrace)
	traceAppFlag := flag.String("trace-app", "UMT2013", "mini-app for the traced run")
	traceOSFlag := flag.String("trace-os", "mckernel+hfi", "OS for the traced run: linux, mckernel, mckernel+hfi")
	cpuProfileFlag := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfileFlag := flag.String("memprofile", "", "write a runtime/pprof heap (allocs) profile at exit to this file")
	flag.Parse()

	if *cpuProfileFlag != "" {
		f, err := os.Create(*cpuProfileFlag)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfileFlag != "" {
		defer func() {
			f, err := os.Create(*memProfileFlag)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live heap so the snapshot reflects retained memory
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	sc := experiments.SmallScale()
	sc.ProfileNodes = *nodesFlag
	sc.ProfileRPN = *rpnFlag
	cfg := shared.Config(sc)
	traceFlag := shared.Trace
	want := map[string]bool{}
	for _, w := range strings.Split(*whatFlag, ",") {
		want[strings.TrimSpace(w)] = true
	}

	if want["table1"] {
		profiles, err := experiments.Table1(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Table1(profiles))
	}
	for _, fig := range []struct{ id, app string }{{"fig8", "UMT2013"}, {"fig9", "QBOX"}} {
		if !want[fig.id] {
			continue
		}
		orig, pico, err := experiments.SyscallBreakdown(cfg, fig.app)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.BreakdownTable(orig, pico))
	}

	if *traceFlag != "" {
		os_, err := cliconf.ParseOS(*traceOSFlag)
		if err != nil {
			fatal(err)
		}
		rec, res, err := experiments.TracedRun(cfg, *traceAppFlag, *nodesFlag, *rpnFlag, os_)
		if err != nil {
			fatal(err)
		}
		if err := shared.WriteTrace(rec); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s %s nodes=%d rpn=%d elapsed=%v spans=%d -> %s\n",
			*traceAppFlag, *traceOSFlag, *nodesFlag, *rpnFlag,
			res.Elapsed, rec.SpanCount(), *traceFlag)
		fmt.Println(report.LatencyTable(rec))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
