// Command benchmark is the repository's benchmark: seven isolated
// workloads, each a closed loop of fixed work run in fresh child processes,
// measured end to end with tracing off and layer by layer in a separate
// traced pass. See README.md in this directory and BENCHMARK.json at the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// environment is recorded in every report header: host-time numbers mean
// nothing without it.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load_1min"`
}

func readEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown", Load1: -1}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				env.Load1 = v
			}
		}
	}
	return env
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s cpu=%q load1=%.2f\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Load1)
	if e.Load1 > 0.5 {
		fmt.Fprintf(w, "WARNING: 1-min load average %.2f > 0.5: host-time metrics will be noisy\n", e.Load1)
	}
}

// print writes one run as a table: every metric by name, with its unit.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s  seed=%d units=%d ops_attempted=%d ops_failed=%d correct=%v\n", r.Workload, r.Seed, r.Units, r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, m := range endToEnd {
		if d, ok := r.E2E[m.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s [q1 %.6g, q3 %.6g] n=%d spread=%.1f%% (bound %.0f%%)\n",
				m.name, d.Median, m.unit, d.Q1, d.Q3, len(d.Samples), 100*d.spread(), 100*m.bound)
		}
	}
	for _, m := range perLayer {
		if v, ok := r.Layers[m.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, v, m.unit)
		}
	}
}

// resultLine is the contract's last line of standard output.
func (r *runResult) resultLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			v, ok := r.Layers[m.name]
			if !ok {
				return nil, fmt.Errorf("traced pass produced no %s", m.name)
			}
			metrics[m.name] = value{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			d, ok := r.E2E[m.name]
			if !ok {
				return nil, fmt.Errorf("run produced no %s", m.name)
			}
			metrics[m.name] = value{d.Median, m.unit}
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": metrics})
}

func list(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s %g\n", m.name, m.unit, m.better, m.bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\n", m.name, m.unit, m.better)
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		o        childOpts
		name     = flag.String("workload", "", "run only this workload and print the result line the driver reads (default: all, as a report)")
		seconds  = flag.Float64("seconds", 10, "how long one run of one workload measures")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics instead of end-to-end ones")
		layers   = flag.Bool("layers", false, "same as -trace 1")
		out      = flag.String("out", "", "also write the results as JSON to this file (input of -compare)")
		cmp      = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
		self     = flag.Bool("selfcheck", false, "run the set twice and compare the two results")
		doList   = flag.Bool("list", false, "list workloads and metrics")
		upGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" (run from the repository root)")
		traceOut = flag.String("tracefile", "benchmark/out/trace.json", "where the traced pass writes the harness spans (Chrome format)")
	)
	flag.StringVar(&o.workload, "child", "", "internal: run one unit of this workload in-process, print one JSON line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.BoolVar(&o.smoke, "smoke", false, "sizes / 100 (tests)")
	flag.BoolVar(&o.traced, "traced", false, "internal (child): attach recorders, take a CPU profile")
	flag.BoolVar(&o.shards1, "shards1", false, "internal (child): shard_scale at Shards=1")
	flag.Int64Var(&o.spawned, "spawned", 0, "internal (child): parent's clock at spawn")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	switch {
	case o.workload != "":
		return childMain(o)
	case *doList:
		list(os.Stdout)
		return 0
	case *cmp:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		a, err := loadResultSet(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := loadResultSet(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed, _ := compare(os.Stdout, a, b); regressed > 0 {
			return 1
		}
		return 0
	}

	s, err := newSpawner(o.smoke)
	if err != nil {
		return fail(err)
	}
	if *upGolden {
		if err := updateGolden(s); err != nil {
			return fail(err)
		}
		return 0
	}
	traced := *layers || *trace == 1
	selected := workloads
	report := io.Writer(os.Stdout)
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		selected = []workload{*w}
		report = os.Stderr // standard output carries the result line
	}

	// runSet measures every selected workload once, one child at a time.
	runSet := func() *resultSet {
		rs := &resultSet{Env: readEnvironment()}
		rs.Env.print(report)
		for i := range selected {
			w := &selected[i]
			var r *runResult
			if traced {
				r = s.layers(w, o.seed, *seconds)
			} else {
				r = s.measure(w, o.seed, *seconds)
			}
			if n, first := goldenDiff(w.name, o.seed, o.smoke, r.Counters); n > 0 {
				r.Notes = append(r.Notes, fmt.Sprintf("simulated results drifted from golden.json on %v counters, first %s", n, first))
			}
			r.print(report)
			rs.Runs = append(rs.Runs, r)
		}
		return rs
	}

	rs := runSet()
	code := 0
	for _, r := range rs.Runs {
		if !r.Correct {
			code = 1
		}
	}
	if traced {
		var spans []span
		for _, r := range rs.Runs {
			spans = append(spans, r.spans...)
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Begin < spans[j].Begin })
		if err := writeChromeTrace(*traceOut, spans); err != nil {
			return fail(err)
		}
		fmt.Fprintf(report, "\nwrote %d harness spans to %s\n", len(spans), *traceOut)
	}
	if *self {
		fmt.Fprintf(report, "\nselfcheck: second set\n")
		second := runSet()
		fmt.Fprintf(report, "\nselfcheck: second set against the first\n")
		regressed, unresolved := compare(report, rs, second)
		fmt.Fprintf(report, "selfcheck: %d regressed, %d unresolved\n", regressed, unresolved)
		if regressed+unresolved > 0 {
			code = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rs, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		line, err := rs.Runs[0].resultLine(traced)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
		return 0 // the line itself says whether the run was correct
	}
	return code
}
