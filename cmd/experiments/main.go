// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes the rendered artifacts. It is the
// simulator's one experiment front end.
//
// Usage:
//
//	experiments [-scale small|paper] [-only fig4,fig5a,...] [-out DIR] [-j N]
//	            [-shards N] [-loss P] [-checkpoint FILE]
//	experiments -only ID -trace FILE [...]
//
// The experiment ids are the report.Artifacts catalogue, run in its
// order (an unknown -only id prints the list). With -out, each artifact
// is also written to DIR/<id>.txt and DIR/<id>.csv. The catalogue's
// explicit ids (bigscale, the sharded engine's same-seed shard-count
// sweep) are expensive and only run when named in -only.
//
// -j fans the independent simulation cells of each experiment out over N
// workers (default: GOMAXPROCS). Artifacts are byte-identical for any
// -j, including -j 1; only wall-clock changes. -shards partitions every
// cluster into N engine shards (default 1, one standalone engine):
// artifacts stay identical for any value, only wall-clock moves — except
// that verbs, reliability, failover and tenancy refuse -shards > 1 (the
// sharded engine runs no fault injection or congestion control).
//
// -trace FILE records one cell of the id -only names under a span
// recorder while the table runs — the cell the catalogue's Trace entry
// names, so the trace is the run whose values the table prints — and
// writes its Chrome trace-event JSON to FILE after the run; it then
// prints the cell id, the span count and the per-phase span latency
// table. The ids with a traced cell are fig4, fig6a, verbs,
// reliability, failover and tenancy; -trace with any other -only exits
// 2, and a traced cell that records no span exits 1.
//
// -checkpoint FILE records each finished experiment's artifacts in a
// resumable manifest. When FILE already exists, its recorded
// experiments are emitted from it instead of re-run, so rerunning an
// interrupted -scale paper run picks up where it stopped; a traced id
// always runs. The manifest pins scale, seed and fault profile (-loss),
// not -j or -shards: a mismatch is refused.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or paper")
	onlyFlag := flag.String("only", "", "comma-separated experiment ids (default: all)")
	outFlag := flag.String("out", "", "directory to write artifacts into")
	jFlag := flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	shardsFlag := flag.Int("shards", 1, "simulation engine shards (1 = one standalone engine)")
	lossFlag := flag.Float64("loss", 0, "per-packet drop probability (activates the PSM reliability layer)")
	traceFlag := flag.String("trace", "", "write a Chrome trace-event JSON of one cell to this file")
	ckptFlag := flag.String("checkpoint", "", "record finished experiments in this manifest, resuming from it if it exists")
	flag.Parse()

	var sc experiments.Scale
	switch *scaleFlag {
	case "small":
		sc = experiments.SmallScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	var ids, traced []string
	byID := map[string]report.Artifact{}
	for _, a := range report.Artifacts {
		ids = append(ids, a.ID)
		byID[a.ID] = a
		if a.Trace != "" {
			traced = append(traced, a.ID)
		}
	}
	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := byID[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment id %q (known: %s)\n",
					id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	var tracing report.Artifact
	if *traceFlag != "" {
		for id := range want {
			tracing = byID[id]
		}
		if len(want) != 1 || tracing.Trace == "" {
			fmt.Fprintf(os.Stderr, "-trace needs -only naming one id with a traced cell (traced: %s)\n",
				strings.Join(traced, ", "))
			os.Exit(2)
		}
	}
	selected := func(a report.Artifact) bool {
		if a.Explicit {
			return want[a.ID]
		}
		return len(want) == 0 || want[a.ID]
	}

	cfg := experiments.NewConfig(sc, *jFlag)
	cfg.Faults.Drop = *lossFlag
	cfg.Shards = *shardsFlag
	rec := trace.NewRecorder()
	if tracing.Trace != "" {
		cfg.Trace = map[string]*trace.Recorder{tracing.Trace: rec}
	}
	fmt.Fprintf(os.Stderr, "experiments: scale=%s workers=%d shards=%d\n",
		sc.Name, cfg.Pool.Workers(), cfg.Shards)

	var ckpt *experiments.Checkpoint
	if *ckptFlag != "" {
		var err error
		if ckpt, err = experiments.LoadCheckpoint(*ckptFlag, cfg); err != nil {
			fatal(err)
		}
	}

	emit := func(id, content, csv string) {
		fmt.Printf("==== %s ====\n%s\n", id, content)
		if *outFlag != "" {
			if err := os.MkdirAll(*outFlag, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*outFlag, id+".txt"), []byte(content), 0o644); err != nil {
				fatal(err)
			}
			if csv != "" {
				if err := os.WriteFile(filepath.Join(*outFlag, id+".csv"), []byte(csv), 0o644); err != nil {
					fatal(err)
				}
			}
		}
	}

	// Each selected experiment runs — or, untraced, replays from the
	// checkpoint manifest — emits its artifacts, records them in the
	// checkpoint, and reports wall-clock on stderr (where the effect of
	// -j is otherwise invisible). A failed sweep job doesn't abort the
	// whole run: the experiment is named on stderr, the remaining
	// experiments still execute, and the process exits non-zero at the
	// end.
	var failed []string
	for _, a := range report.Artifacts {
		id := a.ID
		if !selected(a) {
			continue
		}
		if ckpt != nil && ckpt.Has(id) && id != tracing.ID {
			text, csv := ckpt.Artifact(id)
			emit(id, text, csv)
			fmt.Fprintf(os.Stderr, "experiments: %-6s resumed from %s\n", id, *ckptFlag)
			continue
		}
		start := time.Now()
		text, csv, err := a.Run(cfg)
		if err != nil {
			failed = append(failed, id)
			fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", id, err)
			continue
		}
		emit(id, text, csv)
		if ckpt != nil && !ckpt.Has(id) {
			if err := ckpt.Record(id, text, csv); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: %-6s %s\n", id, time.Since(start).Round(time.Millisecond))
	}

	if tracing.Trace != "" && len(failed) == 0 {
		if rec.SpanCount() == 0 {
			fatal(fmt.Errorf("trace: cell %s recorded no spans", tracing.Trace))
		}
		if err := os.WriteFile(*traceFlag, rec.ChromeTraceJSON(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %s, %d spans -> %s\n%s", tracing.Trace, rec.SpanCount(), *traceFlag, report.LatencyTable(rec))
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
