// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes the rendered artifacts.
//
// Usage:
//
//	experiments [-scale small|paper] [-only fig4,fig5a,...] [-out DIR] [-j N]
//	            [-checkpoint FILE [-resume]]
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
// The shared -j/-shards/-loss block comes from internal/cliconf, the
// same run-setup path as every other simulator binary.
//
// -checkpoint FILE records each finished experiment's artifacts in a
// resumable manifest; adding -resume emits already-recorded experiments
// from the manifest instead of re-running them, so an interrupted
// -scale paper run picks up where it stopped. The manifest pins scale,
// seed and fault profile (-loss), not -j or -shards: a mismatch is refused.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliconf"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small or paper")
	onlyFlag := flag.String("only", "", "comma-separated experiment ids (default: all)")
	outFlag := flag.String("out", "", "directory to write artifacts into")
	shared := cliconf.New()
	ckptFlag := flag.String("checkpoint", "", "record finished experiments in this resumable manifest")
	resumeFlag := flag.Bool("resume", false, "with -checkpoint: emit already-recorded experiments from the manifest")
	flag.Parse()
	if *resumeFlag && *ckptFlag == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint FILE")
		os.Exit(2)
	}

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

	var ids []string
	known := map[string]bool{}
	for _, a := range report.Artifacts {
		ids = append(ids, a.ID)
		known[a.ID] = true
	}
	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(os.Stderr, "unknown experiment id %q (known: %s)\n",
					id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	selected := func(a report.Artifact) bool {
		if a.Explicit {
			return want[a.ID]
		}
		return len(want) == 0 || want[a.ID]
	}

	cfg := shared.Config(sc)
	fmt.Fprintf(os.Stderr, "experiments: scale=%s workers=%d shards=%d\n",
		sc.Name, cfg.Pool.Workers(), *shared.Shards)

	var ckpt *experiments.Checkpoint
	if *ckptFlag != "" {
		var err error
		if ckpt, err = experiments.LoadCheckpoint(*ckptFlag, cfg, *resumeFlag); err != nil {
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

	// Each selected experiment runs — or replays from the resume
	// manifest — emits its artifacts, records them in the checkpoint,
	// and reports wall-clock on stderr (where the effect of -j is
	// otherwise invisible). A failed sweep job doesn't abort the whole
	// run: the experiment is named on stderr, the remaining experiments
	// still execute, and the process exits non-zero at the end.
	var failed []string
	for _, a := range report.Artifacts {
		id := a.ID
		if !selected(a) {
			continue
		}
		if ckpt != nil && ckpt.Has(id) {
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
		if ckpt != nil {
			if err := ckpt.Record(id, text, csv); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: %-6s %s\n", id, time.Since(start).Round(time.Millisecond))
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
