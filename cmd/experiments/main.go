// Command experiments regenerates every table and figure of the paper's
// evaluation section and writes the rendered artifacts.
//
// Usage:
//
//	experiments [-scale small|paper] [-only fig4,fig5a,...] [-out DIR] [-j N]
//	            [-checkpoint FILE [-resume]]
//
// Experiment ids: fig4, fig5a, fig5b, fig6a, fig6b, fig7, table1, fig8,
// fig9, verbs, reliability, failover, tenancy, bigscale. With -out, each
// artifact is also written to DIR/<id>.txt. The bigscale id (the sharded
// engine's same-seed shard-count sweep) is expensive and only runs when
// named in -only.
//
// -j fans the independent simulation cells of each experiment out over N
// workers (default: GOMAXPROCS). Artifacts are byte-identical for any
// -j, including -j 1; only wall-clock changes. -shards partitions every
// cluster into N engine shards (default 1, one standalone engine);
// artifacts stay identical for any value, only wall-clock moves.
// The shared -j/-shards/-loss block comes from internal/cliconf, the
// same run-setup path as every other simulator binary.
//
// -checkpoint FILE records each finished experiment's artifacts in a
// resumable manifest; adding -resume emits already-recorded experiments
// from the manifest instead of re-running them, so an interrupted
// -scale paper run picks up where it stopped. The manifest pins the
// scale and seed: resuming under different parameters is refused.
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
	"repro/internal/miniapps"
	"repro/internal/report"
)

// experimentIDs lists every known id in output order. explicitOnly ids
// are skipped unless named in -only (too expensive for the default
// sweep).
var experimentIDs = []string{
	"fig4", "fig5a", "fig5b", "fig6a", "fig6b", "fig7", "table1", "fig8", "fig9",
	"verbs", "reliability", "failover", "tenancy", "bigscale",
}

var explicitOnly = map[string]bool{"bigscale": true}

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

	known := map[string]bool{}
	for _, id := range experimentIDs {
		known[id] = true
	}
	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(os.Stderr, "unknown experiment id %q (known: %s)\n",
					id, strings.Join(experimentIDs, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	selected := func(id string) bool {
		if explicitOnly[id] {
			return want[id]
		}
		return len(want) == 0 || want[id]
	}

	cfg := shared.Config(sc)
	fmt.Fprintf(os.Stderr, "experiments: scale=%s workers=%d shards=%d\n",
		sc.Name, cfg.Pool.Workers(), *shared.Shards)

	var ckpt *experiments.Checkpoint
	if *ckptFlag != "" {
		meta := fmt.Sprintf("scale=%s seed=%d", sc.Name, sc.Seed)
		var err error
		if ckpt, err = experiments.LoadCheckpoint(*ckptFlag, meta, *resumeFlag); err != nil {
			fatal(err)
		}
	}

	// A failed sweep job doesn't abort the whole run: the experiment is
	// named on stderr, the remaining experiments still execute, and the
	// process exits non-zero at the end.
	var failed []string
	fail := func(id string, err error) {
		failed = append(failed, id)
		fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", id, err)
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

	// do runs one experiment — or replays it from the resume manifest —
	// emits its artifacts, records them in the checkpoint, and reports
	// wall-clock on stderr (where the effect of -j is otherwise
	// invisible).
	do := func(id string, run func() (text, csv string, err error)) {
		if !selected(id) {
			return
		}
		if ckpt != nil && ckpt.Has(id) {
			text, csv := ckpt.Artifact(id)
			emit(id, text, csv)
			fmt.Fprintf(os.Stderr, "experiments: %-6s resumed from %s\n", id, *ckptFlag)
			return
		}
		start := time.Now()
		text, csv, err := run()
		if err != nil {
			fail(id, err)
			return
		}
		emit(id, text, csv)
		if ckpt != nil {
			if err := ckpt.Record(id, text, csv); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: %-6s %s\n", id, time.Since(start).Round(time.Millisecond))
	}

	do("fig4", func() (string, string, error) {
		rows, err := experiments.Fig4(cfg)
		if err != nil {
			return "", "", err
		}
		return report.Fig4Table(rows), report.Fig4CSV(rows), nil
	})

	scaling := []struct {
		id, title string
		app       *miniapps.App
		nodes     []int
	}{
		{"fig5a", "Figure 5a: LAMMPS", miniapps.LAMMPS(), sc.AppNodes},
		{"fig5b", "Figure 5b: Nekbone", miniapps.Nekbone(), sc.AppNodes},
		{"fig6a", "Figure 6a: UMT2013", miniapps.UMT2013(), sc.AppNodes},
		{"fig6b", "Figure 6b: HACC", miniapps.HACC(), sc.AppNodes},
		{"fig7", "Figure 7: QBOX", miniapps.QBOX(), sc.QBoxNodes},
	}
	for _, s := range scaling {
		s := s
		do(s.id, func() (string, string, error) {
			pts, err := experiments.AppScaling(cfg, s.app, s.nodes)
			if err != nil {
				return "", "", err
			}
			return report.ScalingTable(s.title, pts), report.ScalingCSV(pts), nil
		})
	}

	do("table1", func() (string, string, error) {
		profiles, err := experiments.Table1(cfg)
		if err != nil {
			return "", "", err
		}
		return report.Table1(profiles), report.Table1CSV(profiles), nil
	})

	for _, bd := range []struct{ id, app string }{
		{"fig8", "UMT2013"},
		{"fig9", "QBOX"},
	} {
		bd := bd
		do(bd.id, func() (string, string, error) {
			orig, pico, err := experiments.SyscallBreakdown(cfg, bd.app)
			if err != nil {
				return "", "", err
			}
			return report.BreakdownTable(orig, pico), report.BreakdownCSV(orig, pico), nil
		})
	}

	do("verbs", func() (string, string, error) {
		rows, err := experiments.VerbsSweep(cfg)
		if err != nil {
			return "", "", err
		}
		return report.VerbsTable(rows), report.VerbsCSV(rows), nil
	})

	do("reliability", func() (string, string, error) {
		rows, err := experiments.Reliability(cfg)
		if err != nil {
			return "", "", err
		}
		return report.ReliabilityTable(rows), report.ReliabilityCSV(rows), nil
	})

	do("failover", func() (string, string, error) {
		rows, err := experiments.Failover(cfg)
		if err != nil {
			return "", "", err
		}
		return report.FailoverTable(rows), report.FailoverCSV(rows), nil
	})

	do("tenancy", func() (string, string, error) {
		rows, err := experiments.Tenancy(cfg)
		if err != nil {
			return "", "", err
		}
		return report.TenancyTable(rows), report.TenancyCSV(rows), nil
	})

	do("bigscale", func() (string, string, error) {
		rows, err := experiments.Bigscale(cfg, "UMT2013",
			sc.BigscaleNodes, sc.BigscaleRPN, sc.BigscaleShards)
		if err != nil {
			return "", "", err
		}
		title := fmt.Sprintf("Sharded engine: UMT2013, %d nodes x %d ranks/node, one seed",
			sc.BigscaleNodes, sc.BigscaleRPN)
		return report.BigscaleTable(title, rows), report.BigscaleCSV(rows), nil
	})

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
