package report

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/miniapps"
)

// Artifact is one experiment id of the evaluation: how to run it under
// a Config and render the text table and the CSV committed as
// artifacts/<ID>.txt and artifacts/<ID>.csv.
type Artifact struct {
	ID string
	// Explicit ids run only when named (cmd/experiments -only): too
	// expensive for the default sweep.
	Explicit bool
	Run      func(cfg experiments.Config) (text, csv string, err error)
	// Trace, when set, is the id of one cell of the table: the cell
	// `experiments -only ID -trace FILE` records (as Config.Trace) while
	// the table runs, and a TestDeterminismGates row. Every traced cell
	// runs McKernel+HFI1, the configuration whose fast path the spans
	// explain.
	Trace string
}

// Artifacts is the catalogue of every experiment id, in output order.
// It is the only such list: cmd/experiments loops over it and
// TestCommittedArtifactsByteIdentical rebuilds artifacts/ from it.
var Artifacts = []Artifact{
	artifact("fig4", experiments.Fig4,
		"Figure 4: MPI ping-pong bandwidth (MB/s) and one-way latency p50/p99 (µs)", fig4Cols,
		"fig4/65536B/McKernel+HFI1"),
	scaling("fig5a", "Figure 5a: LAMMPS", miniapps.LAMMPS, appNodes, ""),
	scaling("fig5b", "Figure 5b: Nekbone", miniapps.Nekbone, appNodes, ""),
	scaling("fig6a", "Figure 6a: UMT2013", miniapps.UMT2013, appNodes, "UMT2013/2n/McKernel+HFI1"),
	scaling("fig6b", "Figure 6b: HACC", miniapps.HACC, appNodes, ""),
	scaling("fig7", "Figure 7: QBOX", miniapps.QBOX, qboxNodes, ""),
	{ID: "table1", Run: func(cfg experiments.Config) (string, string, error) {
		profiles, err := experiments.Table1(cfg)
		if err != nil {
			return "", "", err
		}
		return Table1(profiles), Table1CSV(profiles), nil
	}},
	breakdown("fig8", "UMT2013"),
	breakdown("fig9", "QBOX"),
	artifact("verbs", experiments.VerbsSweep,
		"RDMA verbs: registration latency (µs) vs data-path latency (µs)", verbsCols,
		"verbs/65536B/McKernel+HFI1"),
	artifact("reliability", experiments.Reliability,
		"Reliability: goodput (MB/s), one-way p50/p99 (µs) and retransmits vs loss rate", reliabilityCols,
		"reliability/0.0500/32768B/McKernel+HFI1"), // eager SDMA at a loss rate that drops packets
	artifact("failover", experiments.Failover,
		"Failover: rail-0 outage blackout window and goodput per OS configuration", failoverCols,
		"failover/McKernel+HFI1"),
	artifact("tenancy", experiments.Tenancy,
		"Tenancy: victim latency vs neighbor placement under fabric congestion control", tenancyCols,
		"tenancy/McKernel+HFI1/packed"),
	artifact("ablations", experiments.Ablations,
		"Ablations: one mechanism per row, everything else fixed (ratio = without / with)", ablationCols, ""),
	{ID: "bigscale", Explicit: true, Run: func(cfg experiments.Config) (string, string, error) {
		sc := cfg.Scale
		rows, err := experiments.Bigscale(cfg, "UMT2013", sc.BigscaleNodes, sc.BigscaleRPN, sc.BigscaleShards)
		if err != nil {
			return "", "", err
		}
		text, csv := table(fmt.Sprintf("Sharded engine: UMT2013, %d nodes x %d ranks/node, one seed",
			sc.BigscaleNodes, sc.BigscaleRPN), bigscaleCols, rows)
		return text, csv, nil
	}},
}

// artifact runs one sweep and renders its rows as one table under
// title; trace is its traced cell's id ("" for none).
func artifact[R any](id string, run func(experiments.Config) ([]R, error), title string, cols func(R) []col, trace string) Artifact {
	return Artifact{ID: id, Trace: trace, Run: func(cfg experiments.Config) (string, string, error) {
		rows, err := run(cfg)
		if err != nil {
			return "", "", err
		}
		text, csv := table(title, cols, rows)
		return text, csv, nil
	}}
}

func appNodes(sc experiments.Scale) []int  { return sc.AppNodes }
func qboxNodes(sc experiments.Scale) []int { return sc.QBoxNodes }

// scaling is one mini-app scaling figure over the scale's node sweep.
func scaling(id, title string, app func() *miniapps.App, nodes func(experiments.Scale) []int, trace string) Artifact {
	return artifact(id,
		func(cfg experiments.Config) ([]experiments.ScalingPoint, error) {
			return experiments.AppScaling(cfg, app(), nodes(cfg.Scale))
		},
		title+" (performance relative to Linux; rank-time p50/p99 in ms)", scalingCols, trace)
}

// breakdown is one kernel-level system call breakdown figure.
func breakdown(id, app string) Artifact {
	return Artifact{ID: id, Run: func(cfg experiments.Config) (string, string, error) {
		orig, pico, err := experiments.SyscallBreakdown(cfg, app)
		if err != nil {
			return "", "", err
		}
		return BreakdownTable(orig, pico), BreakdownCSV(orig, pico), nil
	}}
}
