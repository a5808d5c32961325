package report

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/miniapps"
	"repro/internal/trace"
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
	// Trace, when set, reruns one cell of the id's table under rec: the
	// cell `experiments -only ID -trace FILE` exports, and a
	// TestDeterminismGates row. It returns the cell's name and the
	// values the table holds for it, as one line.
	Trace func(cfg experiments.Config, rec *trace.Recorder) (string, error)
}

// Artifacts is the catalogue of every experiment id, in output order.
// It is the only such list: cmd/experiments loops over it and
// TestCommittedArtifactsByteIdentical rebuilds artifacts/ from it.
var Artifacts = []Artifact{
	artifact("fig4", experiments.Fig4,
		"Figure 4: MPI ping-pong bandwidth (MB/s) and one-way latency p50/p99 (µs)", fig4Cols).traced(fig4Cell),
	scaling("fig5a", "Figure 5a: LAMMPS", miniapps.LAMMPS, appNodes),
	scaling("fig5b", "Figure 5b: Nekbone", miniapps.Nekbone, appNodes),
	scaling("fig6a", "Figure 6a: UMT2013", miniapps.UMT2013, appNodes).traced(fig6aCell),
	scaling("fig6b", "Figure 6b: HACC", miniapps.HACC, appNodes),
	scaling("fig7", "Figure 7: QBOX", miniapps.QBOX, qboxNodes),
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
		"RDMA verbs: registration latency (µs) vs data-path latency (µs)", verbsCols).traced(verbsCell),
	artifact("reliability", experiments.Reliability,
		"Reliability: goodput (MB/s), one-way p50/p99 (µs) and retransmits vs loss rate", reliabilityCols).traced(reliabilityCell),
	artifact("failover", experiments.Failover,
		"Failover: rail-0 outage blackout window and goodput per OS configuration", failoverCols).traced(failoverCell),
	artifact("tenancy", experiments.Tenancy,
		"Tenancy: victim latency vs neighbor placement under fabric congestion control", tenancyCols).traced(tenancyCell),
	artifact("ablations", experiments.Ablations,
		"Ablations: one mechanism per row, everything else fixed (ratio = without / with)", ablationCols),
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

// artifact runs one sweep and renders its rows as one table under title.
func artifact[R any](id string, run func(experiments.Config) ([]R, error), title string, cols func(R) []col) Artifact {
	return Artifact{ID: id, Run: func(cfg experiments.Config) (string, string, error) {
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
func scaling(id, title string, app func() *miniapps.App, nodes func(experiments.Scale) []int) Artifact {
	return artifact(id,
		func(cfg experiments.Config) ([]experiments.ScalingPoint, error) {
			return experiments.AppScaling(cfg, app(), nodes(cfg.Scale))
		},
		title+" (performance relative to Linux; rank-time p50/p99 in ms)", scalingCols)
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

// traced sets the id's traced cell.
func (a Artifact) traced(cell func(experiments.Config, *trace.Recorder) (string, error)) Artifact {
	a.Trace = cell
	return a
}

// The traced cells all run McKernel+HFI1, the configuration whose fast
// path the spans explain. Each is a cell of its id's table, rerun on
// the cell's own derived seed — except verbs', which is the application
// that drives MPI RMA over the verbs path — and each renders the
// values the table holds for the cell through the line function that
// TestTracedCellsReproduceTheirRows renders the table's own values
// with.
const (
	tracedPPSize  = 64 << 10 // fig4
	tracedNodes   = 2        // fig6a
	tracedRelLoss = 0.05     // reliability: high enough to observe drops
	tracedRelSize = 32 << 10 // reliability: eager SDMA
)

func fig4Cell(cfg experiments.Config, rec *trace.Recorder) (string, error) {
	c, err := experiments.PingPongStraight(cfg, cluster.OSMcKernelHFI, tracedPPSize, rec)
	return fig4Line(c.P50, c.P99), err
}

func fig4Line(p50, p99 time.Duration) string {
	return fmt.Sprintf("fig4 %s McKernel+HFI1 ping-pong: one-way p50=%v p99=%v", sizeLabel(tracedPPSize), p50, p99)
}

func fig6aCell(cfg experiments.Config, rec *trace.Recorder) (string, error) {
	res, err := experiments.AppCell(cfg, miniapps.UMT2013(), tracedNodes, cluster.OSMcKernelHFI, rec)
	if err != nil {
		return "", err
	}
	return fig6aLine(res.Elapsed), nil
}

func fig6aLine(elapsed time.Duration) string {
	return fmt.Sprintf("fig6a UMT2013 %d nodes McKernel+HFI1: elapsed=%v", tracedNodes, elapsed)
}

// verbsCell is LAMMPS-RMA on 2 nodes x 4 ranks: MPI RMA windows over
// the verbs path, so the trace holds doorbell, DMA and completion spans.
func verbsCell(cfg experiments.Config, rec *trace.Recorder) (string, error) {
	cfg.Scale.RanksPerNode = 4
	res, err := experiments.AppCell(cfg, miniapps.LAMMPSRMA(), 2, cluster.OSMcKernelHFI, rec)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("verbs LAMMPS-RMA 2x4 McKernel+HFI1: elapsed=%v", res.Elapsed), nil
}

func reliabilityCell(cfg experiments.Config, rec *trace.Recorder) (string, error) {
	c, rt, err := experiments.ReliabilityCell(cfg, cluster.OSMcKernelHFI, tracedRelLoss, tracedRelSize, rec)
	return reliabilityLine(c.P50, c.P99, rt), err
}

func reliabilityLine(p50, p99 time.Duration, retransmits uint64) string {
	return fmt.Sprintf("reliability %s loss %s McKernel+HFI1 ping-pong: one-way p50=%v p99=%v retransmits=%d",
		lossLabel(tracedRelLoss), sizeLabel(tracedRelSize), p50, p99, retransmits)
}

func failoverCell(cfg experiments.Config, rec *trace.Recorder) (string, error) {
	row, err := experiments.TracedFailover(cfg, cluster.OSMcKernelHFI, rec)
	return rowLine("failover", row), err
}

func tenancyCell(cfg experiments.Config, rec *trace.Recorder) (string, error) {
	row, err := experiments.TracedTenancy(cfg, cluster.OSMcKernelHFI, rec)
	return rowLine("tenancy", row), err
}

// rowLine renders a row that already is one cell, every field exact.
func rowLine(id string, row any) string { return fmt.Sprintf("%s %+v", id, row) }
