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
}

// Artifacts is the catalogue of every experiment id, in output order.
// It is the only such list: cmd/experiments loops over it and
// TestCommittedArtifactsByteIdentical rebuilds artifacts/ from it.
var Artifacts = []Artifact{
	artifact("fig4", experiments.Fig4, Fig4Table, Fig4CSV),
	scaling("fig5a", "Figure 5a: LAMMPS", miniapps.LAMMPS, appNodes),
	scaling("fig5b", "Figure 5b: Nekbone", miniapps.Nekbone, appNodes),
	scaling("fig6a", "Figure 6a: UMT2013", miniapps.UMT2013, appNodes),
	scaling("fig6b", "Figure 6b: HACC", miniapps.HACC, appNodes),
	scaling("fig7", "Figure 7: QBOX", miniapps.QBOX, qboxNodes),
	artifact("table1", experiments.Table1, Table1, Table1CSV),
	breakdown("fig8", "UMT2013"),
	breakdown("fig9", "QBOX"),
	artifact("verbs", experiments.VerbsSweep, VerbsTable, VerbsCSV),
	artifact("reliability", experiments.Reliability, ReliabilityTable, ReliabilityCSV),
	artifact("failover", experiments.Failover, FailoverTable, FailoverCSV),
	artifact("tenancy", experiments.Tenancy, TenancyTable, TenancyCSV),
	artifact("ablations", experiments.Ablations, AblationTable, AblationCSV),
	{ID: "bigscale", Explicit: true, Run: func(cfg experiments.Config) (string, string, error) {
		sc := cfg.Scale
		rows, err := experiments.Bigscale(cfg, "UMT2013", sc.BigscaleNodes, sc.BigscaleRPN, sc.BigscaleShards)
		if err != nil {
			return "", "", err
		}
		title := fmt.Sprintf("Sharded engine: UMT2013, %d nodes x %d ranks/node, one seed",
			sc.BigscaleNodes, sc.BigscaleRPN)
		return BigscaleTable(title, rows), BigscaleCSV(rows), nil
	}},
}

// artifact pairs one sweep with its two renderers.
func artifact[R any](id string, run func(experiments.Config) (R, error), table, csv func(R) string) Artifact {
	return Artifact{ID: id, Run: func(cfg experiments.Config) (string, string, error) {
		rows, err := run(cfg)
		if err != nil {
			return "", "", err
		}
		return table(rows), csv(rows), nil
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
		func(pts []experiments.ScalingPoint) string { return ScalingTable(title, pts) },
		ScalingCSV)
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
