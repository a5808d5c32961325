package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dwarfx"
	"repro/internal/hfi"
	"repro/internal/kstruct"
	"repro/internal/model"
	"repro/internal/runner"
)

// picoLayouts builds a McKernel+HFI1 cluster of n nodes and returns the
// registries its fast paths read through: every node's HFI one, then
// every node's verbs one.
func picoLayouts(n int, seed int64) ([]*kstruct.Registry, error) {
	cl, err := cluster.New(cluster.Spec{Nodes: n, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: seed})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	regs := make([]*kstruct.Registry, 2*n)
	for i, node := range cl.Nodes {
		regs[i], regs[n+i] = core.Layouts(node.Pico, node.MlxPico)
	}
	return regs, nil
}

// TestLayoutsExtractedOncePerBuild: the fast paths extract their layouts
// once per module build. Every node of two clusters reads the HFI
// driver's structures through one registry and the verbs driver's
// through another; a different build of the module gets its own, and
// asking for that build again returns it.
func TestLayoutsExtractedOncePerBuild(t *testing.T) {
	a, err := picoLayouts(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := picoLayouts(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hfiReg, mlxReg := a[0], a[3]
	if hfiReg == mlxReg {
		t.Fatal("the HFI and verbs fast paths share a registry")
	}
	for i, reg := range append(a, b...) {
		want := hfiReg
		if i >= 3 && i < 6 || i >= 8 {
			want = mlxReg
		}
		if reg != want {
			t.Errorf("registry %d (%s) is not the one the other nodes share", i, reg.Version)
		}
	}

	m, err := dwarfx.NewModule(hfi.BuildRegistry("hfi1-10.9-0"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.PortLayouts(m.Blob, "hfipico", core.HFIWants)
	if err != nil {
		t.Fatal(err)
	}
	if other == hfiReg {
		t.Fatal("a different module build got the shipped build's registry")
	}
	again, err := core.PortLayouts(m.Blob, "hfipico", core.HFIWants)
	if err != nil {
		t.Fatal(err)
	}
	if again != other {
		t.Error("the same module build was extracted twice")
	}
}

// TestLayoutsSharedAcrossWorkers builds McKernel+HFI1 cells concurrently
// through runner, as the experiment sweeps do: under -race this checks
// the extraction memo and the shared registries for data races.
func TestLayoutsSharedAcrossWorkers(t *testing.T) {
	jobs := make([]runner.Job[[]*kstruct.Registry], 8)
	for i := range jobs {
		seed := int64(i)
		jobs[i] = runner.Job[[]*kstruct.Registry]{
			ID: fmt.Sprintf("cell%d", i),
			Fn: func() ([]*kstruct.Registry, error) { return picoLayouts(2, seed) },
		}
	}
	res, err := runner.Run(runner.New(4), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, regs := range res {
		if regs[0] != res[0][0] || regs[1] != res[0][0] || regs[2] != res[0][2] || regs[3] != res[0][2] {
			t.Errorf("cell %d built its own layouts", i)
		}
	}
}
