package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/miniapps"
	"repro/internal/runner"
)

// pool is the default worker pool for the smoke tests.
var pool = runner.New(0)

// tinyScale keeps the smoke tests fast.
func tinyScale() Scale {
	return Scale{
		Name:             "tiny",
		PingPongSizes:    []uint64{4 << 10, 256 << 10},
		PingPongReps:     2,
		AppNodes:         []int{1, 2},
		QBoxNodes:        []int{4},
		RanksPerNode:     4,
		ProfileNodes:     2,
		ProfileRPN:       4,
		LossRates:        []float64{0, 0.02},
		ReliabilitySizes: []uint64{8 << 10, 96 << 10},
		Seed:             1,
	}
}

// tinyConfig bundles tinyScale with the shared pool.
func tinyConfig() Config {
	return Config{Scale: tinyScale(), Pool: pool}
}

func TestFig4ShapesAndDeterminism(t *testing.T) {
	rows, err := Fig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, os := range cluster.AllOSTypes {
			if r.MBps[os.String()] <= 0 {
				t.Fatalf("%s bandwidth missing at %d", os, r.Size)
			}
		}
	}
	// At 256 KB (rendezvous) the paper's ordering must hold.
	big := rows[1]
	if !(big.MBps["McKernel"] < big.MBps["Linux"] && big.MBps["Linux"] < big.MBps["McKernel+HFI1"]) {
		t.Fatalf("fig4 ordering broken: %+v", big.MBps)
	}
	// Determinism.
	again, err := Fig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for _, os := range cluster.AllOSTypes {
			if rows[i].MBps[os.String()] != again[i].MBps[os.String()] {
				t.Fatal("fig4 not deterministic")
			}
		}
	}
}

func TestAppScalingRelatives(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale.RanksPerNode = 8
	pts, err := AppScaling(cfg, miniapps.UMT2013(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].RelToLinux["Linux"] != 1.0 {
		t.Fatal("Linux must be the 100% baseline")
	}
	// Single node: all configurations near parity (everything is local).
	if rel := pts[0].RelToLinux["McKernel"]; rel < 0.9 || rel > 1.2 {
		t.Fatalf("1-node McKernel relative = %.2f, want near parity", rel)
	}
	// Two nodes: offload degradation must appear (the full collapse
	// needs the paper's 32 ranks/node; this smoke test runs 8).
	if rel := pts[1].RelToLinux["McKernel"]; rel > 0.85 {
		t.Fatalf("2-node McKernel relative = %.2f, degradation missing", rel)
	}
	if rel := pts[1].RelToLinux["McKernel+HFI1"]; rel < 0.9 {
		t.Fatalf("2-node +HFI relative = %.2f", rel)
	}
}

func TestTable1Shape(t *testing.T) {
	profiles, err := Table1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 9 { // 3 apps x 3 OSes
		t.Fatalf("profiles = %d", len(profiles))
	}
	for _, p := range profiles {
		if len(p.Top) == 0 || len(p.Top) > 5 {
			t.Fatalf("%s/%s top = %d", p.App, p.OS, len(p.Top))
		}
		for _, e := range p.Top {
			if !strings.HasPrefix(e.Call, "MPI_") {
				t.Fatalf("unexpected call %q", e.Call)
			}
			if e.PctMPI < 0 || e.PctMPI > 100 || e.PctRt > e.PctMPI+0.01 {
				t.Fatalf("shares inconsistent: %+v", e)
			}
		}
	}
}

func TestSyscallBreakdownUMT(t *testing.T) {
	orig, pico, err := SyscallBreakdown(tinyConfig(), "UMT2013")
	if err != nil {
		t.Fatal(err)
	}
	share := func(b Breakdown, names ...string) float64 {
		var s float64
		for _, e := range b.Shares {
			for _, n := range names {
				if e.Name == n {
					s += e.Share
				}
			}
		}
		return s
	}
	// The paper's headline: ioctl+writev dominate the original McKernel
	// kernel time (>70%) and drop below 30% with the PicoDriver.
	if got := share(orig, "ioctl", "writev"); got < 0.7 {
		t.Fatalf("McKernel ioctl+writev share = %.2f", got)
	}
	if got := share(pico, "ioctl", "writev"); got > 0.3 {
		t.Fatalf("+HFI ioctl+writev share = %.2f", got)
	}
	if pico.KernelTime >= orig.KernelTime {
		t.Fatal("PicoDriver did not reduce kernel time")
	}
}

// TestFig4PoolSizeInvariance is the regression gate for the runner's
// deterministic-merge contract: the same scale and seed must produce
// deeply-equal rows at -j 1 and an oversubscribed -j (oversubscription
// forces out-of-order completion even on a single-core machine).
func TestFig4PoolSizeInvariance(t *testing.T) {
	sc := SmallScale()
	// Trim the sweep so the doubled run stays fast; keep >1 size so the
	// merge actually has rows to misorder.
	sc.PingPongSizes = sc.PingPongSizes[:3]
	sc.PingPongReps = 2
	seq, err := Fig4(NewConfig(sc, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig4(NewConfig(sc, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fig4 rows differ between -j 1 and -j 16:\n%+v\n%+v", seq, par)
	}
}

// TestAppScalingPoolSizeInvariance is the same gate for the scaling
// sweeps (Figures 5-7).
func TestAppScalingPoolSizeInvariance(t *testing.T) {
	app := miniapps.UMT2013()
	sc := tinyScale()
	seq, err := AppScaling(NewConfig(sc, 1), app, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AppScaling(NewConfig(sc, 16), app, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("scaling points differ between -j 1 and -j 16:\n%+v\n%+v", seq, par)
	}
}

// TestReliabilitySweep is the end-to-end gate on the lossy-fabric
// machinery at experiment level: byte-identical delivery is asserted
// inside every cell, retransmit counts must be nonzero exactly when the
// loss rate is, lossy goodput must not exceed the loss-free reference,
// and same-seed reruns must be deeply equal.
func TestReliabilitySweep(t *testing.T) {
	rows, err := Reliability(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale()
	if len(rows) != len(sc.LossRates)*len(sc.ReliabilitySizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	bySize := map[uint64]map[float64]ReliabilityRow{}
	for _, r := range rows {
		if bySize[r.Size] == nil {
			bySize[r.Size] = map[float64]ReliabilityRow{}
		}
		bySize[r.Size][r.Loss] = r
		for _, os := range cluster.AllOSTypes {
			name := os.String()
			if r.Goodput[name] <= 0 {
				t.Fatalf("%s goodput missing at loss=%g size=%d", name, r.Loss, r.Size)
			}
			if retr := r.Retransmits[name]; (retr > 0) != (r.Loss > 0) {
				t.Fatalf("%s retransmits=%d at loss=%g size=%d", name, retr, r.Loss, r.Size)
			}
		}
	}
	// Loss costs goodput, never correctness.
	for size, byLoss := range bySize {
		for loss, r := range byLoss {
			if loss == 0 {
				continue
			}
			for _, os := range cluster.AllOSTypes {
				name := os.String()
				if r.Goodput[name] > byLoss[0].Goodput[name] {
					t.Fatalf("%s goodput at loss=%g size=%d beats the loss-free reference", name, loss, size)
				}
			}
		}
	}
	again, err := Reliability(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatal("reliability sweep not deterministic")
	}
}

// TestShardsReachEveryCell pins that Config.Shards is never dropped on
// the way to cluster.New: the cells that cannot shard say so, and a
// cell that can produces the rows it produces unsharded.
func TestShardsReachEveryCell(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale.TenancyMsgs = 40
	cfg.Shards = 2
	for _, c := range []struct {
		name   string
		run    func(Config) (any, error)
		shards bool // true: the unsharded rows; false: an error naming Shards=2
	}{
		{"reliability", func(cfg Config) (any, error) { return Reliability(cfg) }, false},
		{"failover", func(cfg Config) (any, error) { return Failover(cfg) }, false},
		{"tenancy", func(cfg Config) (any, error) { return Tenancy(cfg) }, false},
		{"fig4", func(cfg Config) (any, error) { return Fig4(cfg) }, true},
		{"ablations", func(cfg Config) (any, error) { return Ablations(cfg) }, true},
	} {
		sharded, err := c.run(cfg)
		if !c.shards {
			if err == nil || !strings.Contains(err.Error(), "Shards=2") {
				t.Errorf("%s at Shards=2: want an error naming Shards=2, got %v", c.name, err)
			}
			continue
		}
		single, err1 := c.run(tinyConfig())
		if err != nil || err1 != nil || !reflect.DeepEqual(sharded, single) {
			t.Errorf("%s rows differ between Shards=2 and Shards=1 (errors %v, %v):\n%+v\n%+v", c.name, err, err1, sharded, single)
		}
	}
	// cluster.New refuses Shards on a lossy fabric: so must every arm but backing's.
	cfg.Faults.Drop = 0.5
	for _, a := range ablations {
		for arm, name := range a.Arms {
			_, err := a.cell(cfg, arm, 1)
			if a.ID != "backing" && (err == nil || !strings.Contains(err.Error(), "Shards=2")) {
				t.Errorf("ablation %s/%s at Shards=2 on a lossy fabric: %v", a.ID, name, err)
			}
		}
	}
}

// TestCellIDsPinned freezes the cell ids of the OS-grid sweeps and ablations.
// Every cell's engine seed is DeriveSeed(Scale.Seed, id), so a drifting
// format string would silently reseed — and change — every artifact.
// Each sweep's key formatter runs through osGrid with a cell that only
// reports the seed it was handed, compared against the seed of the
// literal id; and each sweep that can be made to fail inside its first
// cell must report that cell under the literal id.
func TestCellIDsPinned(t *testing.T) {
	seeds := func(grid [][]int64, err error) [][]int64 {
		if err != nil {
			t.Fatal(err)
		}
		return grid
	}
	cfg := tinyConfig()
	cfg.Scale.Seed = 7
	// Shards on a lossy fabric: cluster.New refuses every cell at once.
	bad := cfg
	bad.Shards, bad.Faults.Drop = 2, 0.5
	bad.Scale.PingPongSizes = []uint64{1024, 4096}
	bad.Scale.VerbsSizes, bad.Scale.VerbsReps = []uint64{4096, 65536}, 1
	for _, c := range []struct {
		sweep string
		got   [][]int64
		want  [2][3]string // [key][os], as osGrid indexes
		run   func() error // nil: the sweep refuses Shards before any cell runs
	}{
		{"Fig4",
			seeds(osGrid(cfg, []uint64{1024, 4096}, fig4Key, seedOf[uint64])),
			[2][3]string{
				{"fig4/1024B/Linux", "fig4/1024B/McKernel", "fig4/1024B/McKernel+HFI1"},
				{"fig4/4096B/Linux", "fig4/4096B/McKernel", "fig4/4096B/McKernel+HFI1"}},
			func() error { _, err := Fig4(bad); return err }},
		{"AppScaling",
			seeds(osGrid(cfg, []int{2, 64}, func(n int) string { return scalingKey("LAMMPS", n) }, seedOf[int])),
			[2][3]string{
				{"LAMMPS/2n/Linux", "LAMMPS/2n/McKernel", "LAMMPS/2n/McKernel+HFI1"},
				{"LAMMPS/64n/Linux", "LAMMPS/64n/McKernel", "LAMMPS/64n/McKernel+HFI1"}},
			func() error { _, err := AppScaling(bad, miniapps.LAMMPS(), []int{2, 64}); return err }},
		{"Table1",
			seeds(osGrid(cfg, []string{"UMT2013", "QBOX"}, table1Key, seedOf[string])),
			[2][3]string{
				{"table1/UMT2013/Linux", "table1/UMT2013/McKernel", "table1/UMT2013/McKernel+HFI1"},
				{"table1/QBOX/Linux", "table1/QBOX/McKernel", "table1/QBOX/McKernel+HFI1"}},
			func() error { _, err := Table1(bad); return err }},
		{"VerbsSweep",
			seeds(osGrid(cfg, []uint64{4096, 2<<20 + 4096}, verbsKey, seedOf[uint64])),
			[2][3]string{
				{"verbs/4096B/Linux", "verbs/4096B/McKernel", "verbs/4096B/McKernel+HFI1"},
				{"verbs/2101248B/Linux", "verbs/2101248B/McKernel", "verbs/2101248B/McKernel+HFI1"}},
			func() error { _, err := VerbsSweep(bad); return err }},
		{"Reliability",
			seeds(osGrid(cfg, []relKey{{0.01, 8192}, {0, 262144}}, relKey.String, seedOf[relKey])),
			[2][3]string{
				{"reliability/0.0100/8192B/Linux", "reliability/0.0100/8192B/McKernel", "reliability/0.0100/8192B/McKernel+HFI1"},
				{"reliability/0.0000/262144B/Linux", "reliability/0.0000/262144B/McKernel", "reliability/0.0000/262144B/McKernel+HFI1"}},
			nil},
	} {
		for i, row := range c.want {
			for j, id := range row {
				if want := runner.DeriveSeed(7, id); c.got[i][j] != want {
					t.Errorf("%s: cell [%d][%d] was seeded %d, want DeriveSeed(7, %q) = %d", c.sweep, i, j, c.got[i][j], id, want)
				}
			}
		}
		if c.run == nil {
			continue
		}
		if err := c.run(); err == nil || !strings.Contains(err.Error(), `job "`+c.want[0][0]+`"`) {
			t.Errorf("%s: first cell not reported as %q: %v", c.sweep, c.want[0][0], err)
		}
	}

	// The ablation cells.
	var ids []string
	for _, j := range ablationJobs(cfg) {
		ids = append(ids, j.ID)
	}
	want := []string{
		"ablation/coalescing/off", "ablation/coalescing/on", "ablation/linux-cpus/2", "ablation/linux-cpus/16",
		"ablation/backing/scattered-4k", "ablation/backing/contig-large", "ablation/munmap/260ns", "ablation/munmap/20ns"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("Ablations: cell ids %q, want %q", ids, want)
	}
}

// seedOf is an osGrid cell that only reports the seed it was handed.
func seedOf[K any](_ K, _ cluster.OSType, seed int64) (int64, error) { return seed, nil }

// TestPingPongCellVerifiesBothRanks covers the merged ping-pong cell:
// on a lossy fabric it moves real bytes and checks every arrival at
// both ranks — a wrong reference for either rank alone fails the cell —
// while a loss-free Figure 4 cell stays synthetic and never asks for a
// payload.
func TestPingPongCellVerifiesBothRanks(t *testing.T) {
	const size = 32 << 10
	lossy := tinyConfig()
	lossy.Faults.Drop = 0.05
	lossy.Scale.PingPongReps = 20 // enough packets that 5% drops some
	build := func(cfg Config) *ppCell {
		c, err := fig4Cell(cfg, cluster.OSMcKernelHFI, size, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build(lossy)
	if c.cl.Cfg.Synthetic {
		t.Fatal("lossy cell built a synthetic cluster")
	}
	if _, err := c.finish(); err != nil {
		t.Fatalf("lossy cell with the real pattern: %v", err)
	}
	if c.cl.Fab.FaultStats().Dropped == 0 {
		t.Fatal("lossy cell dropped nothing: the check below would be vacuous")
	}
	for rank := 0; rank <= 1; rank++ {
		c := build(lossy)
		c.want = func(r int, tag uint64) []byte {
			if r == rank {
				tag++ // the neighbouring tag's pattern
			}
			return relPattern(tag, size)
		}
		want := fmt.Sprintf("payload mismatch at rank %d", rank)
		if _, err := c.finish(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("wrong reference at rank %d: want %q, got %v", rank, want, err)
		}
	}

	c = build(tinyConfig())
	c.want = func(int, uint64) []byte {
		t.Error("loss-free cell asked for a reference payload")
		return nil
	}
	if !c.cl.Cfg.Synthetic {
		t.Fatal("loss-free cell built a real-payload cluster")
	}
	if _, err := c.finish(); err != nil {
		t.Fatal(err)
	}
}
