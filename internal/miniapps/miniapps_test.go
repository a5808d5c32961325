package miniapps

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/mpi"
)

func runApp(t *testing.T, app *App, nodes, rpn int, os cluster.OSType) *mpi.JobResult {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: nodes, OS: os, Params: model.Default(), Seed: 5, Synthetic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mpi.RunJob(cl, rpn, func(c *mpi.Comm) error { return app.Body(c, app) })
	if err != nil {
		t.Fatalf("%s on %v: %v", app.Name, os, err)
	}
	return res
}

func TestDims(t *testing.T) {
	cases := []struct{ n, wantX, wantY int }{
		{1, 1, 1}, {4, 2, 2}, {8, 4, 2}, {32, 8, 4}, {64, 8, 8}, {96, 12, 8},
	}
	for _, c := range cases {
		x, y := dims2(c.n)
		if x*y != c.n {
			t.Errorf("dims2(%d) = %d x %d", c.n, x, y)
		}
		if x != c.wantX || y != c.wantY {
			t.Errorf("dims2(%d) = (%d,%d), want (%d,%d)", c.n, x, y, c.wantX, c.wantY)
		}
	}
	for _, n := range []int{1, 8, 27, 32, 64, 96, 256} {
		a, b, c := dims3(n)
		if a*b*c != n {
			t.Errorf("dims3(%d) = %d*%d*%d", n, a, b, c)
		}
	}
}

func TestNeighbor2(t *testing.T) {
	// 4x2 grid: rank 1 is (1,0).
	if nb := neighbor2(1, 4, 2, 1, 0); nb != 2 {
		t.Fatalf("+x neighbor = %d", nb)
	}
	if nb := neighbor2(1, 4, 2, 0, 1); nb != 5 {
		t.Fatalf("+y neighbor = %d", nb)
	}
	if nb := neighbor2(0, 4, 2, -1, 0); nb != -1 {
		t.Fatalf("edge neighbor = %d", nb)
	}
}

// TestAppsCompleteOnAllOSes runs every skeleton at reduced scale on every
// OS configuration.
func TestAppsCompleteOnAllOSes(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, os := range cluster.AllOSTypes {
				res := runApp(t, app, 2, 4, os)
				if res.Elapsed <= 0 {
					t.Fatalf("%v: elapsed = %v", os, res.Elapsed)
				}
			}
		})
	}
}

// TestUMTOffloadSensitivity checks the fig6a direction at small scale:
// McKernel markedly slower than Linux, McKernel+HFI at least on par.
func TestUMTOffloadSensitivity(t *testing.T) {
	app := UMT2013()
	times := map[cluster.OSType]time.Duration{}
	for _, os := range cluster.AllOSTypes {
		times[os] = runApp(t, app, 2, 8, os).Elapsed
	}
	t.Logf("UMT2013 2 nodes x 8 ranks: Linux=%v McKernel=%v McKernel+HFI=%v",
		times[cluster.OSLinux], times[cluster.OSMcKernel], times[cluster.OSMcKernelHFI])
	if times[cluster.OSMcKernel] < times[cluster.OSLinux]*105/100 {
		t.Errorf("McKernel (%v) should be clearly slower than Linux (%v) on UMT",
			times[cluster.OSMcKernel], times[cluster.OSLinux])
	}
	if times[cluster.OSMcKernelHFI] > times[cluster.OSLinux]*105/100 {
		t.Errorf("McKernel+HFI (%v) should be at least on par with Linux (%v)",
			times[cluster.OSMcKernelHFI], times[cluster.OSLinux])
	}
}

// TestLAMMPSParity checks fig5a: LAMMPS (PIO-dominated) is not hurt by
// offloading.
func TestLAMMPSParity(t *testing.T) {
	app := LAMMPS()
	lin := runApp(t, app, 2, 8, cluster.OSLinux).Elapsed
	mck := runApp(t, app, 2, 8, cluster.OSMcKernel).Elapsed
	t.Logf("LAMMPS 2x8: Linux=%v McKernel=%v", lin, mck)
	if mck > lin*110/100 {
		t.Errorf("LAMMPS on McKernel (%v) should be within 10%% of Linux (%v)", mck, lin)
	}
}
