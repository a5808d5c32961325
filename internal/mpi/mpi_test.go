package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/trace"
)

func testCluster(t *testing.T, nodes int, os cluster.OSType, synthetic bool) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: nodes, OS: os, Params: model.Default(), Seed: 99, Synthetic: synthetic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestCollectivesComplete(t *testing.T) {
	for _, os := range cluster.AllOSTypes {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			cl := testCluster(t, 2, os, true)
			_, err := RunJob(cl, 2, func(c *Comm) error {
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := c.Bcast(0, 128<<10); err != nil {
					return err
				}
				if err := c.Allreduce(64); err != nil {
					return err
				}
				if err := c.Allreduce(1 << 20); err != nil {
					return err
				}
				if err := c.Alltoallv(func(peer int) uint64 { return 96 << 10 }); err != nil {
					return err
				}
				if err := c.Scan(256); err != nil {
					return err
				}
				return c.CartCreate([]int{2, 2})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNonPowerOfTwoWorld(t *testing.T) {
	cl := testCluster(t, 3, cluster.OSLinux, true)
	_, err := RunJob(cl, 1, func(c *Comm) error {
		if c.Size != 3 {
			return fmt.Errorf("size = %d", c.Size)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := c.Allreduce(32 << 10); err != nil {
			return err
		}
		return c.Bcast(2, 64<<10)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPointToPointAcrossRanks(t *testing.T) {
	cl := testCluster(t, 2, cluster.OSMcKernel, true)
	const n = 256 << 10
	_, err := RunJob(cl, 2, func(c *Comm) error {
		buf, err := c.MmapAnon(n)
		if err != nil {
			return err
		}
		next := (c.Rank + 1) % c.Size
		prev := (c.Rank - 1 + c.Size) % c.Size
		rr, err := c.Irecv(prev, 42, buf, n)
		if err != nil {
			return err
		}
		if err := c.Send(next, 42, buf, n); err != nil {
			return err
		}
		return c.Wait(rr)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProfileCapturesInitAndWait(t *testing.T) {
	cl := testCluster(t, 2, cluster.OSMcKernelHFI, true)
	res, err := RunJob(cl, 1, func(c *Comm) error {
		buf, err := c.MmapAnon(1 << 20)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank
		rr, err := c.Irecv(peer, 7, buf, 1<<20)
		if err != nil {
			return err
		}
		sr, err := c.Isend(peer, 7, buf, 1<<20)
		if err != nil {
			return err
		}
		if err := c.Wait(sr); err != nil {
			return err
		}
		return c.Wait(rr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MPI.Time("MPI_Init") < 2*cl.Params.MPIInitBase {
		t.Fatalf("MPI_Init time %v too small", res.MPI.Time("MPI_Init"))
	}
	if syscallCount(res.MPI, "MPI_Wait") != 4 {
		t.Fatalf("MPI_Wait count = %d", syscallCount(res.MPI, "MPI_Wait"))
	}
	// +HFI initialization must exceed what Linux would pay (Table 1's
	// MPI_Init observation): check the Pico extra is included.
	if res.MPI.Time("MPI_Init") < 2*(cl.Params.MPIInitBase+cl.Params.MPIInitPicoExtra) {
		t.Fatalf("MPI_Init %v does not include PicoDriver bootstrap", res.MPI.Time("MPI_Init"))
	}
}

func TestMPIInitOrderingAcrossOS(t *testing.T) {
	times := map[cluster.OSType]time.Duration{}
	for _, os := range cluster.AllOSTypes {
		cl := testCluster(t, 2, os, true)
		res, err := RunJob(cl, 1, func(c *Comm) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		times[os] = res.MPI.Time("MPI_Init")
	}
	if !(times[cluster.OSLinux] < times[cluster.OSMcKernel] &&
		times[cluster.OSMcKernel] < times[cluster.OSMcKernelHFI]) {
		t.Fatalf("MPI_Init ordering wrong: %v", times)
	}
}

func TestJobDeterminism(t *testing.T) {
	run := func() time.Duration {
		cl := testCluster(t, 2, cluster.OSMcKernel, true)
		res, err := RunJob(cl, 2, func(c *Comm) error {
			for i := 0; i < 3; i++ {
				if err := c.Allreduce(512 << 10); err != nil {
					return err
				}
				c.Compute(200 * time.Microsecond)
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic job: %v vs %v", a, b)
	}
}

// TestJobResultFirstFailureWins: rank 1 fails first with the cause, rank
// 0 fails later on a receive as a consequence; Result must report the
// cause. Scanning errors in rank order would report rank 0.
func TestJobResultFirstFailureWins(t *testing.T) {
	cl := testCluster(t, 2, cluster.OSLinux, false)
	cause := errors.New("rank 1 gave up")
	var consequence error
	_, err := RunJob(cl, 1, func(c *Comm) error {
		buf, err := c.MmapAnon(4096)
		if err != nil {
			return err
		}
		if c.Rank == 1 {
			if _, err := c.Isend(0, 7, buf, 4096); err != nil {
				return err
			}
			return cause
		}
		c.P.Sleep(100 * time.Microsecond)
		r, err := c.Irecv(1, 7, buf, 16)
		if err == nil {
			err = c.Wait(r)
		}
		consequence = err
		return consequence
	})
	if consequence == nil {
		t.Fatal("rank 0's truncated receive did not fail")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Result error = %v, want the first failure %v", err, cause)
	}
}

// syscallCount is name's invocation count in prof.
func syscallCount(prof *trace.SyscallProfile, name string) uint64 {
	for _, e := range prof.Top(0) {
		if e.Name == name {
			return e.Count
		}
	}
	return 0
}
