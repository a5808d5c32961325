package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
)

// congCluster is a two-node McKernel+HFI1 cluster whose fabric runs the
// given congestion-control profile.
func congCluster(t *testing.T, cong fabric.CongProfile) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: cluster.OSMcKernelHFI,
		Params: model.Default(), Seed: 7, Congestion: cong,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// streamBody returns a rank body where rank 0 sends count messages of
// size bytes to rank 1.
func streamBody(count int, size uint64) RankFunc {
	return func(c *Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			tag := uint64(100 + i)
			if c.Rank == 0 {
				err = c.EP.Send(c.P, 1, tag, buf, size)
			} else {
				err = c.EP.Recv(c.P, 0, tag, buf, size)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// TestFlowFairness drives two equal flows through one congested link
// and checks service converges within tolerance: equal offered load
// finishes in comparable time and each job moves every payload byte it
// offered — neither job starves the other.
func TestFlowFairness(t *testing.T) {
	cl := congCluster(t, fabric.CongProfile{LinkBudget: 32 << 10, MarkFrac: 0.5})
	const count, size = 24, 16 << 10
	// Both jobs' rank 0 sit on node 0, rank 1 on node 1: their payload
	// shares the 0→1 link.
	var jobs []*JobHandle
	for _, name := range []string{"f0", "f1"} {
		jobs = append(jobs, StartJob(cl, JobSpec{Name: name, Placement: []int{0, 1}, Body: streamBody(count, size)}))
	}
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	var sent [2]uint64
	var elapsed [2]float64
	for i, h := range jobs {
		res, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range h.Comms() {
			sent[i] += c.EP.Stats.BytesSent
		}
		elapsed[i] = float64(res.Elapsed)
	}
	if want := uint64(count * size); sent[0] < want {
		t.Fatalf("job f0 sent %d payload bytes, want >= %d", sent[0], want)
	}
	if cs := cl.Fab.CongStats(); cs.Marks == 0 {
		t.Fatalf("two 16K-chunk flows through a 32K budget never marked ECN: %+v", cs)
	}
	if sent[0] != sent[1] {
		t.Fatalf("equal flows moved unequal bytes: %d vs %d", sent[0], sent[1])
	}
	if lo, hi := min(elapsed[0], elapsed[1]), max(elapsed[0], elapsed[1]); hi > 1.5*lo {
		t.Fatalf("unfair service: elapsed %v vs %v ns (>1.5x apart)", elapsed[0], elapsed[1])
	}
}

// TestCongestionBackoffEngages checks the PSM AIMD machinery actually
// fires under contention: ECN marks observed, CNPs exchanged, windows
// halved.
func TestCongestionBackoffEngages(t *testing.T) {
	cl := congCluster(t, fabric.CongProfile{LinkBudget: 16 << 10, MarkFrac: 0.25})
	h := StartJob(cl, JobSpec{Placement: []int{0, 1}, Body: streamBody(16, 8<<10)})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
	cs := cl.Fab.CongStats()
	if cs.Marks == 0 {
		t.Fatalf("8K chunks through a 16K budget never marked: %+v", cs)
	}
	pcs := h.Comms()[0].EP.Stats
	if pcs.CnpsRcvd == 0 || pcs.Backoffs == 0 {
		t.Fatalf("sender never backed off: %+v (fabric %+v)", pcs, cs)
	}
	if pcs.PaceSleeps == 0 {
		t.Fatalf("sender never paced after backoff: %+v", pcs)
	}
}
