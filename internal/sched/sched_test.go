package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/mpi"
)

func testCluster(t *testing.T, nodes int, cong fabric.CongProfile) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: nodes, OS: cluster.OSMcKernelHFI,
		Params: model.Default(), Seed: 7, Congestion: cong,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// streamBody returns a rank body where rank 0 sends count messages of
// size bytes to rank 1 (higher ranks idle at the barriers).
func streamBody(count int, size uint64) mpi.RankFunc {
	return func(c *mpi.Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		switch c.Rank {
		case 0:
			for i := 0; i < count; i++ {
				if err := c.EP.Send(c.P, 1, uint64(100+i), buf, size); err != nil {
					return err
				}
			}
		case 1:
			for i := 0; i < count; i++ {
				if err := c.EP.Recv(c.P, 0, uint64(100+i), buf, size); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func TestPlacementPolicies(t *testing.T) {
	cl := testCluster(t, 4, fabric.CongProfile{})
	s := New(cl)
	noop := func(c *mpi.Comm) error { return nil }

	if err := s.Submit(JobSpec{Name: "a", Tenant: "t0", Ranks: 2, Policy: Packed, Body: noop}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Place(2, 1, Packed); got[0] != 0 || got[1] != 1 {
		t.Fatalf("packed ignores load: second job also lands on nodes 0,1 (got %v)", got)
	}
	if got, _ := s.Place(2, 1, Spread); got[0] != 2 || got[1] != 3 {
		t.Fatalf("spread avoids loaded nodes: want [2 3], got %v", got)
	}
	if _, err := s.Place(5, 1, Packed); err == nil {
		t.Fatal("placing 5 single-rank nodes on a 4-node cluster should fail")
	}
	if got, _ := s.Place(4, 2, Packed); got[0] != 0 || got[1] != 0 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("ranksPerNode=2 packs pairs: want [0 0 1 1], got %v", got)
	}
}

func TestTwoJobsComplete(t *testing.T) {
	cl := testCluster(t, 2, fabric.CongProfile{})
	s := New(cl)
	if err := s.Submit(JobSpec{Name: "lat", Tenant: "latency", Ranks: 2, Policy: Packed,
		Body: streamBody(4, 1024)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Name: "bulk", Tenant: "bulk", Ranks: 2, Policy: Packed,
		Arrival: 5 * time.Microsecond, Body: streamBody(2, 32<<10)}); err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reports))
	}
	for _, r := range reports {
		if r.BytesSent == 0 {
			t.Errorf("job %q moved no bytes", r.Name)
		}
		if r.Res.Elapsed <= 0 {
			t.Errorf("job %q has non-positive elapsed %v", r.Name, r.Res.Elapsed)
		}
	}
	if reports[0].Tenant != "latency" || reports[1].Tenant != "bulk" {
		t.Errorf("reports lost their tenants: %q, %q", reports[0].Tenant, reports[1].Tenant)
	}
}

// TestFlowFairness drives two equal flows through one congested link
// and checks service converges within tolerance: equal offered load
// finishes in comparable time and each job moves every payload byte it
// offered — neither tenant starves the other.
func TestFlowFairness(t *testing.T) {
	cong := fabric.CongProfile{LinkBudget: 32 << 10, MarkFrac: 0.5}
	cl := testCluster(t, 2, cong)
	s := New(cl)
	const count, size = 24, 16 << 10
	for _, name := range []string{"f0", "f1"} {
		if err := s.Submit(JobSpec{Name: name, Tenant: name, Ranks: 2, Policy: Packed,
			Body: streamBody(count, size)}); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both jobs' rank 0 sit on node 0, rank 1 on node 1: their payload
	// shares the 0→1 link, and equal offered load must see equal service.
	if want := uint64(count * size); reports[0].BytesSent < want {
		t.Fatalf("job %q sent %d payload bytes, want >= %d", reports[0].Name, reports[0].BytesSent, want)
	}
	cs := cl.Fab.CongStats()
	if cs.Marks == 0 {
		t.Fatalf("two 16K-chunk flows through a 32K budget never marked ECN: %+v", cs)
	}
	if reports[0].BytesSent != reports[1].BytesSent {
		t.Fatalf("equal flows moved unequal bytes: %d vs %d", reports[0].BytesSent, reports[1].BytesSent)
	}
	e0, e1 := reports[0].Res.Elapsed, reports[1].Res.Elapsed
	lo, hi := e0, e1
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Fatalf("unfair service: elapsed %v vs %v (>1.5x apart)", e0, e1)
	}
}

// TestIncastDeterminism runs an N→1 incast twice on the same seed and
// checks per-job stats are identical, and that a different seed
// still yields identical placement (placement is seed-independent).
func TestIncastDeterminism(t *testing.T) {
	run := func() ([]JobReport, fabric.CongStats) {
		cong := fabric.CongProfile{LinkBudget: 24 << 10, IngressBudget: 32 << 10, MarkFrac: 0.5}
		cl := testCluster(t, 4, cong)
		s := New(cl)
		// Three senders (one per tenant) target ranks on node 0.
		for i := 0; i < 3; i++ {
			i := i
			body := func(c *mpi.Comm) error {
				buf, err := c.MmapAnon(8 << 10)
				if err != nil {
					return err
				}
				switch c.Rank {
				case 1:
					for m := 0; m < 12; m++ {
						if err := c.EP.Send(c.P, 0, uint64(200+m), buf, 8<<10); err != nil {
							return err
						}
					}
				case 0:
					for m := 0; m < 12; m++ {
						if err := c.EP.Recv(c.P, 1, uint64(200+m), buf, 8<<10); err != nil {
							return err
						}
					}
				}
				return nil
			}
			if err := s.Submit(JobSpec{Name: fmt.Sprintf("in%d", i), Tenant: fmt.Sprintf("t%d", i),
				Ranks: 2, Policy: Spread, Body: body}); err != nil {
				t.Fatal(err)
			}
		}
		reports, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return reports, cl.Fab.CongStats()
	}
	r1, cs1 := run()
	r2, cs2 := run()
	if cs1 != cs2 {
		t.Fatalf("incast congestion stats diverged across identical runs:\n%+v\n%+v", cs1, cs2)
	}
	for i := range r1 {
		if r1[i].BytesSent != r2[i].BytesSent || r1[i].Res.Elapsed != r2[i].Res.Elapsed {
			t.Fatalf("job %q diverged: run1 bytes=%d elapsed=%v, run2 bytes=%d elapsed=%v",
				r1[i].Name, r1[i].BytesSent, r1[i].Res.Elapsed, r2[i].BytesSent, r2[i].Res.Elapsed)
		}
	}
}

// TestCongestionBackoffEngages checks the PSM AIMD machinery actually
// fires under contention: ECN marks observed, CNPs exchanged, windows
// halved.
func TestCongestionBackoffEngages(t *testing.T) {
	cong := fabric.CongProfile{LinkBudget: 16 << 10, MarkFrac: 0.25}
	cl := testCluster(t, 2, cong)
	s := New(cl)
	var sender *mpi.Comm
	body := func(c *mpi.Comm) error {
		if c.Rank == 0 {
			sender = c
		}
		return streamBody(16, 8<<10)(c)
	}
	if err := s.Submit(JobSpec{Name: "solo", Tenant: "solo", Ranks: 2, Policy: Packed, Body: body}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cs := cl.Fab.CongStats()
	if cs.Marks == 0 {
		t.Fatalf("8K chunks through a 16K budget never marked: %+v", cs)
	}
	if sender == nil {
		t.Fatal("sender comm not captured")
	}
	pcs := sender.EP.Stats
	if pcs.CnpsRcvd == 0 || pcs.Backoffs == 0 {
		t.Fatalf("sender never backed off: %+v (fabric %+v)", pcs, cs)
	}
	if pcs.PaceSleeps == 0 {
		t.Fatalf("sender never paced after backoff: %+v", pcs)
	}
}
