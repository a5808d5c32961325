package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// pingPong is a rank body: rounds bounces of size bytes between rank 0
// and rank 1.
func pingPong(rounds int, size uint64) func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
	return func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			tag := uint64(100 + i)
			if rank == 0 {
				if err := ep.Send(p, 1, tag, buf, size); err != nil {
					return err
				}
				if err := ep.Recv(p, 1, tag, buf, size); err != nil {
					return err
				}
			} else {
				if err := ep.Recv(p, 0, tag, buf, size); err != nil {
					return err
				}
				if err := ep.Send(p, 0, tag, buf, size); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestRanksErrFirstFailureWins: rank 1 fails first with the cause, rank
// 0 fails later on a receive as a consequence; Err must report the
// cause. Keeping whichever error was assigned last would report rank 0.
func TestRanksErrFirstFailureWins(t *testing.T) {
	c, err := New(Spec{Nodes: 2, OS: OSLinux, Params: model.Default(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("rank 1 gave up")
	var consequence error
	ranks := c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		buf, err := ep.OS.MmapAnon(p, 4096)
		if err != nil {
			return err
		}
		if rank == 1 {
			if _, err := ep.Isend(p, 0, 7, buf, 4096); err != nil {
				return err
			}
			return cause
		}
		p.Sleep(100 * time.Microsecond)
		consequence = ep.Recv(p, 1, 7, buf, 16)
		return consequence
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if consequence == nil {
		t.Fatal("rank 0's truncated receive did not fail")
	}
	if got := ranks.Err(); got != cause {
		t.Fatalf("Err() = %v, want the first failure %v", got, cause)
	}
}

// TestRanksDrainOnLossyFabric: on a 5%-drop fabric no rank leaves Drain
// before every rank's flows are idle, so closing the endpoint right
// after never strands a peer's retransmission on a torn-down context.
func TestRanksDrainOnLossyFabric(t *testing.T) {
	c, err := New(Spec{Nodes: 2, OS: OSLinux, Params: model.Default(), Seed: 9,
		Faults: fabric.FaultProfile{LinkFaults: fabric.LinkFaults{Drop: 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	body := pingPong(40, 32<<10)
	var ranks *Ranks
	ranks = c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		if err := body(p, rank, ep); err != nil {
			return err
		}
		if err := ranks.Drain(p, ep); err != nil {
			return err
		}
		for peer, pe := range ranks.Endpoints() {
			if !pe.FlowsIdle() {
				t.Errorf("rank %d left Drain at %v with rank %d not quiesced", rank, p.Now(), peer)
			}
		}
		return ep.Close(p)
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Fab.FaultStats().Dropped == 0 {
		t.Fatal("the fabric dropped nothing; the drain was not exercised")
	}
	for _, n := range c.Nodes {
		if n.NIC.RxDropped != 0 {
			t.Errorf("node %d NIC dropped %d packets for a closed context", n.ID, n.NIC.RxDropped)
		}
	}
}

// TestRanksDrainReturnsAtOnceOnQuietFabric: on a loss-free, uncongested
// fabric no peer sends a rank anything once its own operations are
// done, so a rank that drains while its peer is still busy leaves Drain
// at the instant it entered, without waiting for the peer.
func TestRanksDrainReturnsAtOnceOnQuietFabric(t *testing.T) {
	c, err := New(Spec{Nodes: 2, OS: OSLinux, Params: model.Default(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const busy = 200 * time.Microsecond
	var ranks *Ranks
	ranks = c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		if rank == 1 {
			p.Sleep(busy)
			return ranks.Drain(p, ep)
		}
		in := p.Now()
		if err := ranks.Drain(p, ep); err != nil {
			return err
		}
		if out := p.Now(); out != in {
			t.Errorf("rank 0 entered Drain at %v and left at %v, with rank 1 busy until %v", in, out, in+busy)
		}
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRanksShardCountInvariant: the same two-rank body, teardown
// included, ends with the same endpoint counters at the same virtual
// time on one engine and on two shards.
func TestRanksShardCountInvariant(t *testing.T) {
	run := func(shards int) ([]psm.Stats, time.Duration) {
		c, err := New(Spec{Nodes: 2, OS: OSMcKernelHFI, Params: model.Default(), Seed: 5,
			Synthetic: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		body := pingPong(4, 256<<10)
		var ranks *Ranks
		ranks = c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
			if err := body(p, rank, ep); err != nil {
				return err
			}
			return ranks.Drain(p, ep)
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if err := ranks.Err(); err != nil {
			t.Fatal(err)
		}
		var stats []psm.Stats
		for _, ep := range ranks.Endpoints() {
			stats = append(stats, ep.Stats)
		}
		return stats, c.Now()
	}
	stats1, now1 := run(1)
	stats2, now2 := run(2)
	if now1 != now2 {
		t.Errorf("finished at %v on one engine, %v on two shards", now1, now2)
	}
	for r := range stats1 {
		if stats1[r] != stats2[r] {
			t.Errorf("rank %d stats differ:\n  shards=1 %+v\n  shards=2 %+v", r, stats1[r], stats2[r])
		}
	}
}

// TestStartRanksDoesNotRun: StartRanks only schedules. The clock is
// still at zero, and a snapshot taken before Run restores onto an
// identically built machine, which then finishes at the same time.
func TestStartRanksDoesNotRun(t *testing.T) {
	build := func() (*Cluster, *Ranks) {
		c, err := New(Spec{Nodes: 2, OS: OSMcKernel, Params: model.Default(), Seed: 8, Synthetic: true})
		if err != nil {
			t.Fatal(err)
		}
		return c, c.StartRanks("rank", []int{0, 1}, nil, pingPong(2, 64<<10))
	}
	a, ranksA := build()
	if now := a.Now(); now != 0 {
		t.Fatalf("StartRanks advanced the clock to %v", now)
	}
	if ranksA.Endpoints()[0] != nil {
		t.Fatal("StartRanks opened an endpoint before Run")
	}
	var snap bytes.Buffer
	if err := a.Machine().Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	b, ranksB := build()
	if _, err := snapshot.Restore(snap.Bytes(), b.Machine()); err != nil {
		t.Fatalf("restore of the pre-run snapshot: %v", err)
	}
	for _, c := range []*Cluster{a, b} {
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(ranksA.Err(), ranksB.Err()); err != nil {
		t.Fatal(err)
	}
	if a.Now() == 0 || a.Now() != b.Now() {
		t.Fatalf("straight run finished at %v, restored run at %v", a.Now(), b.Now())
	}
}

// TestCrossShardAllocs: once warm, a packet routed from one shard to
// another allocates nothing, neither for its delivery event nor in the
// barrier that merges each window's cross-shard batch. Two nodes on two
// shards bounce 1 KB messages, so every packet of a round trip crosses.
// Rank 0 counts allocations per round trip, which must be 0, and checks
// that each round trip really made at least two cross-shard deliveries.
func TestCrossShardAllocs(t *testing.T) {
	const size = 1 << 10
	const runs = 50
	c, err := New(Spec{Nodes: 2, OS: OSMcKernelHFI, Params: model.Default(), Seed: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ranks := c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		bounce := func(peer int) {
			if err == nil && rank == 0 {
				err = ep.Send(p, peer, 1, buf, size)
			}
			if err == nil {
				err = ep.Recv(p, peer, 1, buf, size)
			}
			if err == nil && rank == 1 {
				err = ep.Send(p, peer, 1, buf, size)
			}
		}
		if rank == 1 {
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up, then its runs
				bounce(0)
			}
			return err
		}
		before := c.Set.CrossEvents
		if got := testing.AllocsPerRun(runs, func() { bounce(1) }); got != 0 {
			t.Errorf("%v allocations per round trip across shards, want 0", got)
		}
		if crossed := c.Set.CrossEvents - before; crossed < 2*(runs+1) {
			t.Errorf("%d cross-shard deliveries in %d round trips, want at least 2 each", crossed, runs+1)
		}
		return err
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Err(); err != nil {
		t.Fatal(err)
	}
}
