package psm_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/psm"
	"repro/internal/sim"
)

// TestRetainedChunksBalance: every retained chunk an endpoint makes goes
// back to its free list with no holds once the ranks have drained. The
// fabric drops, corrupts and reorders, and the data link from rank 0
// duplicates every packet, so each chunk has two copies in flight per
// send. An ACK lands under a running go-back-N round at least once, so
// chunks retired under a round are released by the round's end. (A
// NAK-triggered round runs in the rank's own process, which handles the
// next ACK only after the round; the one that overlaps an ACK is a
// timer-driven round, run by the retransmit daemon.) Every bounce must
// come back byte-exact.
func TestRetainedChunksBalance(t *testing.T) {
	lf := fabric.LinkFaults{Drop: 0.04, Corrupt: 0.02, Reorder: 0.1, ReorderDelay: 2 * time.Microsecond}
	dup := lf
	dup.Dup = 1
	fp := fabric.FaultProfile{
		LinkFaults: lf,
		PerLink:    map[fabric.LinkID]fabric.LinkFaults{{Src: 0, Dst: 1}: dup},
		Seed:       27,
	}
	cl, err := cluster.New(cluster.Spec{Nodes: 2, OS: cluster.OSLinux, Seed: 21, Params: model.Default(), Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sizes := []uint64{2 << 10, 12 << 10, 32 << 10}
	const iters = 6
	var rs *cluster.Ranks
	rs = cl.StartRanks("r", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		proc := ep.OS.Proc()
		buf, err := ep.OS.MmapAnon(p, 32<<10)
		if err != nil {
			return err
		}
		for it := 0; it < iters; it++ {
			for si, size := range sizes {
				tag := uint64(100*it + si)
				want := pattern(tag, size)
				if rank == 0 {
					if err := proc.WriteAt(buf, want); err != nil {
						return err
					}
					if err := ep.Send(p, 1, tag, buf, size); err != nil {
						return err
					}
					if err := proc.WriteAt(buf, make([]byte, size)); err != nil {
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
				got := make([]byte, size)
				if err := proc.ReadAt(buf, got); err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					t.Errorf("rank %d: bounce of tag %d (%d bytes) arrived corrupt", rank, tag, size)
				}
			}
		}
		return rs.Drain(p, ep)
	})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if fs := cl.Fab.FaultStats(); fs.Dropped == 0 || fs.Corrupted == 0 || fs.Reordered == 0 || fs.Duplicated == 0 {
		t.Fatalf("fabric did not inject every fault kind: %+v", fs)
	}
	midRound := 0
	for _, ep := range rs.Endpoints() {
		if psm.ChunksMade(ep) == 0 {
			t.Errorf("rank %d retained no chunks: the test no longer exercises them", ep.Rank)
		}
		if !ep.FlowsIdle() {
			t.Errorf("rank %d: flows not idle after Drain", ep.Rank)
		}
		if err := ep.CheckRetained(); err != nil {
			t.Error(err)
		}
		if err := pool.Balance(ep.Pools()...); err != nil {
			t.Errorf("rank %d: %v", ep.Rank, err)
		}
		midRound += psm.MidRoundAcks(ep)
	}
	if midRound == 0 {
		t.Error("no ACK landed during a go-back-N round: the test no longer exercises a detached resend set")
	}
}
