package psm_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// lossyPair boots a 2-node cluster with the given fault profile and runs
// body on both ranks.
func lossyPair(t *testing.T, fp fabric.FaultProfile, body func(p *sim.Proc, rank int, ep *psm.Endpoint)) (*cluster.Cluster, []*psm.Endpoint) {
	t.Helper()
	return lossyPairOn(t, fp, model.Default(), body)
}

// lossyPairOn is lossyPair with explicit model parameters (e.g. for
// dual-rail configurations).
func lossyPairOn(t *testing.T, fp fabric.FaultProfile, pr model.Params, body func(p *sim.Proc, rank int, ep *psm.Endpoint)) (*cluster.Cluster, []*psm.Endpoint) {
	t.Helper()
	return runPair(t, cluster.Spec{Params: pr, Faults: fp}, body)
}

// pattern generates the deterministic payload for one message.
func pattern(tag, size uint64) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(uint64(k)*2654435761 + tag*97)
	}
	return b
}

type lossyResult struct {
	stats  [2]psm.Stats
	fstats fabric.FaultStats
	now    time.Duration
}

// runLossyTransfers pushes iters rounds of every size from rank 0 to
// rank 1 under the profile, verifying each delivered payload against the
// generator, then drains both endpoints.
func runLossyTransfers(t *testing.T, fp fabric.FaultProfile, sizes []uint64, iters int) lossyResult {
	t.Helper()
	return runLossyTransfersOn(t, fp, model.Default(), sizes, iters)
}

// runLossyTransfersOn is runLossyTransfers with explicit model params.
func runLossyTransfersOn(t *testing.T, fp fabric.FaultProfile, pr model.Params, sizes []uint64, iters int) lossyResult {
	t.Helper()
	var max uint64
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	cl, eps := lossyPairOn(t, fp, pr, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		proc := ep.OS.Proc()
		buf, err := ep.OS.MmapAnon(p, max)
		if err != nil {
			t.Error(err)
			return
		}
		for it := 0; it < iters; it++ {
			for si, size := range sizes {
				tag := uint64(1000 + it*100 + si)
				if rank == 0 {
					if err := proc.WriteAt(buf, pattern(tag, size)); err != nil {
						t.Error(err)
						return
					}
					if err := ep.Send(p, 1, tag, buf, size); err != nil {
						t.Errorf("send tag %d size %d: %v", tag, size, err)
						return
					}
				} else {
					if err := ep.Recv(p, 0, tag, buf, size); err != nil {
						t.Errorf("recv tag %d size %d: %v", tag, size, err)
						return
					}
					got := make([]byte, size)
					if err := proc.ReadAt(buf, got); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, pattern(tag, size)) {
						t.Errorf("payload mismatch: tag %d size %d", tag, size)
						return
					}
				}
			}
		}
		// Closing pong keeps both ranks progressing while the final
		// ACK/FIN exchange drains.
		if rank == 0 {
			if err := ep.Recv(p, 1, 9999, buf, 16); err != nil {
				t.Error(err)
			}
		} else {
			if err := ep.Send(p, 0, 9999, buf, 16); err != nil {
				t.Error(err)
			}
		}
		if err := ep.Quiesce(p); err != nil {
			t.Error(err)
		}
	})
	res := lossyResult{fstats: cl.Fab.FaultStats(), now: cl.Now()}
	for i, ep := range eps {
		if ep != nil {
			res.stats[i] = ep.Stats
		}
	}
	return res
}

// TestLossyByteIdentity drives every transfer mode (single-chunk PIO,
// multi-chunk PIO, eager SDMA, rendezvous) over a fabric that drops,
// duplicates and reorders, and requires byte-identical delivery.
func TestLossyByteIdentity(t *testing.T) {
	fp := fabric.FaultProfile{
		LinkFaults: fabric.LinkFaults{
			Drop: 0.05, Dup: 0.02, Reorder: 0.1, ReorderDelay: 2 * time.Microsecond,
		},
		Seed: 77,
	}
	sizes := []uint64{2 << 10, 12 << 10, 32 << 10, 200 << 10}
	res := runLossyTransfers(t, fp, sizes, 3)
	recovered := res.stats[0].Retransmits + res.stats[0].Timeouts + res.stats[0].MsgResends +
		res.stats[1].Retransmits + res.stats[1].Timeouts + res.stats[1].MsgResends +
		res.stats[1].NaksSent
	if res.fstats.Dropped == 0 {
		t.Fatalf("fabric injected no drops: %+v", res.fstats)
	}
	if recovered == 0 {
		t.Fatalf("no recovery activity despite loss: %+v", res.stats)
	}
	if res.stats[1].AcksSent == 0 {
		t.Fatal("receiver sent no ACKs")
	}
}

// TestLossyDeterminism: the same seed must replay the identical fault
// pattern, recovery schedule and final virtual time.
func TestLossyDeterminism(t *testing.T) {
	fp := fabric.FaultProfile{
		LinkFaults: fabric.LinkFaults{Drop: 0.03, Dup: 0.03, Reorder: 0.05, ReorderDelay: time.Microsecond},
		Seed:       123,
	}
	sizes := []uint64{4 << 10, 32 << 10, 150 << 10}
	a := runLossyTransfers(t, fp, sizes, 2)
	b := runLossyTransfers(t, fp, sizes, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed reruns diverged:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestDupHeavyNoDuplicateDelivery floods the link with duplicates and
// reordering: every message must still be delivered exactly once.
func TestDupHeavyNoDuplicateDelivery(t *testing.T) {
	fp := fabric.FaultProfile{
		LinkFaults: fabric.LinkFaults{
			Drop: 0.1, Dup: 0.5, Reorder: 0.2, ReorderDelay: 2 * time.Microsecond,
		},
		Seed: 31,
	}
	sizes := []uint64{1 << 10, 1 << 10, 1 << 10, 32 << 10, 200 << 10}
	res := runLossyTransfers(t, fp, sizes, 2)
	wantRecvs := uint64(len(sizes)*2) + 0 // 2 iters of each size
	if res.stats[1].Recvs != wantRecvs {
		t.Fatalf("receiver completed %d receives, want %d", res.stats[1].Recvs, wantRecvs)
	}
	if res.fstats.Duplicated == 0 {
		t.Fatalf("fabric injected no duplicates: %+v", res.fstats)
	}
}

// TestRetransmitBackoffSchedule pins the one expiry policy for every
// state machine that shares the recovery timer. Each row starves one
// kind — a go-back-N flow, an eager-SDMA send awaiting its FIN, a
// rendezvous window awaiting its data — and checks the exact schedule
// against the virtual clock: the machine must die with a
// RetryBudgetError naming it after PSMMaxRetries charged firings, the
// waits doubling from PSMRtoBase and capping at PSMRtoMax.
func TestRetransmitBackoffSchedule(t *testing.T) {
	pr := model.Default()
	// Expected silent waits: one per expiration, the last of which
	// exhausts the budget.
	want := time.Duration(0)
	rto := pr.PSMRtoBase
	for i := 0; i <= pr.PSMMaxRetries; i++ {
		want += rto
		rto *= 2
		if rto > pr.PSMRtoMax {
			rto = pr.PSMRtoMax
		}
	}
	for _, tc := range []struct {
		what string
		fp   fabric.FaultProfile
		size uint64
		// dies is the rank whose request the starved machine fails;
		// recv: rank 1 posts the matching receive and rank 0 keeps
		// polling (and ACKing) until it has failed.
		dies int
		recv bool
	}{
		// Everything black-holed: a PIO send's flow never sees an ACK.
		{what: "flow", size: 1024, dies: 0,
			fp: fabric.FaultProfile{LinkFaults: fabric.LinkFaults{Drop: 1}, Seed: 5}},
		// One-way black hole: the SDMA original and every PIO replay are
		// lost, so the FIN never comes. The replays' flow starves too, but
		// it was armed one rto later and dies second.
		{what: "eager-fin", size: 32 << 10, dies: 0,
			fp: fabric.FaultProfile{PerLink: map[fabric.LinkID]fabric.LinkFaults{{Src: 0, Dst: 1}: {Drop: 1}}, Seed: 11}},
		// Loss-free wire, but the sender's window writev fails terminally:
		// the receiver re-CTSes (each one ACKed by the still-polling
		// sender, so its flow stays healthy) for data that never comes.
		{what: "rdv-window", size: 200 << 10, dies: 1, recv: true,
			fp: fabric.FaultProfile{SDMAErr: 1, SDMANoDegrade: true, Seed: 3}},
	} {
		t.Run(tc.what, func(t *testing.T) {
			var died error
			var elapsed time.Duration
			receiverDone := false
			_, eps := lossyPair(t, tc.fp, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
				if rank == 1 && !tc.recv {
					return
				}
				buf, err := ep.OS.MmapAnon(p, tc.size)
				if err != nil {
					t.Error(err)
					return
				}
				t0 := p.Now()
				if rank == 0 {
					err = ep.Send(p, 1, 1, buf, tc.size)
				} else {
					err = ep.Recv(p, 0, 1, buf, tc.size)
					receiverDone = true
				}
				if rank == tc.dies {
					died, elapsed = err, p.Now()-t0
				}
				for rank == 0 && tc.recv && !receiverDone {
					if _, err := ep.Progress(p); err != nil {
						t.Error(err)
						return
					}
					p.Sleep(time.Microsecond)
				}
				if tc.what != "flow" {
					return
				}
				// A dead flow rejects immediately, without a fresh budget.
				t1 := p.Now()
				var rbe *psm.RetryBudgetError
				if err := ep.Send(p, 1, 2, buf, tc.size); !errors.As(err, &rbe) {
					t.Errorf("second send error = %v, want *RetryBudgetError", err)
				}
				if d := p.Now() - t1; d > 50*time.Microsecond {
					t.Errorf("second send blocked %v on a dead flow", d)
				}
			})
			var rbe *psm.RetryBudgetError
			if !errors.As(died, &rbe) {
				t.Fatalf("rank %d error = %v, want *RetryBudgetError", tc.dies, died)
			}
			if rbe.What != tc.what || rbe.Peer != 1-tc.dies || rbe.Retries != pr.PSMMaxRetries {
				t.Errorf("error detail = %+v", rbe)
			}
			if elapsed < want || elapsed > want+500*time.Microsecond {
				t.Errorf("%s died after %v, want backoff schedule sum %v", tc.what, elapsed, want)
			}
			// Exactly PSMMaxRetries firings were charged before the one
			// that found the budget spent.
			s := eps[tc.dies].Stats
			fired := s.MsgResends
			if tc.what == "flow" {
				fired = s.Retransmits // one unacked packet per go-back-N round
			}
			if fired != uint64(pr.PSMMaxRetries) {
				t.Errorf("%s fired %d times, want %d: %+v", tc.what, fired, pr.PSMMaxRetries, s)
			}
			if tc.what != "eager-fin" && s.Timeouts != uint64(pr.PSMMaxRetries)+1 {
				t.Errorf("timeouts = %d, want %d", s.Timeouts, pr.PSMMaxRetries+1)
			}
		})
	}
}

// TestEagerSDMABlackholeFails: an eager-SDMA send toward a one-way
// black hole (data and PIO replays all lost, reverse path fine) must
// surface a typed retry-budget error rather than hang or kill the sim.
func TestEagerSDMABlackholeFails(t *testing.T) {
	fp := fabric.FaultProfile{
		PerLink: map[fabric.LinkID]fabric.LinkFaults{
			{Src: 0, Dst: 1}: {Drop: 1},
		},
		Seed: 11,
	}
	lossyPair(t, fp, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		if rank != 0 {
			return
		}
		buf, err := ep.OS.MmapAnon(p, 32<<10)
		if err != nil {
			t.Error(err)
			return
		}
		err = ep.Send(p, 1, 7, buf, 32<<10)
		var rbe *psm.RetryBudgetError
		if !errors.As(err, &rbe) {
			t.Errorf("send error = %v, want *RetryBudgetError", err)
		}
	})
}

// TestSDMAErrorSurfaced: with degradation disabled, an SDMA error
// completion on a rendezvous window is terminal and surfaces as a typed
// SDMAError on the send request via the CQ error completion. (Eager
// SDMA sends instead fail over to PIO; see TestEagerSDMAErrorFailsOver.)
func TestSDMAErrorSurfaced(t *testing.T) {
	fp := fabric.FaultProfile{SDMAErr: 1, SDMANoDegrade: true, Seed: 3}
	lossyPair(t, fp, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, 200<<10)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 1 {
			// The receiver must post a matching Recv so the CTS flows
			// and the doomed SDMA writev is actually issued; once the
			// sender dies its rendezvous window budget exhausts too.
			if err := ep.Recv(p, 0, 4, buf, 200<<10); err == nil {
				t.Error("recv completed despite terminal SDMA error on sender")
			}
			return
		}
		err = ep.Send(p, 1, 4, buf, 200<<10)
		var se *psm.SDMAError
		if !errors.As(err, &se) {
			t.Errorf("send error = %v, want *SDMAError", err)
		}
	})
}

// TestEagerSDMAErrorFailsOver: eager-SDMA sends hitting hard SDMA error
// completions (degradation disabled) must not fail; the health machine
// accumulates strikes, fails the endpoint over to the PIO/slow path and
// every payload still arrives byte-identical.
func TestEagerSDMAErrorFailsOver(t *testing.T) {
	fp := fabric.FaultProfile{SDMAErr: 1, SDMANoDegrade: true, Seed: 3}
	res := runLossyTransfers(t, fp, []uint64{32 << 10}, 3)
	if res.stats[0].SendsEagerSDMA == 0 {
		t.Fatalf("no eager-SDMA sends attempted: %+v", res.stats[0])
	}
	if res.stats[0].SDMAStrikes == 0 {
		t.Fatalf("no SDMA strikes recorded: %+v", res.stats[0])
	}
	if res.stats[0].Failovers == 0 {
		t.Fatalf("health machine never failed over: %+v", res.stats[0])
	}
}

// TestSDMADegradeDelivers: with degradation enabled, aborted SDMA
// transactions fall back to driver PIO chunks and the payload still
// arrives byte-identical, for both eager SDMA and rendezvous.
func TestSDMADegradeDelivers(t *testing.T) {
	fp := fabric.FaultProfile{SDMAErr: 0.6, Seed: 9}
	res := runLossyTransfers(t, fp, []uint64{32 << 10, 200 << 10}, 2)
	if res.stats[0].SendsEagerSDMA != 2 || res.stats[0].SendsRdv != 2 {
		t.Fatalf("unexpected send mix: %+v", res.stats[0])
	}
}

// TestLinkDownFreezesRetryBudget: a link outage that outlasts the whole
// exponential-backoff budget (~15ms for the default parameters; the
// window here is 30ms) must NOT burn the flow's retry budget. The
// health machine observes the down oracle, freezes the budget while the
// path is down, and the transfer completes once the link returns. The
// contrasting case — link up but peer silently dead — still exhausts the
// budget on schedule (TestRetransmitBackoffSchedule).
func TestLinkDownFreezesRetryBudget(t *testing.T) {
	const outage = 30 * time.Millisecond
	fp := fabric.FaultProfile{
		Down: []fabric.DownWindow{
			{Src: 0, Dst: 1, From: 0, Until: outage},
			{Src: 1, Dst: 0, From: 0, Until: outage},
		},
		Seed: 13,
	}
	pr := model.Default()
	for _, tc := range []struct {
		what string
		size uint64
	}{
		{"flow", 8 << 10},
		// An eager-SDMA send whose original dies in the outage: only its
		// eager-fin timer is armed (the flow carries nothing until the
		// first replay), so every freeze is the message timer's.
		{"eager-fin", 32 << 10},
	} {
		t.Run(tc.what, func(t *testing.T) {
			res := runLossyTransfers(t, fp, []uint64{tc.size}, 1)
			if res.stats[0].Freezes == 0 {
				t.Fatalf("budget never frozen during outage: %+v", res.stats[0])
			}
			if got := res.stats[0].Timeouts; got >= uint64(pr.PSMMaxRetries) {
				t.Fatalf("outage burned %d timeouts against a budget of %d", got, pr.PSMMaxRetries)
			}
			if res.now < outage {
				t.Fatalf("transfer finished at %v, inside the %v outage", res.now, outage)
			}
		})
	}
}

// TestDualRailFailover: with a second rail configured, a rail-0 outage
// longer than the retransmit timer must trigger a rail switch (strike →
// fail over to rail 1), deliver every payload byte-identical, and fall
// back to rail 0 once the probe sees the outage end.
func TestDualRailFailover(t *testing.T) {
	pr := model.Default()
	pr.DualRail = true
	fp := fabric.FaultProfile{
		Down: []fabric.DownWindow{
			{Src: 0, Dst: 1, From: 0, Until: 2 * time.Millisecond},
			{Src: 1, Dst: 0, From: 0, Until: 2 * time.Millisecond},
		},
		Seed: 17,
	}
	res := runLossyTransfersOn(t, fp, pr, []uint64{4 << 10, 32 << 10}, 3)
	f := res.stats[0]
	if f.LinkStrikes == 0 {
		t.Fatalf("no link strikes recorded: %+v", f)
	}
	if f.RailSwitches == 0 {
		t.Fatalf("no rail switch despite a healthy spare: %+v", f)
	}
	if f.Failovers == 0 {
		t.Fatalf("health machine never failed over: %+v", f)
	}
	if f.Fallbacks == 0 {
		t.Fatalf("never fell back to rail 0 after the outage: %+v", f)
	}
}

// TestSnapshotNamesRetransmitAlarm: the retransmit daemon's alarm is an
// event carrying the endpoint's retransmit condition, so a snapshot of
// a lossy pair with a timer armed names it by its argument.
func TestSnapshotNamesRetransmitAlarm(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{Nodes: 2, OS: cluster.OSLinux, Seed: 21, Params: model.Default(),
		Faults: fabric.FaultProfile{LinkFaults: fabric.LinkFaults{Drop: 0.02}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const size = 4 << 10
	var rs *cluster.Ranks
	rs = cl.StartRanks("r", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		for i := uint64(0); i < 8; i++ {
			if rank == 0 {
				err = ep.Send(p, 1, i, buf, size)
			} else {
				err = ep.Recv(p, 0, i, buf, size)
			}
			if err != nil {
				return err
			}
		}
		return rs.Drain(p, ep)
	})
	// Run(at) stops short of at only once the machine has drained.
	for at := time.Microsecond; cl.Now() == at-time.Microsecond; at += time.Microsecond {
		if err := cl.Run(at); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cl.Machine().Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(f.Section("engine")), " arg=*sim.Cond\n") {
			return
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("no snapshot of the lossy pair named a pending arg=*sim.Cond alarm")
}
