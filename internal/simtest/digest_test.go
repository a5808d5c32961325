package simtest

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestDigestCoversEveryCounter: the determinism digest folds the whole
// psm counter record, the fabric's congestion counters and every node's
// NIC and HCA state, so a CNP, a failover, an ECN mark or a dropped
// packet that differs between two runs cannot hide from Check.
func TestDigestCoversEveryCounter(t *testing.T) {
	// digest sends one raw packet 0→1 over a congested fabric (markFrac
	// decides whether it is ECN-marked; node 1 has no context open and
	// drops it), then folds the run with bump applied to the cluster and
	// to one endpoint's counters.
	digest := func(markFrac float64, bump func(*cluster.Cluster, *psm.Stats)) (string, fabric.CongStats) {
		cl, err := cluster.New(cluster.Spec{
			Nodes: 2, OS: cluster.OSLinux, Params: model.Default(), Seed: 1,
			Congestion: fabric.CongProfile{LinkBudget: 1 << 20, MarkFrac: markFrac},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Go(0, "send", func(p *sim.Proc) {
			pkt := cl.Fab.GetPacket()
			pkt.SrcNode, pkt.DstNode, pkt.DstCtx = 0, 1, 99
			pkt.Kind, pkt.Bytes = fabric.KindEager, 4096
			if err := cl.Fab.Send(p, pkt); err != nil {
				t.Error(err)
			}
		})
		if err := cl.Run(0); err != nil {
			t.Fatal(err)
		}
		ep := &psm.Endpoint{}
		bump(cl, &ep.Stats)
		d, err := traceDigest(cl, []*psm.Endpoint{ep}, nil, trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		return d, cl.Fab.CongStats()
	}
	none := func(*cluster.Cluster, *psm.Stats) {}

	base, cs := digest(0, none)
	if cs.Marks != 0 {
		t.Fatalf("MarkFrac 0 marked %d packets", cs.Marks)
	}
	for _, c := range []struct {
		field string
		bump  func(*cluster.Cluster, *psm.Stats)
	}{
		{"psm Stats.CnpsSent", func(_ *cluster.Cluster, s *psm.Stats) { s.CnpsSent++ }},
		{"psm Stats.Failovers", func(_ *cluster.Cluster, s *psm.Stats) { s.Failovers++ }},
		{"hfi NIC.RxDropped", func(cl *cluster.Cluster, _ *psm.Stats) { cl.Nodes[1].NIC.RxDropped++ }},
	} {
		if d, _ := digest(0, c.bump); d == base {
			t.Errorf("bumping %s left the digest unchanged", c.field)
		}
	}
	marked, cs := digest(1e-9, none)
	if cs.Marks != 1 {
		t.Fatalf("want the one packet ECN-marked, fabric counted %d marks", cs.Marks)
	}
	if marked == base {
		t.Error("an ECN mark left the digest unchanged")
	}
}
