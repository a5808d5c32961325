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
// psm counter record and the fabric's congestion counters, so a CNP, a
// failover or an ECN mark that differs between two runs cannot hide
// from Check.
func TestDigestCoversEveryCounter(t *testing.T) {
	// digest sends one raw packet 0→1 over a congested fabric (markFrac
	// decides whether it is ECN-marked; node 1 has no context open and
	// drops it), then folds the run with one endpoint's counters bumped.
	digest := func(markFrac float64, bump func(*psm.Stats)) (string, fabric.CongStats) {
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
		bump(&ep.Stats)
		return traceDigest(cl, []*psm.Endpoint{ep}, nil, trace.NewRecorder()), cl.Fab.CongStats()
	}

	base, cs := digest(0, func(*psm.Stats) {})
	if cs.Marks != 0 {
		t.Fatalf("MarkFrac 0 marked %d packets", cs.Marks)
	}
	for _, c := range []struct {
		field string
		bump  func(*psm.Stats)
	}{
		{"CnpsSent", func(s *psm.Stats) { s.CnpsSent++ }},
		{"Failovers", func(s *psm.Stats) { s.Failovers++ }},
	} {
		if d, _ := digest(0, c.bump); d == base {
			t.Errorf("bumping psm Stats.%s left the digest unchanged", c.field)
		}
	}
	marked, cs := digest(1e-9, func(*psm.Stats) {})
	if cs.Marks != 1 {
		t.Fatalf("want the one packet ECN-marked, fabric counted %d marks", cs.Marks)
	}
	if marked == base {
		t.Error("an ECN mark left the digest unchanged")
	}
}
