package fabric

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

func TestAttachRejectsDuplicates(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	first, second := 0, 0
	if _, err := f.Attach(0, func(*Packet) { first++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(0, func(*Packet) { second++ }); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if _, err := f.Attach(1, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	// The refused attach left node 0's first port in place.
	e.Go("sender", func(p *sim.Proc) {
		if err := f.Send(p, &Packet{SrcNode: 1, DstNode: 0, Bytes: 64}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 0 {
		t.Fatalf("deliveries: first port %d, refused port %d; want 1, 0", first, second)
	}
}

func TestSendLatencyAndSerialization(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	var arrivals []time.Duration
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1, func(p *Packet) { arrivals = append(arrivals, e.Now()) }); err != nil {
		t.Fatal(err)
	}
	const bytes = 1 << 20
	wire := pr.WireTime(bytes)
	e.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 1, Bytes: bytes}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Packet i arrives at (i+1)*wire + latency: egress serializes.
	for i, at := range arrivals {
		want := time.Duration(i+1)*wire + pr.LinkLatency
		if at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

func TestEgressSharedBetweenSenders(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	got := 0
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1, func(*Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		e.Go("s", func(p *sim.Proc) {
			if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 1, Bytes: 1 << 20}); err != nil {
				t.Error(err)
			}
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("delivered %d", got)
	}
	if finish[0] == finish[1] {
		t.Fatal("two senders shared the egress link without serialization")
	}
}

func TestSendUnknownNodes(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	e.Go("s", func(p *sim.Proc) {
		if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 9}); err == nil {
			t.Error("send to unattached node accepted")
		}
		if err := f.Send(p, &Packet{SrcNode: 9, DstNode: 0}); err == nil {
			t.Error("send from unattached node accepted")
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadSetsBytes(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	var gotBytes uint64
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1, func(p *Packet) { gotBytes = p.Bytes }); err != nil {
		t.Fatal(err)
	}
	port0 := f.ports[0]
	e.Go("s", func(p *sim.Proc) {
		if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 1, Payload: make([]byte, 777)}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if gotBytes != 777 {
		t.Fatalf("bytes = %d", gotBytes)
	}
	if port0.TxBytes != 777 || port0.TxPackets != 1 {
		t.Fatalf("tx stats = %d/%d", port0.TxBytes, port0.TxPackets)
	}
}

// TestTransmitIsSend: six packets sent by a process with Send, and the
// same six sent from events with Transmit, schedule alike while a
// rival process contends for the egress port and for a credit budget
// that stalls both: the same arrivals, stalls and marks, and the same
// (Now, Seq) at every step. Transmit reports what Send would return
// through Err.
func TestTransmitIsSend(t *testing.T) {
	run := func(events bool) string {
		e := sim.NewEngine(1)
		defer e.Close()
		pr := model.Default()
		f := New(e, &pr)
		f.SetCongestion(&CongProfile{LinkBudget: 3 << 12, MarkFrac: 0.5})
		var log []string
		rec := func(what string) { log = append(log, fmt.Sprintf("%d/%d:%s", e.Now(), e.Seq(), what)) }
		if _, err := f.Attach(0, func(*Packet) {}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Attach(1, func(p *Packet) { rec(fmt.Sprint("rx", p.Bytes, p.ECN)) }); err != nil {
			t.Fatal(err)
		}
		e.Go("rival", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 1, Bytes: 4096}); err != nil {
					t.Error(err)
				}
				rec("rival")
			}
		})
		if !events {
			e.GoDaemon("sender", func(p *sim.Proc) {
				for i := 0; i < 6; i++ {
					if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 1, Bytes: 8192}); err != nil {
						t.Error(err)
					}
					rec("sent")
				}
			})
		} else {
			var x Transmit
			sent := 0
			x.Done = func(any) {
				if x.Err != nil {
					t.Error(x.Err)
				}
				rec("sent")
				if sent++; sent < 6 {
					f.Transmit(&x, &Packet{SrcNode: 0, DstNode: 1, Bytes: 8192})
				}
			}
			e.AfterArg(0, func(any) { f.Transmit(&x, &Packet{SrcNode: 0, DstNode: 1, Bytes: 8192}) }, nil)
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		cs := f.CongStats()
		return fmt.Sprintf("%s stalls=%d/%v marks=%d", strings.Join(log, " "), cs.Stalls, cs.StallTime, cs.Marks)
	}
	want := run(false)
	if !strings.Contains(want, "stalls=") || strings.Contains(want, "stalls=0/") {
		t.Fatalf("the scenario lost its credit stalls: %s", want)
	}
	if got := run(true); got != want {
		t.Fatalf("Transmit scheduled differently from Send:\n got %s\nwant %s", got, want)
	}

	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	for _, pkt := range []*Packet{{SrcNode: 0, DstNode: 9}, {SrcNode: 9, DstNode: 0}} {
		x := Transmit{Done: func(any) {}}
		f.Transmit(&x, pkt)
		if x.Err == nil {
			t.Errorf("Transmit %d->%d: no error", pkt.SrcNode, pkt.DstNode)
		}
	}
}
