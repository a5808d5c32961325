package hfi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// The SDMA engine paths no benchmark workload reaches, each pinned by
// what it leaves behind: the order transactions complete in (one
// "|"-separated group per interrupt), each aborted transaction's
// FailedAt, the NIC's SDMAErrors, each busy engine's BytesSent, each
// rail's transmitted bytes, each NIC's received packets, the fabric's
// congestion counters, and the finish time with the engine's event
// count. The literals were recorded
// from the engines as daemon processes; the event-handler engines must
// reproduce them event for event.
var enginePathCells = []struct {
	name  string
	setup func(*model.Params, *fabric.Fabric)
	run   func(r *nicRig, p *sim.Proc) error
	want  string
}{
	{
		// Mid-transfer aborts: half the attempts fail at a drawn
		// request index (sdmaErrAt), and the rest of that transaction
		// never reaches the wire.
		name: "abort",
		setup: func(_ *model.Params, fab *fabric.Fabric) {
			fab.SetFaults(&fabric.FaultProfile{SDMAErr: 0.5, Seed: 11})
		},
		run: func(r *nicRig, p *sim.Proc) error {
			for i := 0; i < 6; i++ {
				if err := r.nic[0].SubmitSDMA(p, engineTxn(r, i%3, 1, 4, uint64(i), false)); err != nil {
					return err
				}
			}
			return nil
		},
		want: "order=0,3,1|2|4|5 failed=3@0,4@3 errs=2/0 sent0=0:16384,1:28672,2:32768, rail0=77824 rx0=0 sent1= rail0=0 rx1=19 stalls=0/0s marks=0 end=7.517µs seq=160",
	},
	{
		// Descriptor-ring backpressure: three submitters share engine 0
		// with a one-transaction ring and block on its drain condition,
		// while a PIO sender contends for the same egress port.
		name: "backpressure",
		setup: func(pr *model.Params, _ *fabric.Fabric) {
			pr.SDMAQueueDepth = 1
		},
		run: func(r *nicRig, p *sim.Proc) error {
			done := sim.NewRendezvous(r.e, 4)
			var first error
			for s := 0; s < 3; s++ {
				id := uint64(s * 10)
				r.e.Go(fmt.Sprintf("submit%d", s), func(p *sim.Proc) {
					for i := uint64(0); i < 4; i++ {
						if err := r.nic[0].SubmitSDMA(p, engineTxn(r, 0, 1, 3, id+i, false)); err != nil && first == nil {
							first = err
						}
					}
					done.Done(p)
				})
			}
			r.e.Go("pio", func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					if err := r.nic[0].PIOSend(p, 1, 0, fabric.Header{Op: OpEager}, nil, 256, nil); err != nil && first == nil {
						first = err
					}
				}
				done.Done(p)
			})
			done.Wait(p)
			return first
		},
		want: "order=0|1|10|20|2|11|21|3|12|22|13|23 failed= errs=0/0 sent0=0:147456, rail0=150016 rx0=0 sent1= rail0=0 rx1=46 stalls=0/0s marks=0 end=16.024µs seq=323",
	},
	{
		// Dual-rail striping: striped transactions alternate their
		// requests across both rails, an unstriped one keeps rail 0.
		name: "stripe",
		setup: func(pr *model.Params, _ *fabric.Fabric) {
			pr.DualRail = true
		},
		run: func(r *nicRig, p *sim.Proc) error {
			for i, stripe := range []bool{true, false, true} {
				if err := r.nic[0].SubmitSDMA(p, engineTxn(r, i, 1, 8, uint64(i), stripe)); err != nil {
					return err
				}
			}
			return nil
		},
		want: "order=0,1|2 failed= errs=0/0 sent0=0:32768,1:32768,2:32768, rail0=65536 rail1=32768 rx0=0 sent1= rail0=0 rail1=0 rx1=24 stalls=0/0s marks=0 end=6.521µs seq=178",
	},
	{
		// Congestion admission: four engines and a PIO sender on node 0
		// overrun a two-packet link budget toward node 1 and stall on
		// the fabric's credit condition; node 1 sends back meanwhile.
		name: "congestion",
		setup: func(_ *model.Params, fab *fabric.Fabric) {
			fab.SetCongestion(&fabric.CongProfile{LinkBudget: 3 * 4096, IngressBudget: 5 * 4096, MarkFrac: 0.5})
		},
		run: func(r *nicRig, p *sim.Proc) error {
			done := sim.NewRendezvous(r.e, 2)
			var first error
			r.e.Go("pio", func(p *sim.Proc) {
				for i := 0; i < 8; i++ {
					if err := r.nic[0].PIOSend(p, 1, 0, fabric.Header{Op: OpEager}, nil, 2048, nil); err != nil && first == nil {
						first = err
					}
				}
				done.Done(p)
			})
			r.e.Go("back", func(p *sim.Proc) {
				for i := uint64(0); i < 2; i++ {
					if err := r.nic[1].SubmitSDMA(p, engineTxn(r, int(i), 0, 6, 100+i, false)); err != nil && first == nil {
						first = err
					}
				}
				done.Done(p)
			})
			for i := 0; i < 4; i++ {
				if err := r.nic[0].SubmitSDMA(p, engineTxn(r, i, 1, 6, uint64(i), false)); err != nil {
					return err
				}
			}
			done.Wait(p)
			return first
		},
		want: "order=100,101|0,1|2,3 failed= errs=0/0 sent0=0:24576,1:24576,2:24576,3:24576, rail0=114688 rx0=12 sent1=0:24576,1:24576, rail0=49152 rx1=32 stalls=32/51.376µs marks=42 end=15.343µs seq=397",
	},
}

// engineTxn returns a synthetic eager transaction of nreq 4 KB requests
// toward context 0 of node dst, named id by its callback argument.
func engineTxn(r *nicRig, engine, dst, nreq int, id uint64, stripe bool) *SDMATxn {
	txn := &SDMATxn{
		Engine: engine, DstNode: dst, Kind: fabric.KindEager, Synthetic: true,
		Hdr: fabric.Header{Op: OpEager, MsgLen: uint64(nreq) * 4096}, Stripe: stripe,
		CallbackArg: id,
	}
	for i := 0; i < nreq; i++ {
		txn.Requests = append(txn.Requests, SDMARequest{
			Src: mem.Extent{Addr: mem.PhysAddr(i) * 4096, Len: 4096}, MsgOff: uint64(i) * 4096, Last: i == nreq-1,
		})
	}
	return txn
}

// enginePathSummary runs one cell and prints what it left behind.
func enginePathSummary(t *testing.T, setup func(*model.Params, *fabric.Fabric), run func(*nicRig, *sim.Proc) error) string {
	t.Helper()
	r := newNICRigWith(t, setup)
	defer r.e.Close()
	r.e.Go("main", func(p *sim.Proc) {
		if err := run(r, p); err != nil {
			t.Error(err)
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var failed []string
	b.WriteString("order=")
	for i, batch := range r.completed {
		if i > 0 {
			b.WriteString("|")
		}
		for j, txn := range batch {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprint(&b, txn.CallbackArg)
			if txn.Err != nil {
				failed = append(failed, fmt.Sprintf("%d@%d", txn.CallbackArg, txn.FailedAt))
			}
		}
	}
	fmt.Fprintf(&b, " failed=%s errs=%d/%d", strings.Join(failed, ","), r.nic[0].SDMAErrors, r.nic[1].SDMAErrors)
	for n, nic := range r.nic {
		fmt.Fprintf(&b, " sent%d=", n)
		for i, eng := range nic.engines {
			if eng.BytesSent > 0 {
				fmt.Fprintf(&b, "%d:%d,", i, eng.BytesSent)
			}
		}
		fmt.Fprintf(&b, " rail0=%d", nic.port.TxBytes)
		if nic.port1 != nil {
			fmt.Fprintf(&b, " rail1=%d", nic.port1.TxBytes)
		}
		fmt.Fprintf(&b, " rx%d=%d", n, nic.RxPackets)
	}
	cs := r.fab.CongStats()
	fmt.Fprintf(&b, " stalls=%d/%v marks=%d end=%v seq=%d", cs.Stalls, cs.StallTime, cs.Marks, r.e.Now(), r.e.Seq())
	return b.String()
}

func TestSDMAEnginePaths(t *testing.T) {
	for _, c := range enginePathCells {
		t.Run(c.name, func(t *testing.T) {
			if got := enginePathSummary(t, c.setup, c.run); got != c.want {
				t.Errorf("%s moved:\n got %s\nwant %s", c.name, got, c.want)
			}
		})
	}
}
