package hfi

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// nicRig wires two NICs with raw host memory (no kernels, no drivers) so
// the hardware model can be tested in isolation.
type nicRig struct {
	e    *sim.Engine
	pr   model.Params
	fab  *fabric.Fabric
	phys [2]*mem.PhysMem
	nic  [2]*NIC
	// ctx area base addresses per node.
	status, hdrq, eager, cq [2]mem.PhysAddr
	completed               [][]*SDMATxn
}

func newNICRig(t *testing.T) *nicRig {
	t.Helper()
	return newNICRigWith(t, nil)
}

// newNICRigWith is newNICRig with setup run on the parameters and the
// fabric before the NICs are built (nil: defaults).
func newNICRigWith(t *testing.T, setup func(*model.Params, *fabric.Fabric)) *nicRig {
	t.Helper()
	r := &nicRig{e: sim.NewEngine(5), pr: model.Default()}
	fab := fabric.New(r.e, &r.pr)
	if setup != nil {
		setup(&r.pr, fab)
	}
	r.fab = fab
	for n := 0; n < 2; n++ {
		pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 256 << 20, Kind: mem.DDR4, Owner: "x"})
		if err != nil {
			t.Fatal(err)
		}
		r.phys[n] = pm
		nic, err := NewNIC(r.e, &r.pr, n, pm, fab)
		if err != nil {
			t.Fatal(err)
		}
		r.nic[n] = nic
		alloc := func(size uint64) mem.PhysAddr {
			e, err := pm.AllocContig(size, mem.DDROnly)
			if err != nil {
				t.Fatal(err)
			}
			return e.Addr
		}
		r.status[n] = alloc(mem.PageSize4K)
		r.hdrq[n] = alloc(64 * HdrqEntrySize)
		r.eager[n] = alloc(64 * r.pr.EagerChunk)
		r.cq[n] = alloc(mem.PageSize4K)
		if _, err := nic.AllocContext(0, r.status[n], r.hdrq[n], r.eager[n], r.cq[n],
			64, 64, 64, 128); err != nil {
			t.Fatal(err)
		}
		nn := n
		nic.SetIRQSink(func(batch *SDMATxn) {
			_ = nn
			var txns []*SDMATxn
			for txn := batch; txn != nil; txn = txn.irqNext {
				txns = append(txns, txn)
			}
			r.completed = append(r.completed, txns)
		})
	}
	return r
}

// readEntry decodes hdrq entry i of node n.
func (r *nicRig) readEntry(t *testing.T, n int, i uint64) *HdrqEntry {
	t.Helper()
	raw := make([]byte, HdrqEntrySize)
	if err := r.phys[n].ReadAt(r.hdrq[n]+mem.PhysAddr((i%64)*HdrqEntrySize), raw); err != nil {
		t.Fatal(err)
	}
	e := &HdrqEntry{}
	if err := DecodeHdrqEntryInto(e, raw); err != nil {
		t.Fatal(err)
	}
	return e
}

func (r *nicRig) head(t *testing.T, n, off int) uint64 {
	t.Helper()
	v, err := r.phys[n].ReadU64(r.status[n] + mem.PhysAddr(off))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNICEagerDelivery(t *testing.T) {
	r := newNICRig(t)
	payload := []byte("eager payload through the NIC")
	r.e.Go("sender", func(p *sim.Proc) {
		if err := r.nic[0].PIOSend(p, 1, 0, fabric.Header{
			Op: OpEager, SrcRank: 7, Tag: 42, MsgID: 9, MsgLen: uint64(len(payload)),
		}, payload, 0, nil); err != nil {
			t.Error(err)
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := r.head(t, 1, StatusHdrqHead); got != 1 {
		t.Fatalf("hdrq head = %d", got)
	}
	if got := r.head(t, 1, StatusEagerHead); got != 1 {
		t.Fatalf("eager head = %d", got)
	}
	e := r.readEntry(t, 1, 0)
	if e.Type != HdrqTypeEager || e.SrcRank != 7 || e.Tag != 42 || e.Bytes != uint64(len(payload)) {
		t.Fatalf("entry = %+v", e)
	}
	// Payload landed in slot 0 of the eager ring.
	got := make([]byte, len(payload))
	if err := r.phys[1].ReadAt(r.eager[1], got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("eager payload corrupted")
	}
}

func TestNICExpectedDelivery(t *testing.T) {
	r := newNICRig(t)
	// Destination buffer in node 1's memory, programmed as TID 5.
	dst, err := r.phys[1].AllocContig(64<<10, mem.DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := r.nic[1].ProgramTID(0, 5, dst)
	if err != nil {
		t.Fatal(err)
	}
	src, err := r.phys[0].AllocContig(64<<10, mem.DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEE}, 20<<10)
	if err := r.phys[0].WriteAt(src.Addr, payload); err != nil {
		t.Fatal(err)
	}
	reqs, err := BuildExpectedRequests(
		[]mem.Extent{{Addr: src.Addr, Len: 20 << 10}},
		r.pr.MaxSDMARequest,
		[]TIDPair{{Idx: PackTID(5, gen), Len: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	r.e.Go("submit", func(p *sim.Proc) {
		if err := r.nic[0].SubmitSDMA(p, &SDMATxn{
			Engine: 3, DstNode: 1, DstCtx: 0, Kind: fabric.KindExpected,
			Hdr:      fabric.Header{Op: OpExpected, MsgID: 77, MsgLen: 20 << 10},
			Requests: reqs, CallbackVA: 0xdead, CallbackArg: 1,
		}); err != nil {
			t.Error(err)
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Data placed directly at the TID's physical address.
	got := make([]byte, 20<<10)
	if err := r.phys[1].ReadAt(dst.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("expected payload corrupted")
	}
	// Exactly one completion entry (the Last-flagged request).
	if got := r.head(t, 1, StatusHdrqHead); got != 1 {
		t.Fatalf("hdrq head = %d", got)
	}
	e := r.readEntry(t, 1, 0)
	if e.Type != HdrqTypeExpectedDone || e.MsgID != 77 {
		t.Fatalf("entry = %+v", e)
	}
	// No eager slot consumed by expected traffic.
	if got := r.head(t, 1, StatusEagerHead); got != 0 {
		t.Fatalf("eager head = %d", got)
	}
	// Sender got its completion IRQ with the callback cookie.
	if len(r.completed) != 1 || r.completed[0][0].CallbackArg != 1 {
		t.Fatalf("completions = %+v", r.completed)
	}
	// Requests obeyed the hardware maximum: 20KB → 10+10.
	if r.nic[0].SDMARequests != 2 || r.nic[0].SDMAFullSize != 2 {
		t.Fatalf("requests = %d full = %d", r.nic[0].SDMARequests, r.nic[0].SDMAFullSize)
	}
}

func TestNICRejectsOversizedRequest(t *testing.T) {
	r := newNICRig(t)
	r.e.Go("submit", func(p *sim.Proc) {
		err := r.nic[0].SubmitSDMA(p, &SDMATxn{
			Engine:   0,
			Requests: []SDMARequest{{Src: mem.Extent{Addr: 0, Len: 20 << 10}}},
		})
		if err == nil {
			t.Error("oversized request accepted")
		}
		if err := r.nic[0].SubmitSDMA(p, &SDMATxn{Engine: 99}); err == nil {
			t.Error("bad engine accepted")
		}
		if err := r.nic[0].SubmitSDMA(p, &SDMATxn{Engine: 0}); err == nil {
			t.Error("empty txn accepted")
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestNICPIOSizeLimit(t *testing.T) {
	r := newNICRig(t)
	r.e.Go("send", func(p *sim.Proc) {
		err := r.nic[0].PIOSend(p, 1, 0, fabric.Header{Op: OpEager}, nil, r.pr.PIOMaxSize+1, nil)
		if err == nil {
			t.Error("oversized PIO accepted")
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestNICTIDManagement(t *testing.T) {
	r := newNICRig(t)
	ext := mem.Extent{Addr: 0x1000, Len: 4096}
	gen1, err := r.nic[0].ProgramTID(0, 5, ext)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.nic[0].ProgramTID(0, 5, ext); err == nil {
		t.Fatal("double programming accepted")
	}
	// The rig's contexts have 128 entries; tids has grown to index 5.
	if _, err := r.nic[0].ProgramTID(0, 128, ext); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	for _, idx := range []int{3, 100, 127} {
		if err := r.nic[0].ClearTID(0, idx); err == nil {
			t.Fatalf("clearing never-programmed TID %d accepted", idx)
		}
	}
	if _, err := r.nic[0].ProgramTID(0, 127, ext); err != nil {
		t.Fatalf("last index: %v", err)
	}
	if err := r.nic[0].ClearTID(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := r.nic[0].ClearTID(0, 5); err == nil {
		t.Fatal("double clear accepted")
	}
	if _, err := r.nic[0].ProgramTID(9, 0, ext); err == nil {
		t.Fatal("unknown context accepted")
	}
	// Reprogramming a cleared entry advances its generation, so stale
	// packed references can never match the new owner.
	gen2, err := r.nic[0].ProgramTID(0, 5, ext)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("generation did not advance: %d -> %d", gen1, gen2)
	}
	if idx, g := UnpackTID(PackTID(5, gen2)); idx != 5 || g != gen2 {
		t.Fatalf("pack/unpack mismatch: %d/%d", idx, g)
	}
}

// TestAllocContextFootprint: a context's RcvArray grows with the indices
// programmed, so opening a context costs the same whatever its size.
func TestAllocContextFootprint(t *testing.T) {
	r := newNICRig(t)
	n := r.nic[1]
	bytesPerOpen := func(tids int) uint64 {
		open := func() {
			if _, err := n.AllocContext(1, r.status[1], r.hdrq[1], r.eager[1], r.cq[1], 64, 64, 64, tids); err != nil {
				t.Fatal(err)
			}
			n.FreeContext(1)
		}
		open()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for range runs {
			open()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	// The tolerance absorbs runtime noise; an RcvArray allocated up front
	// would add 32 bytes per entry.
	if small, full := bytesPerOpen(64), bytesPerOpen(TIDsPerContext); full > small+512 {
		t.Fatalf("AllocContext: %d bytes with %d TIDs, %d with 64", full, TIDsPerContext, small)
	}
}

func TestNICIRQCoalescing(t *testing.T) {
	r := newNICRig(t)
	// Two transactions completing back to back share one IRQ when they
	// finish within the coalescing latency.
	src, _ := r.phys[0].AllocContig(8<<10, mem.DDROnly)
	mkTxn := func(engine int) *SDMATxn {
		return &SDMATxn{
			Engine: engine, DstNode: 1, DstCtx: 0, Kind: fabric.KindEager,
			Hdr:       fabric.Header{Op: OpEager, MsgLen: 4096},
			Synthetic: true,
			Requests:  []SDMARequest{{Src: mem.Extent{Addr: src.Addr, Len: 4096}, Last: true}},
		}
	}
	r.e.Go("submit", func(p *sim.Proc) {
		if err := r.nic[0].SubmitSDMA(p, mkTxn(0)); err != nil {
			t.Error(err)
		}
		if err := r.nic[0].SubmitSDMA(p, mkTxn(1)); err != nil {
			t.Error(err)
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, batch := range r.completed {
		total += len(batch)
	}
	if total != 2 {
		t.Fatalf("completions = %d", total)
	}
	if r.nic[0].IRQsRaised != 1 {
		t.Fatalf("IRQs = %d, want 1 (coalesced)", r.nic[0].IRQsRaised)
	}
}

func TestNICLocalDeliver(t *testing.T) {
	r := newNICRig(t)
	payload := []byte("shared memory transport")
	var sendTime time.Duration
	r.e.Go("send", func(p *sim.Proc) {
		start := p.Now()
		if err := r.nic[0].LocalDeliver(p, 0, fabric.Header{
			Op: OpEager, MsgLen: uint64(len(payload)),
		}, payload, 0); err != nil {
			t.Error(err)
		}
		sendTime = p.Now() - start
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.head(t, 0, StatusHdrqHead) != 1 {
		t.Fatal("local delivery posted no entry")
	}
	if sendTime < r.pr.LocalCopyTime(uint64(len(payload))) {
		t.Fatalf("local copy cost not charged: %v", sendTime)
	}
	// Oversized local chunks are rejected (PSM must chunk).
	r.e.Go("big", func(p *sim.Proc) {
		if err := r.nic[0].LocalDeliver(p, 0, fabric.Header{}, nil, r.pr.EagerChunk+1); err == nil {
			t.Error("oversized local chunk accepted")
		}
	})
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestRxEagerRefusesOversizePacket: a fabric packet longer than an eager
// slot is refused. The receive path used to copy it whole, so from the
// ring's last slot it overwrote whatever followed the ring.
func TestRxEagerRefusesOversizePacket(t *testing.T) {
	r := newNICRig(t)
	last := uint64(63) // the rig's rings have 64 slots
	for _, off := range []int{StatusEagerHead, StatusEagerTail} {
		if err := r.phys[1].WriteU64(r.status[1]+mem.PhysAddr(off), last); err != nil {
			t.Fatal(err)
		}
	}
	payload := bytes.Repeat([]byte{0x5a}, int(r.pr.EagerChunk)+1)
	r.e.Go("sender", func(p *sim.Proc) {
		if err := r.nic[0].PIOSend(p, 1, 0, fabric.Header{Op: OpEager, MsgLen: uint64(len(payload))}, payload, 0, nil); err != nil {
			t.Error(err)
		}
	})
	err := r.e.Run(0)
	if want := fmt.Sprintf("eager delivery of %d bytes exceeds eager chunk", len(payload)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run: %v, want an error containing %q", err, want)
	}
	past := make([]byte, 1)
	if err := r.phys[1].ReadAt(r.eager[1]+mem.PhysAddr(64*r.pr.EagerChunk), past); err != nil {
		t.Fatal(err)
	}
	if past[0] != 0 {
		t.Fatal("the packet was written past the end of the eager ring")
	}
	if got := r.head(t, 1, StatusEagerHead); got != last {
		t.Fatalf("eager head moved to %d", got)
	}
}
