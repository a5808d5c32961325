package hfi

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// sender is one open context on node 0 of a driver rig, with a user
// buffer, an SDMA header slot, a TID list covering the buffer page by
// page and a TIDInfo argument. Its transfers name a receive context that
// node 1 never opened, so the receiving NIC drops every packet and no
// host memory is written on either side: what a test counts is the
// sending driver's.
type sender struct {
	r    *rig
	ctx  *kernel.Ctx
	f    *linux.File
	proc *uproc.Process
	id   int
	buf  uproc.VirtAddr
	// iov is built once: a vector literal per call would be the test's
	// own allocation.
	iov []linux.IOVec
	// listVA holds the TID list; argVA the TIDInfo of the TID ioctls.
	listVA, argVA uproc.VirtAddr
}

const (
	senderBytes = 64 << 10
	noSuchCtx   = 999
)

// runSender runs body in a simulated process on node 0 of a fresh rig,
// with a sender set up. Failures inside the process are t.Error and a
// return: the process body is not the test's goroutine.
func runSender(t *testing.T, tweak func(r *rig), body func(r *rig, s *sender)) {
	t.Helper()
	r := newRig(t)
	if tweak != nil {
		tweak(r)
	}
	r.run(t, func(p *sim.Proc) {
		s, err := r.newSender(p)
		if err != nil {
			t.Error(err)
			return
		}
		body(r, s)
	})
}

func (r *rig) newSender(p *sim.Proc) (*sender, error) {
	s := &sender{r: r, ctx: &kernel.Ctx{P: p, CPU: 0}, proc: r.proc(0)}
	f, err := r.lin[0].Open(s.ctx, s.proc, "/dev/hfi1")
	if err != nil {
		return nil, err
	}
	s.f = f
	id, err := r.lin[0].Ioctl(s.ctx, f, CmdCtxtInfo, 0)
	if err != nil {
		return nil, err
	}
	s.id = int(id)
	if s.buf, err = s.proc.MmapAnon(senderBytes); err != nil {
		return nil, err
	}
	hdrVA, _ := s.proc.MmapAnon(4096)
	s.listVA, _ = s.proc.MmapAnon(64 << 10)
	s.argVA, _ = s.proc.MmapAnon(4096)
	s.iov = []linux.IOVec{{Base: hdrVA, Len: SDMAHeaderSize}, {Base: s.buf, Len: senderBytes}}
	pairs := make([]TIDPair, senderBytes/mem.PageSize4K)
	for i := range pairs {
		pairs[i] = TIDPair{Idx: uint64(i), Len: mem.PageSize4K}
	}
	_, err = WriteTIDListScratch(s.proc, s.listVA, pairs, nil)
	return s, err
}

// header encodes the SDMA header of a synthetic op transfer of the
// whole buffer.
func (s *sender) header(op uint32) error {
	h := &SDMAHeader{Op: op, DstNode: 1, DstCtx: noSuchCtx, MsgLen: senderBytes, CompSeq: 1,
		Flags: FlagSynthetic, TIDListVA: s.listVA, TIDCount: senderBytes / mem.PageSize4K}
	return EncodeSDMAHeader(s.proc, s.iov[0].Base, h)
}

// drain sleeps until every transfer in flight has completed.
func (s *sender) drain() { s.ctx.P.Sleep(200 * time.Microsecond) }

// TestLinuxDriverSteadyStateAllocs pins what the Linux driver's fast-path
// system calls allocate once warm. A writev is measured with its drain,
// so its count includes the completion interrupt's, which runs on a
// recycled interrupt record and work item. Neither the system call, the
// SDMA engine, the interrupt nor the callback allocates; nor does a TID
// update+free cycle.
func TestLinuxDriverSteadyStateAllocs(t *testing.T) {
	runSender(t, nil, func(r *rig, s *sender) {
		for _, c := range []struct {
			op   uint32
			name string
		}{{OpEager, "eager"}, {OpExpected, "expected"}} {
			err := s.header(c.op)
			got := testing.AllocsPerRun(50, func() {
				if _, e := r.lin[0].Writev(s.ctx, s.f, s.iov); e != nil && err == nil {
					err = e
				}
				s.drain()
			})
			if err != nil {
				t.Error(err)
				return
			}
			if got != 0 {
				t.Errorf("%s writev and its completion: %v allocations, want 0", c.name, got)
			}
		}
		ti := &TIDInfo{VAddr: s.buf, Length: senderBytes, TIDListVA: s.listVA, TIDCount: 1024}
		var err error
		got := testing.AllocsPerRun(50, func() {
			if err == nil {
				err = s.tidCycle(ti)
			}
		})
		if err != nil {
			t.Error(err)
			return
		}
		if got != 0 {
			t.Errorf("TID update+free: %v allocations, want 0", got)
		}
	})
}

// tidCycle registers ti's range and frees the entries it got back.
func (s *sender) tidCycle(ti *TIDInfo) error {
	ti.TIDCount = 1024
	if err := EncodeTIDInfo(s.proc, s.argVA, ti); err != nil {
		return err
	}
	if _, err := s.r.lin[0].Ioctl(s.ctx, s.f, CmdTIDUpdate, s.argVA); err != nil {
		return err
	}
	_, err := s.r.lin[0].Ioctl(s.ctx, s.f, CmdTIDFree, s.argVA)
	return err
}

// TestEmptyWritevAllocatesNoRecord: a writev whose payload vector is
// empty is refused before the completion record is allocated (it used
// to be allocated and then leaked when the NIC refused the empty
// transaction), and it pins nothing.
func TestEmptyWritevAllocatesNoRecord(t *testing.T) {
	runSender(t, nil, func(r *rig, s *sender) {
		if err := s.header(OpEager); err != nil {
			t.Error(err)
			return
		}
		live := r.lin[0].Space.LiveObjects()
		_, err := r.lin[0].Writev(s.ctx, s.f, []linux.IOVec{s.iov[0], {Base: s.buf, Len: 0}})
		if err == nil || !strings.Contains(err.Error(), "empty transaction") {
			t.Errorf("empty writev: err = %v, want an empty-transaction error", err)
		}
		if got := r.lin[0].Space.LiveObjects(); got != live {
			t.Errorf("empty writev moved live kernel objects %d -> %d", live, got)
		}
		if got := r.phys[0].PinnedFrames(); got != 0 {
			t.Errorf("empty writev left %d frames pinned", got)
		}
	})
}

// TestScratchTakenTwicePanics: one context's scratch serves one call at
// a time; a second taker while it is held is a driver bug.
func TestScratchTakenTwicePanics(t *testing.T) {
	runSender(t, nil, func(r *rig, s *sender) {
		if _, err := r.nic[0].TakeScratch(noSuchCtx); err == nil {
			t.Error("scratch of a context never opened was handed out")
		}
		sc, err := r.nic[0].TakeScratch(s.id)
		if err != nil {
			t.Error(err)
			return
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a held scratch record was handed out again")
				}
			}()
			r.nic[0].TakeScratch(s.id)
		}()
		sc.Release()
		again, err := r.nic[0].TakeScratch(s.id)
		if err != nil || again != sc {
			t.Errorf("released scratch not handed out again: %p vs %p, %v", again, sc, err)
		}
		again.Release()
	})
}

// TestRecoverSDMARecyclesOnce drives an always-failing SDMA engine: the
// IRQ handler resubmits the transaction for its retry budget, then
// degrades it to PIO and runs the completion. The transaction must stay
// out of the NIC's pool while resubmitted and go back exactly once, after
// the callback.
func TestRecoverSDMARecyclesOnce(t *testing.T) {
	type seen struct {
		txn      *SDMATxn
		attempts int
		failed   bool
		out      int64 // the NIC's transactions out of its pool at delivery
	}
	var irqs []seen
	faulty := func(r *rig) {
		r.fab.SetFaults(&fabric.FaultProfile{SDMAErr: 1, Seed: 7})
		nic := r.nic[0]
		handler := nic.irqSink
		nic.SetIRQSink(func(batch *SDMATxn) {
			for txn := batch; txn != nil; txn = txn.irqNext {
				irqs = append(irqs, seen{txn, txn.Attempts, txn.Err != nil, nic.Txns.Stats().Live()})
			}
			handler(batch)
		})
	}
	runSender(t, faulty, func(r *rig, s *sender) {
		nic := r.nic[0]
		live := r.lin[0].Space.LiveObjects()
		puts := nic.Txns.Stats().Puts
		err := s.header(OpEager)
		if err == nil {
			_, err = r.lin[0].Writev(s.ctx, s.f, s.iov)
		}
		if err != nil {
			t.Error(err)
			return
		}
		s.drain()
		budget := r.pr.SDMARetryBudget
		if len(irqs) != budget+1 {
			t.Errorf("%d completion interrupts, want %d (retry budget %d, then the degrade)", len(irqs), budget+1, budget)
			return
		}
		for i, irq := range irqs {
			if irq.txn != irqs[0].txn || irq.attempts != i || !irq.failed || irq.out != 1 {
				t.Errorf("interrupt %d: %+v, want the first transaction, attempt %d, failed, the only one out", i, irq, i)
			}
		}
		if st := nic.Txns.Stats(); st.Live() != 0 || st.Puts != puts+1 {
			t.Errorf("transaction pool after the completion: %+v, want one put and none out", st)
		}
		if nic.SDMAErrors != uint64(budget+1) {
			t.Errorf("SDMA errors = %d, want %d", nic.SDMAErrors, budget+1)
		}
		if got := r.lin[0].Space.LiveObjects(); got != live {
			t.Errorf("completion left live kernel objects %d -> %d", live, got)
		}
		if r.drv[0].OutstandingTxreqPins() != 0 || r.phys[0].PinnedFrames() != 0 {
			t.Error("degraded transfer still holds its page pins")
		}
	})
}
