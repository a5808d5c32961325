package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hfi"
	"repro/internal/kernel"
	"repro/internal/linux"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// picoSender is one McKernel process on node 0 of a McKernel+HFI1 pair
// with the HFI device open, a 1 MB buffer, an SDMA header slot, a TID
// list covering the buffer and a TIDInfo argument. Its transfers name a
// receive context node 1 never opened, so node 1's NIC drops every
// packet: what a test counts is the sending side's.
type picoSender struct {
	node *cluster.Node
	ctx  *kernel.Ctx
	f    *linux.File
	proc *uproc.Process
	buf  uproc.VirtAddr
	// iov is built once: a vector literal per call would be the test's
	// own allocation.
	iov           []linux.IOVec
	listVA, argVA uproc.VirtAddr
}

const (
	picoBytes = 1 << 20
	noSuchCtx = 999
)

// runPicoSender boots the pair, opens the device in a process on node 0
// and runs body there. Failures inside the process are t.Error and a
// return: the process body is not the test's goroutine.
func runPicoSender(t *testing.T, body func(s *picoSender)) {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 19, Synthetic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n := cl.Nodes[0]
	cl.Go(0, "sender", func(p *sim.Proc) {
		s := &picoSender{node: n, ctx: &kernel.Ctx{P: p, CPU: n.AppCPUs()[0]}, proc: n.Mck.NewProcess("app")}
		f, err := n.Mck.Open(s.ctx, s.proc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		s.f = f
		if s.buf, err = s.proc.MmapAnon(picoBytes); err != nil {
			t.Error(err)
			return
		}
		hdrVA, _ := s.proc.MmapAnon(4096)
		s.listVA, _ = s.proc.MmapAnon(64 << 10)
		s.argVA, _ = s.proc.MmapAnon(4096)
		s.iov = []linux.IOVec{{Base: hdrVA, Len: hfi.SDMAHeaderSize}, {Base: s.buf, Len: picoBytes}}
		pairs := make([]hfi.TIDPair, picoBytes/(256<<10))
		for i := range pairs {
			pairs[i] = hfi.TIDPair{Idx: uint64(i), Len: 256 << 10}
		}
		if _, err := hfi.WriteTIDListScratch(s.proc, s.listVA, pairs, nil); err != nil {
			t.Error(err)
			return
		}
		body(s)
	})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
}

// header encodes the SDMA header of a synthetic op transfer of the
// whole buffer.
func (s *picoSender) header(op uint32) error {
	h := &hfi.SDMAHeader{Op: op, DstNode: 1, DstCtx: noSuchCtx, MsgLen: picoBytes, CompSeq: 1,
		Flags: hfi.FlagSynthetic, TIDListVA: s.listVA, TIDCount: picoBytes / (256 << 10)}
	return hfi.EncodeSDMAHeader(s.proc, s.iov[0].Base, h)
}

// TestPicoSteadyStateAllocs pins what the PicoDriver's fast-path system
// calls allocate once warm. A writev is measured with its drain, so its
// count includes the completion interrupt's, which runs in the Linux
// driver's handler on a recycled work item. Neither the fast path, its
// completion nor a TID update+free cycle allocates.
func TestPicoSteadyStateAllocs(t *testing.T) {
	runPicoSender(t, func(s *picoSender) {
		for _, c := range []struct {
			op   uint32
			name string
		}{{hfi.OpEager, "eager"}, {hfi.OpExpected, "expected"}} {
			before := s.node.Pico.FastWritevs
			err := s.header(c.op)
			got := testing.AllocsPerRun(50, func() {
				if _, e := s.node.Mck.Writev(s.ctx, s.f, s.iov); e != nil && err == nil {
					err = e
				}
				s.ctx.P.Sleep(time.Millisecond)
			})
			if err != nil {
				t.Error(err)
				return
			}
			if got != 0 {
				t.Errorf("%s writev and its completion: %v allocations, want 0", c.name, got)
			}
			if s.node.Pico.FastWritevs == before {
				t.Errorf("%s writev did not take the fast path", c.name)
			}
		}
		before := s.node.Pico.FastIoctls
		var err error
		got := testing.AllocsPerRun(50, func() {
			if err == nil {
				err = s.tidCycle()
			}
		})
		if err != nil {
			t.Error(err)
			return
		}
		if got != 0 {
			t.Errorf("TID update+free: %v allocations, want 0", got)
		}
		if s.node.Pico.FastIoctls == before {
			t.Error("the TID ioctls did not take the fast path")
		}
	})
}

// tidCycle registers the buffer and frees the entries it got back.
func (s *picoSender) tidCycle() error {
	ti := hfi.TIDInfo{VAddr: s.buf, Length: picoBytes, TIDListVA: s.listVA, TIDCount: 1024}
	if err := hfi.EncodeTIDInfo(s.proc, s.argVA, &ti); err != nil {
		return err
	}
	if _, err := s.node.Mck.Ioctl(s.ctx, s.f, hfi.CmdTIDUpdate, s.argVA); err != nil {
		return err
	}
	_, err := s.node.Mck.Ioctl(s.ctx, s.f, hfi.CmdTIDFree, s.argVA)
	return err
}

// TestPicoEmptyWritevAllocatesNoRecord: the fast path shares the
// engine submission with the Linux driver, so an empty payload vector is
// refused there too before a completion record is allocated in LWK
// memory.
func TestPicoEmptyWritevAllocatesNoRecord(t *testing.T) {
	runPicoSender(t, func(s *picoSender) {
		if err := s.header(hfi.OpEager); err != nil {
			t.Error(err)
			return
		}
		space := s.node.LWKSpace
		live := space.LiveObjects()
		_, err := s.node.Mck.Writev(s.ctx, s.f, []linux.IOVec{s.iov[0], {Base: s.buf, Len: 0}})
		if err == nil || !strings.Contains(err.Error(), "empty transaction") {
			t.Errorf("empty writev: err = %v, want an empty-transaction error", err)
		}
		if got := space.LiveObjects(); got != live {
			t.Errorf("empty writev moved live LWK objects %d -> %d", live, got)
		}
	})
}
