package hfi

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uproc"
	"repro/internal/vas"
)

// rig is a two-node test harness around the Linux driver.
type rig struct {
	e    *sim.Engine
	pr   model.Params
	fab  *fabric.Fabric
	phys [2]*mem.PhysMem
	lin  [2]*linux.Kernel
	nic  [2]*NIC
	drv  [2]*LinuxDriver
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{e: sim.NewEngine(3), pr: model.Default()}
	fab := fabric.New(r.e, &r.pr)
	r.fab = fab
	for n := 0; n < 2; n++ {
		pm, err := mem.NewPhysMem(
			mem.Region{Base: 0, Size: 512 << 20, Kind: mem.DDR4, Owner: "linux"},
		)
		if err != nil {
			t.Fatal(err)
		}
		r.phys[n] = pm
		space, err := kmem.NewSpace("linux", vas.LinuxLayout(), pm.Partition("linux"), []int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := space.LoadImage(4 << 20); err != nil {
			t.Fatal(err)
		}
		r.lin[n] = linux.NewKernel(r.e, &r.pr, space, []int{0, 1, 2, 3}, 9)
		nic, err := NewNIC(r.e, &r.pr, n, pm, fab)
		if err != nil {
			t.Fatal(err)
		}
		r.nic[n] = nic
		drv, err := NewLinuxDriver(r.lin[n], nic, &r.pr, []*kmem.Space{space})
		if err != nil {
			t.Fatal(err)
		}
		r.drv[n] = drv
		if err := r.lin[n].RegisterDevice("/dev/hfi1", drv); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *rig) proc(n int) *uproc.Process {
	return uproc.NewProcess("app", r.phys[n].Partition("linux"), uproc.BackingScattered4K)
}

// run executes fn in a simulated process and drives the engine.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.e.Go("test", fn)
	if err := r.e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestDriverOpenAssignsContexts(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		proc := r.proc(0)
		f1, err := r.lin[0].Open(ctx, proc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		f2, err := r.lin[0].Open(ctx, proc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		id1, err := r.lin[0].Ioctl(ctx, f1, CmdCtxtInfo, 0)
		if err != nil {
			t.Error(err)
			return
		}
		id2, _ := r.lin[0].Ioctl(ctx, f2, CmdCtxtInfo, 0)
		if id1 == id2 {
			t.Errorf("contexts not distinct: %d %d", id1, id2)
		}
		if _, ok := r.nic[0].Context(int(id1)); !ok {
			t.Error("hardware context missing")
		}
		if err := r.lin[0].Close(ctx, f1); err != nil {
			t.Error(err)
		}
		if _, ok := r.nic[0].Context(int(id1)); ok {
			t.Error("hardware context survived close")
		}
		if err := r.lin[0].Close(ctx, f2); err != nil {
			t.Error(err)
		}
	})
	// No leaked kernel objects beyond module-level state.
	if r.drv[0].Registry() == nil {
		t.Fatal("registry missing")
	}
}

func TestDriverWritevBuildsPageSizedRequests(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		sproc := r.proc(0)
		rproc := r.proc(1)
		sf, err := r.lin[0].Open(ctx, sproc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		rf, err := r.lin[1].Open(&kernel.Ctx{P: p, CPU: 0}, rproc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		rid, _ := r.lin[1].Ioctl(ctx, rf, CmdCtxtInfo, 0)

		const size = 64 << 10
		buf, err := sproc.MmapAnon(size)
		if err != nil {
			t.Error(err)
			return
		}
		hva, _ := sproc.MmapAnon(4096)
		hdr := &SDMAHeader{
			Op: OpEager, DstNode: 1, DstCtx: uint32(rid), SrcRank: 0,
			Tag: 5, MsgID: 1, MsgLen: size, CompSeq: 1, Flags: FlagSynthetic,
		}
		if err := EncodeSDMAHeader(sproc, hva, hdr); err != nil {
			t.Error(err)
			return
		}
		n, err := r.lin[0].Writev(ctx, sf, []linux.IOVec{
			{Base: hva, Len: SDMAHeaderSize},
			{Base: buf, Len: size},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if n != size {
			t.Errorf("writev returned %d", n)
		}
		// Pages are pinned until completion.
		if r.phys[0].PinnedFrames() == 0 {
			t.Error("no pages pinned during transfer")
		}
		// Wait for the transfer to drain and the completion IRQ to fire.
		p.Sleep(5 * time.Millisecond)
	})
	// The Linux driver must have split the transfer at PAGE_SIZE: the
	// paper verified "only up to PAGE_SIZE long SDMA requests".
	if r.nic[0].SDMARequests != 16 {
		t.Fatalf("SDMA requests = %d, want 16 (64KB / 4KB)", r.nic[0].SDMARequests)
	}
	if r.nic[0].SDMAFullSize != 0 {
		t.Fatal("Linux driver produced hardware-maximum requests; it must not coalesce")
	}
	// Completion ran: pins released, CQ entry delivered.
	if got := r.phys[0].PinnedFrames(); got != 0 {
		t.Fatalf("%d frames still pinned after completion", got)
	}
	if r.nic[0].IRQsRaised == 0 {
		t.Fatal("no completion IRQ raised")
	}
}

func TestDriverTIDUpdateAndFree(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 1}
		proc := r.proc(0)
		f, err := r.lin[0].Open(ctx, proc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		id, _ := r.lin[0].Ioctl(ctx, f, CmdCtxtInfo, 0)
		const size = 128 << 10
		buf, _ := proc.MmapAnon(size)
		listVA, _ := proc.MmapAnon(64 << 10)
		argVA, _ := proc.MmapAnon(4096)
		ti := &TIDInfo{VAddr: buf, Length: size, TIDListVA: listVA, TIDCount: 1024}
		if err := EncodeTIDInfo(proc, argVA, ti); err != nil {
			t.Error(err)
			return
		}
		n, err := r.lin[0].Ioctl(ctx, f, CmdTIDUpdate, argVA)
		if err != nil {
			t.Error(err)
			return
		}
		// Scattered 4K backing: one RcvArray entry per page.
		if n != size/mem.PageSize4K {
			t.Errorf("TID entries = %d, want %d", n, size/mem.PageSize4K)
		}
		hwctx, _ := r.nic[0].Context(int(id))
		if hwctx.TIDsProgrammed != uint64(n) {
			t.Errorf("programmed = %d", hwctx.TIDsProgrammed)
		}
		// TID pages stay pinned until freed.
		if r.phys[0].PinnedFrames() != int(n) {
			t.Errorf("pinned frames = %d", r.phys[0].PinnedFrames())
		}
		pairs, wire, err := ReadTIDListScratch(proc, listVA, int(n), nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Free them all.
		if _, err := WriteTIDListScratch(proc, listVA, pairs, wire); err != nil {
			t.Error(err)
			return
		}
		ti.TIDCount = uint32(len(pairs))
		if err := EncodeTIDInfo(proc, argVA, ti); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.lin[0].Ioctl(ctx, f, CmdTIDFree, argVA); err != nil {
			t.Error(err)
			return
		}
		if r.phys[0].PinnedFrames() != 0 {
			t.Errorf("pins leaked after TID free: %d", r.phys[0].PinnedFrames())
		}
		// Double free must fail.
		if _, err := r.lin[0].Ioctl(ctx, f, CmdTIDFree, argVA); err == nil {
			t.Error("double TID free accepted")
		}
	})
}

func TestDriverMmap(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		proc := r.proc(0)
		f, err := r.lin[0].Open(ctx, proc, "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		seen := map[uproc.VirtAddr]bool{}
		for _, kind := range []uint32{MmapStatus, MmapHdrq, MmapEager, MmapCQ} {
			va, err := r.lin[0].MmapDevice(ctx, f, kind, 0)
			if err != nil {
				t.Errorf("mmap kind %d: %v", kind, err)
				return
			}
			if seen[va] {
				t.Error("duplicate mapping address")
			}
			seen[va] = true
			// The mapping is readable through the process page table.
			if _, err := proc.ReadU64(va); err != nil {
				t.Errorf("reading mapping %d: %v", kind, err)
			}
		}
		if _, err := r.lin[0].MmapDevice(ctx, f, 99, 0); err == nil {
			t.Error("unknown mmap kind accepted")
		}
	})
}

func TestDriverAdminIoctls(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		ctx := &kernel.Ctx{P: p, CPU: 0}
		f, err := r.lin[0].Open(ctx, r.proc(0), "/dev/hfi1")
		if err != nil {
			t.Error(err)
			return
		}
		// Over a dozen functionalities; the administrative ones return
		// without touching TID state.
		for _, cmd := range []uint32{
			CmdGetVers, CmdUserInfo, CmdSetPKey, CmdAckEvent, CmdCreditUpd,
			CmdRecvCtrl, CmdPollType, CmdEPInfo, CmdSDMAStatus, CmdAssignCtxt,
			CmdTIDInvalRdy,
		} {
			if _, err := r.lin[0].Ioctl(ctx, f, cmd, 0); err != nil {
				t.Errorf("ioctl %#x: %v", cmd, err)
			}
		}
		if _, err := r.lin[0].Ioctl(ctx, f, 0xDEAD, 0); err == nil {
			t.Error("unknown ioctl accepted")
		}
	})
}
