package core

import (
	"time"

	"fmt"

	"repro/internal/hfi"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/linux"
	"repro/internal/mckernel"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/uproc"
)

// HFIWants names the structures and fields the HFI fast path touches —
// the "small subset of the fields" observation of §3.2. Everything else
// in the 50K-SLOC driver stays Linux-only.
var HFIWants = map[string][]string{
	"hfi1_filedata": {"ctxt", "dd", "uctxt"},
	"hfi1_devdata":  {"num_sdma", "per_sdma"},
	"sdma_engine":   {"this_idx", "tail_lock", "descq_tail", "state"},
	"sdma_state":    {"current_state", "go_s99_running", "previous_state"},
	"hfi1_ctxtdata": {"ctxt", "cq_lock", "tid_lock", "tid_used", "tid_cnt",
		"status_kva", "cq_kva", "cq_entries", "tid_map"},
	"user_sdma_txreq": nil, // all fields: the fast path owns these records
}

// HFIPico is the OmniPath HFI PicoDriver: the SDMA send (writev) and
// expected-receive registration (the three TID ioctls) ported to
// McKernel. All other file operations keep flowing to the unmodified
// Linux driver via offloading.
type HFIPico struct {
	LWK *mckernel.Kernel
	NIC *hfi.NIC

	pr    *model.Params
	reg   *kstruct.Registry // DWARF-extracted layouts
	space *kmem.Space       // the LWK's address space

	// completionVA is the duplicated completion callback in McKernel
	// TEXT (§3.3): Linux IRQ handlers call it through the cross-kernel
	// image mapping; it frees LWK memory from a Linux CPU.
	completionVA kmem.VirtAddr

	// Coalesce enables the §3.4 optimization: emit SDMA requests up to
	// the hardware maximum across physically contiguous page
	// boundaries, and TID entries up to TIDMaxEntryBytes. Disabling it
	// is the ablation that reduces the fast path to PAGE_SIZE requests
	// like the Linux driver.
	Coalesce bool

	// Stats.
	FastWritevs    uint64
	FastIoctls     uint64
	FallbackCalls  uint64
	CompletionRuns uint64
}

// NewHFIPico ports the fast path: extract layouts from the driver
// module's DWARF blob (once per module build, shared by every node),
// register the duplicated completion callback in LWK TEXT, and hand
// back the driver instance.
func NewHFIPico(fw *Framework, nic *hfi.NIC, dwarfBlob []byte, pr *model.Params) (*HFIPico, error) {
	reg, err := portLayouts(dwarfBlob, "hfipico", HFIWants)
	if err != nil {
		return nil, err
	}
	return NewHFIPicoWithRegistry(fw, nic, reg, pr)
}

// NewHFIPicoWithRegistry builds the driver from explicit layouts. It
// exists for tests that demonstrate the §3.2 hazard: hand it stale
// manually-ported layouts and the fast path corrupts or rejects driver
// state that the DWARF-extracted layouts handle correctly.
func NewHFIPicoWithRegistry(fw *Framework, nic *hfi.NIC, reg *kstruct.Registry, pr *model.Params) (*HFIPico, error) {
	h := &HFIPico{
		LWK: fw.LWK, NIC: nic, pr: pr, reg: reg,
		space:    fw.LWK.Space,
		Coalesce: true,
	}
	var err error
	h.completionVA, err = h.space.RegisterText("hfi1_sdma_txreq_complete_mck", h.completionFn)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// FastPath returns the hooks to register with the LWK syscall layer.
func (h *HFIPico) FastPath() *mckernel.FastPath {
	return &mckernel.FastPath{Writev: h.writev, Ioctl: h.ioctl}
}

// Attach registers the fast path for the HFI device.
func (h *HFIPico) Attach(fw *Framework, path string) error {
	return fw.Attach(path, h.FastPath())
}

func (h *HFIPico) layout(name string) (*kstruct.Layout, error) { return h.reg.Lookup(name) }

func (h *HFIPico) obj(name string, va kmem.VirtAddr) (kstruct.Obj, error) {
	l, err := h.layout(name)
	if err != nil {
		return kstruct.Obj{}, err
	}
	return kstruct.Obj{Space: h.space, Addr: va, Layout: l}, nil
}

// completionFn is the McKernel duplicate of the driver's SDMA completion
// callback (§3.3). It executes on a Linux CPU (IRQ context) but touches
// LWK-allocated metadata: the CQ append goes through the unified address
// space, and the record free takes the foreign-CPU path of the LWK
// allocator.
func (h *HFIPico) completionFn(kctx any, arg, status uint64) error {
	ctx := kctx.(*kernel.Ctx)
	recVA := kmem.VirtAddr(arg)
	rec, err := h.obj("user_sdma_txreq", recVA)
	if err != nil {
		return fmt.Errorf("core: completion: %w", err)
	}
	ctxtVA, err := rec.GetPtr("ctxt_kva")
	if err != nil {
		return fmt.Errorf("core: completion reading ctxt_kva: %w", err)
	}
	seq, err := rec.GetU("comp_seq")
	if err != nil {
		return fmt.Errorf("core: completion reading comp_seq: %w", err)
	}
	seq |= status
	if err := hfi.PostCompletion(ctx, h.space, h.reg, h.NIC, ctxtVA, seq); err != nil {
		return fmt.Errorf("core: completion CQ append: %w", err)
	}
	if err := h.space.Kfree(recVA, ctx.CPU); err != nil {
		return fmt.Errorf("core: completion kfree: %w", err)
	}
	h.CompletionRuns++
	return nil
}

// gatherExtents walks the process page tables over a user range,
// appending to dst. With coalescing, physically contiguous runs merge
// across page boundaries (including large pages); without it, per-page
// extents mimic the get_user_pages shape. McKernel mappings are pinned
// by construction, so no page references are taken (§3.4).
func (h *HFIPico) gatherExtents(ctx *kernel.Ctx, proc *uproc.Process, dst []mem.Extent, base uproc.VirtAddr, length uint64) ([]mem.Extent, bool, error) {
	vma, ok := proc.VMAOf(base)
	if !ok {
		return dst, false, fmt.Errorf("core: writev buffer %#x not mapped", base)
	}
	if !vma.Pinned {
		// Not a pinned McKernel mapping (e.g. a device window): fall
		// back to the Linux driver.
		return dst, false, nil
	}
	var exts []mem.Extent
	var err error
	if h.Coalesce {
		exts, err = proc.PT.WalkExtentsInto(dst, base, length)
	} else {
		exts, err = proc.PT.PagesInto(dst, base, length)
	}
	if err != nil {
		return dst, false, err
	}
	ctx.Spend(time.Duration(len(exts)-len(dst)) * h.pr.PTWalkPerExtent)
	return exts, true, nil
}

// writev is the ported SDMA submission fast path.
func (h *HFIPico) writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, bool, error) {
	ctx.Spend(h.pr.FastPathBase)
	if len(iov) < 2 {
		return 0, false, nil
	}
	hdr, err := hfi.DecodeSDMAHeader(f.Proc, iov[0].Base)
	if err != nil {
		return 0, true, err
	}
	fdata, err := h.obj("hfi1_filedata", f.Private)
	if err != nil {
		return 0, true, err
	}
	ctxtID, err := fdata.GetU("ctxt")
	if err != nil {
		return 0, true, err
	}
	ddVA, err := fdata.GetPtr("dd")
	if err != nil {
		return 0, true, err
	}
	ctxtVA, err := fdata.GetPtr("uctxt")
	if err != nil {
		return 0, true, err
	}
	dd, err := h.obj("hfi1_devdata", ddVA)
	if err != nil {
		return 0, true, err
	}
	numSdma, err := dd.GetU("num_sdma")
	if err != nil {
		return 0, true, err
	}
	if numSdma == 0 {
		return 0, true, fmt.Errorf("core: devdata reports zero SDMA engines (layout skew?)")
	}
	engBase, err := dd.GetPtr("per_sdma")
	if err != nil {
		return 0, true, err
	}
	engLayout, err := h.layout("sdma_engine")
	if err != nil {
		return 0, true, err
	}
	engIdx := int(ctxtID % numSdma)
	engVA := engBase + kmem.VirtAddr(uint64(engIdx)*engLayout.ByteSize)

	s, err := h.NIC.TakeScratch(int(ctxtID))
	if err != nil {
		return 0, true, err
	}
	defer s.Release()
	exts := s.Exts[:0]
	for _, v := range iov[1:] {
		var ok bool
		exts, ok, err = h.gatherExtents(ctx, f.Proc, exts, v.Base, v.Len)
		s.Exts = exts
		if err != nil {
			return 0, true, err
		}
		if !ok {
			h.FallbackCalls++
			return 0, false, nil
		}
	}
	maxReq := h.pr.MaxSDMARequest
	if !h.Coalesce {
		maxReq = mem.PageSize4K
	}
	txn := h.NIC.GetTxn()
	switch hdr.Op {
	case hfi.OpEager:
		txn.Requests, err = hfi.AppendEagerRequests(txn.Requests, exts, maxReq, h.pr.EagerChunk)
	case hfi.OpExpected:
		s.TIDs, s.Wire, err = hfi.ReadTIDListScratch(f.Proc, hdr.TIDListVA, int(hdr.TIDCount), s.TIDs, s.Wire)
		if err == nil {
			txn.Requests, err = hfi.AppendExpectedRequests(txn.Requests, exts, maxReq, s.TIDs)
		}
	default:
		err = fmt.Errorf("core: bad opcode %d", hdr.Op)
	}
	if err == nil {
		_, err = hfi.SubmitToEngine(ctx, h.space, h.reg, h.NIC, engVA, engIdx, ctxtVA,
			&hdr, txn, 1 /* allocator: LWK */, h.completionVA)
	}
	if err != nil {
		h.NIC.PutTxn(txn)
		return 0, true, err
	}
	h.FastWritevs++
	return hdr.MsgLen, true, nil
}

// ioctl fast-paths the three TID commands; anything else falls back to
// the offloaded Linux driver.
func (h *HFIPico) ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, bool, error) {
	if !hfi.TIDCmds[cmd] {
		return 0, false, nil
	}
	ctx.Spend(h.pr.FastPathBase)
	if cmd == hfi.CmdTIDInvalRdy {
		h.FastIoctls++
		return 0, true, nil
	}
	id, ctxtVA, err := h.contextOf(f)
	if err != nil {
		return 0, true, err
	}
	s, err := h.NIC.TakeScratch(id)
	if err != nil {
		return 0, true, err
	}
	defer s.Release()
	if cmd == hfi.CmdTIDUpdate {
		return h.tidUpdate(ctx, f, arg, id, ctxtVA, s)
	}
	return h.tidFree(ctx, f, arg, id, ctxtVA, s)
}

func (h *HFIPico) contextOf(f *linux.File) (int, kmem.VirtAddr, error) {
	fdata, err := h.obj("hfi1_filedata", f.Private)
	if err != nil {
		return 0, 0, err
	}
	id, err := fdata.GetU("ctxt")
	if err != nil {
		return 0, 0, err
	}
	ctxtVA, err := fdata.GetPtr("uctxt")
	if err != nil {
		return 0, 0, err
	}
	return int(id), ctxtVA, nil
}

func (h *HFIPico) tidUpdate(ctx *kernel.Ctx, f *linux.File, arg uproc.VirtAddr, id int, ctxtVA kmem.VirtAddr, s *hfi.Scratch) (uint64, bool, error) {
	ti, err := hfi.DecodeTIDInfo(f.Proc, arg)
	if err != nil {
		return 0, true, err
	}
	exts, ok, err := h.gatherExtents(ctx, f.Proc, s.Exts[:0], ti.VAddr, ti.Length)
	s.Exts = exts
	if err != nil {
		return 0, true, err
	}
	if !ok {
		h.FallbackCalls++
		return 0, false, nil
	}
	maxEntry := h.pr.TIDMaxEntryBytes
	if !h.Coalesce {
		maxEntry = mem.PageSize4K
	}
	s.Segs = hfi.SplitForTIDs(s.Segs[:0], exts, maxEntry)
	pairs, err := hfi.AllocAndProgramTIDs(ctx, h.space, h.reg, h.NIC, ctxtVA, id, s.Segs, h.pr, s, nil)
	if err != nil {
		return 0, true, err
	}
	if s.Wire, err = hfi.WriteTIDListScratch(f.Proc, ti.TIDListVA, pairs, s.Wire); err != nil {
		return 0, true, err
	}
	if err := hfi.WriteTIDCountBack(f.Proc, arg, uint32(len(pairs))); err != nil {
		return 0, true, err
	}
	h.FastIoctls++
	return uint64(len(pairs)), true, nil
}

func (h *HFIPico) tidFree(ctx *kernel.Ctx, f *linux.File, arg uproc.VirtAddr, id int, ctxtVA kmem.VirtAddr, s *hfi.Scratch) (uint64, bool, error) {
	ti, err := hfi.DecodeTIDInfo(f.Proc, arg)
	if err != nil {
		return 0, true, err
	}
	pairs, wire, err := hfi.ReadTIDListScratch(f.Proc, ti.TIDListVA, int(ti.TIDCount), s.TIDs, s.Wire)
	s.TIDs, s.Wire = pairs, wire
	if err != nil {
		return 0, true, err
	}
	if err := hfi.FreeTIDs(ctx, h.space, h.reg, h.NIC, ctxtVA, id, pairs, h.pr, s); err != nil {
		return 0, true, err
	}
	h.FastIoctls++
	return uint64(len(pairs)), true, nil
}
