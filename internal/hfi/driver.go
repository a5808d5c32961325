package hfi

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/uproc"
)

// Receive-context geometry programmed by the driver at open time.
const (
	HdrqEntries = 16384
	EagerSlots  = 4096
	CQEntries   = 4096
)

// ContextGeometry resolves the per-context ring sizes, honoring any
// model.Params overrides (fault-injection shrinks them); zero fields
// select the hardware defaults above. TIDs are clamped to the bitmap
// capacity of hfi1_ctxtdata.tid_map.
func ContextGeometry(pr *model.Params) (hdrq, eager, cq, tids int) {
	hdrq, eager, cq, tids = HdrqEntries, EagerSlots, CQEntries, TIDsPerContext
	if pr.HdrqEntries > 0 {
		hdrq = pr.HdrqEntries
	}
	if pr.EagerSlots > 0 {
		eager = pr.EagerSlots
	}
	if pr.CQEntries > 0 {
		cq = pr.CQEntries
	}
	if pr.TIDsPerContext > 0 && pr.TIDsPerContext < tids {
		tids = pr.TIDsPerContext
	}
	return hdrq, eager, cq, tids
}

// Mmap kinds understood by the driver's mmap file operation.
const (
	MmapStatus uint32 = 1
	MmapHdrq   uint32 = 2
	MmapEager  uint32 = 3
	MmapCQ     uint32 = 4
)

// LinuxDriver is the stock Linux HFI1 driver. It registers file
// operations with the VFS, uses get_user_pages for user buffers, builds
// PAGE_SIZE SDMA requests, and processes completion interrupts on Linux
// CPUs. It knows nothing about McKernel or the PicoDriver: the entire
// §3 architecture works without modifying this type.
type LinuxDriver struct {
	K   *linux.Kernel
	NIC *NIC

	pr  *model.Params
	reg *kstruct.Registry `snap:"-"` // the layouts DWARFBlob encodes
	// DWARFBlob is the module's debugging information, available to
	// whoever wants to inspect the binary (the PicoDriver port does).
	DWARFBlob []byte

	ddVA     kmem.VirtAddr // hfi1_devdata
	engBase  kmem.VirtAddr // sdma_engine array
	nEngines int
	// completionVA is the driver's SDMA completion callback in Linux
	// kernel TEXT.
	completionVA kmem.VirtAddr
	worlds       []*kmem.Space

	nextCtxt int
	open     map[int]*openContext // by context id

	// pinnedByTxreq maps a user_sdma_txreq kernel address to the pages
	// pinned for that transfer; the completion callback unpins them and
	// puts the list back in pageLists, emptied, for a later writev.
	pinnedByTxreq map[kmem.VirtAddr][]mem.Extent
	pageLists     pool.Pool[[]mem.Extent] `snap:"-"`
	// tidPins maps context → TID index → the pinned extent it covers.
	tidPins map[int]map[int]mem.Extent

	irq func(ctx *kernel.Ctx, batch any) `snap:"-"` // d.handleIRQ, bound once
}

type openContext struct {
	id        int
	fdataVA   kmem.VirtAddr
	ctxtVA    kmem.VirtAddr
	statusExt mem.Extent
	hdrqExt   mem.Extent
	eagerExt  mem.Extent
	cqExt     mem.Extent
}

// Compile-time check: the driver implements the VFS file operations.
var _ linux.Driver = (*LinuxDriver)(nil)

// NewLinuxDriver performs "module init": allocates devdata and the SDMA
// engine array in Linux kernel memory, registers the completion callback
// in Linux TEXT, and hooks the NIC's completion interrupt.
func NewLinuxDriver(k *linux.Kernel, nic *NIC, pr *model.Params, worlds []*kmem.Space) (*LinuxDriver, error) {
	m, err := shippedModule()
	if err != nil {
		return nil, err
	}
	d := &LinuxDriver{
		K: k, NIC: nic, pr: pr, reg: m.Reg, DWARFBlob: m.Blob,
		nEngines: pr.SDMAEngines, worlds: worlds,
		open:          make(map[int]*openContext),
		pinnedByTxreq: make(map[kmem.VirtAddr][]mem.Extent),
		tidPins:       make(map[int]map[int]mem.Extent),
		pageLists:     pool.New[[]mem.Extent]("hfi: page list", nil, nil, nil),
	}
	d.irq = d.handleIRQ
	cpu := k.Pool.CPUs()[0]
	reg := m.Reg

	ddLayout, err := reg.Lookup("hfi1_devdata")
	if err != nil {
		return nil, err
	}
	dd, err := kstruct.New(k.Space, ddLayout, cpu)
	if err != nil {
		return nil, err
	}
	d.ddVA = dd.Addr

	engLayout, err := reg.Lookup("sdma_engine")
	if err != nil {
		return nil, err
	}
	engBase, err := k.Space.Kmalloc(engLayout.ByteSize*uint64(d.nEngines), cpu)
	if err != nil {
		return nil, err
	}
	zero := make([]byte, engLayout.ByteSize*uint64(d.nEngines))
	if err := k.Space.WriteAt(engBase, zero); err != nil {
		return nil, err
	}
	d.engBase = engBase
	stateLayout, err := reg.Lookup("sdma_state")
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.nEngines; i++ {
		eng := kstruct.Obj{Space: k.Space, Addr: engBase, Layout: engLayout}.Index(i)
		if err := eng.SetU("this_idx", uint64(i)); err != nil {
			return nil, err
		}
		if err := eng.SetU("descq_cnt", 2048); err != nil {
			return nil, err
		}
		stAddr, err := eng.FieldAddr("state", 0)
		if err != nil {
			return nil, err
		}
		st := kstruct.Obj{Space: k.Space, Addr: stAddr, Layout: stateLayout}
		if err := st.SetU("current_state", SdmaStateS99Running); err != nil {
			return nil, err
		}
		if err := st.SetU("go_s99_running", 1); err != nil {
			return nil, err
		}
		lockAddr, err := eng.FieldAddr("tail_lock", 0)
		if err != nil {
			return nil, err
		}
		if _, err := kernel.NewSpinLock(k.Space, lockAddr, kernel.LinuxSpinLockLayout); err != nil {
			return nil, err
		}
	}
	if err := dd.SetU("num_sdma", uint64(d.nEngines)); err != nil {
		return nil, err
	}
	if err := dd.SetPtr("per_sdma", engBase); err != nil {
		return nil, err
	}
	if err := dd.SetU("node", uint64(nic.Node)); err != nil {
		return nil, err
	}

	// The completion callback lives in Linux TEXT; McKernel-initiated
	// transfers register their own duplicate (§3.3).
	d.completionVA, err = k.Space.RegisterText("hfi1_sdma_txreq_complete", d.completionFn)
	if err != nil {
		return nil, err
	}

	nic.SetIRQSink(d.raiseIRQ)
	return d, nil
}

// raiseIRQ is the NIC's interrupt sink: it stamps the batch with the
// raise time and queues the handler for it on the Linux CPUs.
func (d *LinuxDriver) raiseIRQ(batch *SDMATxn) {
	batch.irqRaised = d.K.Engine().Now()
	d.K.Pool.Submit("hfi1-sdma-irq", d.irq, batch)
}

// handleIRQ is the completion interrupt handler for the *SDMATxn batch
// it is given: it runs every batched transaction's completion callback
// (after error recovery) on a Linux CPU.
func (d *LinuxDriver) handleIRQ(ctx *kernel.Ctx, arg any) {
	batch := arg.(*SDMATxn)
	raised := batch.irqRaised
	nic := d.NIC
	// The IRQ span covers delivery (queueing for a Linux CPU) plus
	// handler execution, on the servicing CPU's track.
	defer func() {
		if rec := d.K.Engine().Recorder(); rec != nil {
			rec.Span(trace.CatIRQ, "hfi1-sdma-irq", ctx.P.Name(), raised, ctx.Now())
		}
	}()
	ctx.Spend(d.pr.IRQHandlerCost)
	for txn, next := batch, (*SDMATxn)(nil); txn != nil; txn = next {
		next = txn.irqNext
		status := uint64(0)
		if txn.Err != nil {
			resubmitted, st, rerr := d.recoverSDMA(ctx, txn)
			if rerr != nil {
				nic.Fail(fmt.Errorf("hfi: node %d SDMA recovery: %w", nic.Node, rerr))
				return
			}
			if resubmitted {
				// The transaction is back on an engine; its completion (or
				// next error) arrives later, and it is recycled after that.
				continue
			}
			status = st
		}
		fn, err := d.K.Space.Resolve(d.worlds, kmem.VirtAddr(txn.CallbackVA))
		if err != nil {
			// An unresolvable callback address is a wiring bug.
			panic(fmt.Sprintf("hfi: completion callback: %v", err))
		}
		// Data-dependent callback failures (CQ overflow, layout skew)
		// abort the simulation with a diagnosable error: IRQ context has
		// no caller to return them to.
		if err := fn(ctx, txn.CallbackArg, status); err != nil {
			nic.Fail(fmt.Errorf("hfi: node %d completion: %w", nic.Node, err))
			return
		}
		// The callback was the last reader of the transaction.
		nic.Txns.Put(txn)
	}
}

// Pools returns the counts of the driver's page-list pool.
func (d *LinuxDriver) Pools() []pool.Stats { return []pool.Stats{d.pageLists.Stats()} }

// OutstandingTxreqPins returns the number of in-flight SDMA transfers
// still holding get_user_pages pins (zero after all completions ran).
func (d *LinuxDriver) OutstandingTxreqPins() int { return len(d.pinnedByTxreq) }

// OutstandingTIDPins returns the number of RcvArray entries still
// holding page pins across all open contexts.
func (d *LinuxDriver) OutstandingTIDPins() int {
	n := 0
	for _, m := range d.tidPins {
		n += len(m)
	}
	return n
}

// OpenContexts returns the number of contexts not yet released.
func (d *LinuxDriver) OpenContexts() int { return len(d.open) }

// Registry exposes the driver's authoritative layouts (test oracle; the
// PicoDriver must NOT use this — it extracts from DWARFBlob).
func (d *LinuxDriver) Registry() *kstruct.Registry { return d.reg }

func (d *LinuxDriver) layout(name string) *kstruct.Layout {
	l, err := d.reg.Lookup(name)
	if err != nil {
		panic(err)
	}
	return l
}

func (d *LinuxDriver) obj(name string, va kmem.VirtAddr) kstruct.Obj {
	return kstruct.Obj{Space: d.K.Space, Addr: va, Layout: d.layout(name)}
}

// recoverSDMA handles a transaction the engine aborted mid-transfer:
// resubmit the unsent remainder while the retry budget lasts, then
// degrade it to PIO chunks — or, when degradation is disabled in the
// fault profile, hand back an error status for the CQ completion.
func (d *LinuxDriver) recoverSDMA(ctx *kernel.Ctx, txn *SDMATxn) (resubmitted bool, status uint64, err error) {
	// Requests before FailedAt are already on the wire; only the
	// remainder is retried or degraded. It moves to the front so the
	// list keeps its capacity for the transaction's next use.
	txn.Requests = append(txn.Requests[:0], txn.Requests[txn.FailedAt:]...)
	txn.FailedAt = 0
	txn.Err = nil
	txn.Attempts++
	if txn.Attempts <= d.pr.SDMARetryBudget {
		begin := ctx.Now()
		if err := d.NIC.SubmitSDMA(ctx.P, txn); err != nil {
			return false, 0, err
		}
		if rec := d.K.Engine().Recorder(); rec != nil {
			rec.SpanBytes(trace.CatSDMA, "sdma-retry", ctx.P.Name(), begin, ctx.Now(), txn.Bytes())
		}
		return true, 0, nil
	}
	if fp := d.NIC.Faults(); fp != nil && fp.SDMANoDegrade {
		return false, CQErrBit, nil
	}
	begin := ctx.Now()
	for _, req := range txn.Requests {
		if err := d.NIC.PIOChunk(ctx.P, txn, req); err != nil {
			return false, 0, err
		}
	}
	if rec := d.K.Engine().Recorder(); rec != nil {
		rec.SpanBytes(trace.CatSDMA, "sdma-degrade", ctx.P.Name(), begin, ctx.Now(), txn.Bytes())
	}
	return false, 0, nil
}

// completionFn is the SDMA completion callback for the txreq record at
// kernel address arg: append the completion sequence to the context's
// send CQ and release the transfer metadata. It runs on a Linux CPU in
// IRQ context; failures are returned and routed to the simulation by the
// IRQ handler. status is an error status (CQErrBit, or 0) OR'd into the
// posted sequence word.
func (d *LinuxDriver) completionFn(kctx any, arg, status uint64) error {
	ctx := kctx.(*kernel.Ctx)
	recVA := kmem.VirtAddr(arg)
	rec := d.obj("user_sdma_txreq", recVA)
	ctxtVA, err := rec.GetPtr("ctxt_kva")
	if err != nil {
		return fmt.Errorf("hfi: completion txreq read: %w", err)
	}
	seq, _ := rec.GetU("comp_seq")
	seq |= status
	if err := d.postCompletion(ctx, ctxtVA, seq); err != nil {
		return err
	}
	// Unpin the transfer's pages and free the metadata (Linux side).
	if pages, ok := d.pinnedByTxreq[recVA]; ok {
		for _, pg := range pages {
			d.K.Space.Alloc.Phys().Unpin(pg)
		}
		delete(d.pinnedByTxreq, recVA)
		d.pageLists.Put(pages[:0])
	}
	if err := d.K.Space.Kfree(recVA, ctx.CPU); err != nil {
		return fmt.Errorf("hfi: completion kfree: %w", err)
	}
	return nil
}

// postCompletion appends seq to the context's completion queue under the
// CQ lock and wakes pollers. Shared by the Linux callback and (via the
// same layouts) the McKernel duplicate.
func (d *LinuxDriver) postCompletion(ctx *kernel.Ctx, ctxtVA kmem.VirtAddr, seq uint64) error {
	return PostCompletion(ctx, d.K.Space, d.reg, d.NIC, ctxtVA, seq)
}

// PostCompletion is the CQ-append routine: read the head counter from
// the status page, bounds-check against the consumer tail, write the
// sequence number into the CQ ring and advance the head — all through
// the given kernel's address space and the driver's structure layouts.
func PostCompletion(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, nic *NIC, ctxtVA kmem.VirtAddr, seq uint64) error {
	ctxtLayout, err := reg.Lookup("hfi1_ctxtdata")
	if err != nil {
		return err
	}
	cctx := kstruct.Obj{Space: space, Addr: ctxtVA, Layout: ctxtLayout}
	lockAddr, err := cctx.FieldAddr("cq_lock", 0)
	if err != nil {
		return err
	}
	lock := &kernel.SpinLock{Space: space, Addr: lockAddr,
		Layout: kernel.LinuxSpinLockLayout, SpinDelay: kernel.DefaultSpinDelay}
	if err := lock.Lock(ctx.P); err != nil {
		return err
	}
	defer lock.Unlock()

	statusVA, err := cctx.GetPtr("status_kva")
	if err != nil {
		return err
	}
	cqVA, err := cctx.GetPtr("cq_kva")
	if err != nil {
		return err
	}
	cqEntries, err := cctx.GetU("cq_entries")
	if err != nil {
		return err
	}
	head, err := space.ReadU64(statusVA + StatusCQHead)
	if err != nil {
		return err
	}
	tail, err := space.ReadU64(statusVA + StatusCQTail)
	if err != nil {
		return err
	}
	if head-tail >= cqEntries {
		return fmt.Errorf("hfi: send CQ overflow on ctxt %#x", ctxtVA)
	}
	if err := space.WriteU64(cqVA+kmem.VirtAddr((head%cqEntries)*8), seq); err != nil {
		return err
	}
	if err := space.WriteU64(statusVA+StatusCQHead, head+1); err != nil {
		return err
	}
	id, err := cctx.GetU("ctxt")
	if err != nil {
		return err
	}
	nic.NotifyContext(int(id))
	return nil
}

// Open implements the device open: allocate a receive context, its host
// memory areas, and the per-file data.
func (d *LinuxDriver) Open(ctx *kernel.Ctx, f *linux.File) error {
	ctx.Spend(25 * time.Microsecond) // slow-path device initialization
	id := d.nextCtxt
	d.nextCtxt++

	alloc := func(bytes uint64) (mem.Extent, kmem.VirtAddr, error) {
		ext, err := d.K.Space.Alloc.AllocContig(bytes, mem.PreferMCDRAM)
		if err != nil {
			return mem.Extent{}, 0, err
		}
		va := d.K.Space.Layout.DirectMapVirt(ext.Addr)
		return ext, va, nil
	}
	hdrqEntries, eagerSlots, cqEntries, tidCount := ContextGeometry(d.pr)
	statusExt, statusVA, err := alloc(mem.PageSize4K) // status page
	if err != nil {
		return err
	}
	// Zero the status page counters.
	if err := d.K.Space.WriteAt(statusVA, make([]byte, StatusPageSize)); err != nil {
		return err
	}
	hdrqExt, hdrqVA, err := alloc(uint64(hdrqEntries) * HdrqEntrySize)
	if err != nil {
		return err
	}
	eagerExt, eagerVA, err := alloc(uint64(eagerSlots) * d.pr.EagerChunk)
	if err != nil {
		return err
	}
	cqExt, cqVA, err := alloc(uint64(cqEntries) * 8)
	if err != nil {
		return err
	}

	cctx, err := kstruct.New(d.K.Space, d.layout("hfi1_ctxtdata"), ctx.CPU)
	if err != nil {
		return err
	}
	fields := []struct {
		name string
		v    uint64
	}{
		{"ctxt", uint64(id)}, {"node", uint64(d.NIC.Node)},
		{"status_kva", uint64(statusVA)}, {"hdrq_kva", uint64(hdrqVA)},
		{"eager_kva", uint64(eagerVA)}, {"cq_kva", uint64(cqVA)},
		{"hdrq_entries", uint64(hdrqEntries)}, {"eager_slots", uint64(eagerSlots)},
		{"cq_entries", uint64(cqEntries)}, {"tid_cnt", uint64(tidCount)},
	}
	for _, fv := range fields {
		if err := cctx.SetU(fv.name, fv.v); err != nil {
			return err
		}
	}
	for _, lockField := range []string{"cq_lock", "tid_lock"} {
		la, err := cctx.FieldAddr(lockField, 0)
		if err != nil {
			return err
		}
		if _, err := kernel.NewSpinLock(d.K.Space, la, kernel.LinuxSpinLockLayout); err != nil {
			return err
		}
	}

	fdata, err := kstruct.New(d.K.Space, d.layout("hfi1_filedata"), ctx.CPU)
	if err != nil {
		return err
	}
	if err := fdata.SetU("ctxt", uint64(id)); err != nil {
		return err
	}
	if err := fdata.SetPtr("dd", d.ddVA); err != nil {
		return err
	}
	if err := fdata.SetPtr("uctxt", cctx.Addr); err != nil {
		return err
	}

	if _, err := d.NIC.AllocContext(id, statusExt.Addr, hdrqExt.Addr, eagerExt.Addr, cqExt.Addr,
		hdrqEntries, eagerSlots, cqEntries, tidCount); err != nil {
		return err
	}

	d.open[id] = &openContext{
		id: id, fdataVA: fdata.Addr, ctxtVA: cctx.Addr,
		statusExt: statusExt, hdrqExt: hdrqExt, eagerExt: eagerExt, cqExt: cqExt,
	}
	d.tidPins[id] = make(map[int]mem.Extent)
	f.Private = fdata.Addr
	return nil
}

// Release tears a context down.
func (d *LinuxDriver) Release(ctx *kernel.Ctx, f *linux.File) error {
	ctx.Spend(8 * time.Microsecond)
	fdata := d.obj("hfi1_filedata", f.Private)
	idU, err := fdata.GetU("ctxt")
	if err != nil {
		return err
	}
	id := int(idU)
	oc, ok := d.open[id]
	if !ok {
		return fmt.Errorf("hfi: release of unknown context %d", id)
	}
	for idx, ext := range d.tidPins[id] {
		_ = d.NIC.ClearTID(id, idx)
		d.K.Space.Alloc.Phys().Unpin(ext)
	}
	delete(d.tidPins, id)
	d.NIC.FreeContext(id)
	for _, ext := range []mem.Extent{oc.statusExt, oc.hdrqExt, oc.eagerExt, oc.cqExt} {
		d.K.Space.Alloc.FreeContig(ext)
	}
	if err := d.K.Space.Kfree(oc.ctxtVA, ctx.CPU); err != nil {
		return err
	}
	if err := d.K.Space.Kfree(oc.fdataVA, ctx.CPU); err != nil {
		return err
	}
	delete(d.open, id)
	return nil
}

// Writev is the SDMA submission path (§2.2.2): verify buffers, pin pages
// with get_user_pages, translate physical pages into SDMA requests — at
// most PAGE_SIZE each — and submit to an SDMA engine.
func (d *LinuxDriver) Writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, error) {
	ctx.Spend(d.pr.WritevBase)
	if len(iov) < 2 {
		return 0, fmt.Errorf("hfi: writev needs a header and at least one buffer")
	}
	hdr, err := DecodeSDMAHeader(f.Proc, iov[0].Base)
	if err != nil {
		return 0, err
	}
	fdata := d.obj("hfi1_filedata", f.Private)
	ctxtVA, err := fdata.GetPtr("uctxt")
	if err != nil {
		return 0, err
	}
	idU, _ := fdata.GetU("ctxt")
	s, err := d.NIC.TakeScratch(int(idU))
	if err != nil {
		return 0, err
	}
	defer s.Release()
	// get_user_pages over the payload vectors: per-page extents, pinned.
	// The list stays with the transfer until its completion unpins it.
	pages := d.pageLists.Get()
	unpin := func() {
		d.K.PutUserPages(f.Proc, pages)
		d.pageLists.Put(pages[:0])
	}
	for _, v := range iov[1:] {
		if pages, err = d.K.GetUserPages(ctx, f.Proc, pages, v.Base, v.Len); err != nil {
			unpin()
			return 0, err
		}
	}
	txn := d.NIC.Txns.Get()
	switch hdr.Op {
	case OpEager:
		txn.Requests, err = AppendEagerRequests(txn.Requests, pages, mem.PageSize4K, d.pr.EagerChunk)
	case OpExpected:
		s.TIDs, s.Wire, err = ReadTIDListScratch(f.Proc, hdr.TIDListVA, int(hdr.TIDCount), s.TIDs, s.Wire)
		if err == nil {
			txn.Requests, err = AppendExpectedRequests(txn.Requests, pages, mem.PageSize4K, s.TIDs)
		}
	}
	var recVA kmem.VirtAddr
	if err == nil {
		recVA, err = d.submit(ctx, d.K.Space, int(idU), ctxtVA, &hdr, txn, 0)
	}
	if err != nil {
		d.NIC.Txns.Put(txn)
		unpin()
		return 0, err
	}
	d.pinnedByTxreq[recVA] = pages
	return hdr.MsgLen, nil
}

// submit takes the engine tail lock, verifies the engine is running,
// publishes the descriptors and rings the doorbell. allocator selects
// the kernel whose memory holds the completion record (0 = Linux).
func (d *LinuxDriver) submit(ctx *kernel.Ctx, space *kmem.Space, ctxtID int, ctxtVA kmem.VirtAddr,
	hdr *SDMAHeader, txn *SDMATxn, allocator uint64) (kmem.VirtAddr, error) {
	engIdx := ctxtID % d.nEngines
	engLayout := d.layout("sdma_engine")
	engVA := d.engBase + kmem.VirtAddr(uint64(engIdx)*engLayout.ByteSize)
	return SubmitToEngine(ctx, space, d.reg, d.NIC, engVA, engIdx, ctxtVA, hdr, txn, allocator, d.completionVA)
}

// SubmitToEngine is the engine-side submission protocol, expressed over
// structure layouts so that both the Linux driver (authoritative
// layouts) and the PicoDriver (DWARF-extracted layouts) execute the same
// steps against the same kernel memory:
//
//	refuse an empty request list
//	lock engine.tail_lock           (cross-kernel ticket spinlock)
//	check state.current_state == s99_running
//	descq_tail += len(reqs)
//	unlock
//	allocate + fill user_sdma_txreq in the caller's kernel memory
//	ring the doorbell
//
// txn carries the request list (from NIC.Txns); SubmitToEngine fills
// in the rest. On error the transaction was not queued and stays the
// caller's.
func SubmitToEngine(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, nic *NIC,
	engVA kmem.VirtAddr, engIdx int, ctxtVA kmem.VirtAddr, hdr *SDMAHeader,
	txn *SDMATxn, allocator uint64, callbackVA kmem.VirtAddr) (kmem.VirtAddr, error) {

	reqs := txn.Requests
	if len(reqs) == 0 {
		// Refused before the record below is allocated: nothing would
		// ever complete, and so free, it.
		return 0, fmt.Errorf("hfi: empty transaction")
	}
	engLayout, err := reg.Lookup("sdma_engine")
	if err != nil {
		return 0, err
	}
	stateLayout, err := reg.Lookup("sdma_state")
	if err != nil {
		return 0, err
	}
	eng := kstruct.Obj{Space: space, Addr: engVA, Layout: engLayout}
	lockAddr, err := eng.FieldAddr("tail_lock", 0)
	if err != nil {
		return 0, err
	}
	lock := &kernel.SpinLock{Space: space, Addr: lockAddr,
		Layout: kernel.LinuxSpinLockLayout, SpinDelay: kernel.DefaultSpinDelay}
	if err := lock.Lock(ctx.P); err != nil {
		return 0, err
	}
	stAddr, err := eng.FieldAddr("state", 0)
	if err != nil {
		lock.Unlock()
		return 0, err
	}
	st := kstruct.Obj{Space: space, Addr: stAddr, Layout: stateLayout}
	cur, err := st.GetU("current_state")
	if err != nil {
		lock.Unlock()
		return 0, err
	}
	if cur != SdmaStateS99Running {
		lock.Unlock()
		return 0, fmt.Errorf("hfi: engine %d not running (state %d)", engIdx, cur)
	}
	tail, err := eng.GetU("descq_tail")
	if err != nil {
		lock.Unlock()
		return 0, err
	}
	if err := eng.SetU("descq_tail", tail+uint64(len(reqs))); err != nil {
		lock.Unlock()
		return 0, err
	}
	if err := lock.Unlock(); err != nil {
		return 0, err
	}

	txreqLayout, err := reg.Lookup("user_sdma_txreq")
	if err != nil {
		return 0, err
	}
	rec, err := kstruct.New(space, txreqLayout, ctx.CPU)
	if err != nil {
		return 0, err
	}
	var bytes uint64
	for _, r := range reqs {
		bytes += r.Src.Len
	}
	for _, fv := range []struct {
		name string
		v    uint64
	}{
		{"ctxt_kva", uint64(ctxtVA)}, {"comp_seq", uint64(hdr.CompSeq)},
		{"allocator", allocator}, {"engine", uint64(engIdx)},
		{"nreq", uint64(len(reqs))}, {"bytes", bytes},
	} {
		if err := rec.SetU(fv.name, fv.v); err != nil {
			return 0, err
		}
	}

	*txn = SDMATxn{
		Engine:  engIdx,
		DstNode: int(hdr.DstNode), DstCtx: int(hdr.DstCtx),
		Kind:        fabricKind(hdr.Op),
		Hdr:         fabricHeader(hdr),
		Requests:    reqs,
		Synthetic:   hdr.Flags&FlagSynthetic != 0,
		Stripe:      hdr.Flags&FlagStripe != 0,
		CallbackVA:  uint64(callbackVA),
		CallbackArg: uint64(rec.Addr),
	}
	if err := nic.SubmitSDMA(ctx.P, txn); err != nil {
		return 0, err
	}
	return rec.Addr, nil
}

// Ioctl dispatches the driver's command set. Only the TID commands do
// real work on the fast path; the rest are administrative.
func (d *LinuxDriver) Ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	ctx.Spend(d.pr.IoctlBase)
	fdata := d.obj("hfi1_filedata", f.Private)
	idU, err := fdata.GetU("ctxt")
	if err != nil {
		return 0, err
	}
	id := int(idU)
	switch cmd {
	case CmdTIDUpdate, CmdTIDFree:
		s, err := d.NIC.TakeScratch(id)
		if err != nil {
			return 0, err
		}
		defer s.Release()
		if cmd == CmdTIDUpdate {
			return d.tidUpdate(ctx, f, id, arg, s)
		}
		return d.tidFree(ctx, f, id, arg, s)
	case CmdTIDInvalRdy:
		return 0, nil
	case CmdCtxtInfo:
		return uint64(id), nil
	case CmdGetVers, CmdUserInfo:
		return 1080, nil
	case CmdAssignCtxt, CmdSetPKey, CmdAckEvent, CmdCreditUpd,
		CmdRecvCtrl, CmdPollType, CmdEPInfo, CmdSDMAStatus:
		ctx.Spend(300 * time.Nanosecond)
		return 0, nil
	}
	return 0, fmt.Errorf("hfi: unknown ioctl %#x", cmd)
}

// tidUpdate registers an expected-receive buffer: pin user pages with
// get_user_pages, allocate RcvArray entries from the context bitmap
// under the TID lock, program the hardware and report the TID list back
// to user space. Like the submission path, the per-page granularity of
// get_user_pages means every entry covers at most PAGE_SIZE.
func (d *LinuxDriver) tidUpdate(ctx *kernel.Ctx, f *linux.File, id int, arg uproc.VirtAddr, s *Scratch) (uint64, error) {
	ti, err := DecodeTIDInfo(f.Proc, arg)
	if err != nil {
		return 0, err
	}
	pages, err := d.K.GetUserPages(ctx, f.Proc, s.Exts[:0], ti.VAddr, ti.Length)
	s.Exts = pages
	if err != nil {
		return 0, err
	}
	fdata := d.obj("hfi1_filedata", f.Private)
	ctxtVA, err := fdata.GetPtr("uctxt")
	if err != nil {
		return 0, err
	}
	pairs, err := AllocAndProgramTIDs(ctx, d.K.Space, d.reg, d.NIC, ctxtVA, id, pages, d.pr, s, d.tidPins[id])
	if err != nil {
		d.K.PutUserPages(f.Proc, pages)
		return 0, err
	}
	if s.Wire, err = WriteTIDListScratch(f.Proc, ti.TIDListVA, pairs, s.Wire); err != nil {
		return 0, err
	}
	if err := WriteTIDCountBack(f.Proc, arg, uint32(len(pairs))); err != nil {
		return 0, err
	}
	return uint64(len(pairs)), nil
}

// tidFree releases RcvArray entries named in the user TID list and
// unpins their pages.
func (d *LinuxDriver) tidFree(ctx *kernel.Ctx, f *linux.File, id int, arg uproc.VirtAddr, s *Scratch) (uint64, error) {
	ti, err := DecodeTIDInfo(f.Proc, arg)
	if err != nil {
		return 0, err
	}
	pairs, wire, err := ReadTIDListScratch(f.Proc, ti.TIDListVA, int(ti.TIDCount), s.TIDs, s.Wire)
	s.TIDs, s.Wire = pairs, wire
	if err != nil {
		return 0, err
	}
	fdata := d.obj("hfi1_filedata", f.Private)
	ctxtVA, err := fdata.GetPtr("uctxt")
	if err != nil {
		return 0, err
	}
	if err := FreeTIDs(ctx, d.K.Space, d.reg, d.NIC, ctxtVA, id, pairs, d.pr, s); err != nil {
		return 0, err
	}
	for _, tp := range pairs {
		idx, _ := UnpackTID(tp.Idx)
		if ext, ok := d.tidPins[id][idx]; ok {
			d.K.Space.Alloc.Phys().Unpin(ext)
			delete(d.tidPins[id], idx)
		}
	}
	return uint64(len(pairs)), nil
}

// Mmap maps a driver area into the calling process.
func (d *LinuxDriver) Mmap(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	ctx.Spend(3 * time.Microsecond)
	fdata := d.obj("hfi1_filedata", f.Private)
	idU, err := fdata.GetU("ctxt")
	if err != nil {
		return 0, err
	}
	oc, ok := d.open[int(idU)]
	if !ok {
		return 0, fmt.Errorf("hfi: mmap on closed context")
	}
	var ext mem.Extent
	switch kind {
	case MmapStatus:
		ext = oc.statusExt
	case MmapHdrq:
		ext = oc.hdrqExt
	case MmapEager:
		ext = oc.eagerExt
	case MmapCQ:
		ext = oc.cqExt
	default:
		return 0, fmt.Errorf("hfi: unknown mmap kind %d", kind)
	}
	return f.Proc.MapDevice([]mem.Extent{ext})
}

func fabricKind(op uint32) fabric.PacketKind {
	if op == OpExpected {
		return fabric.KindExpected
	}
	return fabric.KindEager
}

func fabricHeader(h *SDMAHeader) fabric.Header {
	return fabric.Header{
		Op: h.Op, SrcRank: h.SrcRank, Tag: h.Tag,
		MsgID: h.MsgID, MsgLen: h.MsgLen, Aux: h.Aux,
	}
}
