// Package verbs models an RDMA HCA ("RNIC") over the mlx driver: queue
// pairs with the mandatory RESET→INIT→RTR→RTS state machine, work queues
// in simulated user memory, doorbell-triggered processing on the engine's
// virtual clock, and SEND/RECV plus RDMA WRITE/READ whose payloads move
// page-by-page through real MTT lookups between the nodes' physical
// memories. The control path (QP creation, state transitions, memory
// registration) runs through the driver's ioctls — that is the part the
// paper's §6 future work ports to the LWK — while the data path
// (doorbell, WQE fetch, DMA, CQE) never enters any kernel.
package verbs

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/mem"
	"repro/internal/mlx"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ring is one work or completion queue: contiguous, DMA-visible kernel
// memory holding fixed-stride entries.
type ring struct {
	ext     mem.Extent
	entries uint32
	stride  uint32
}

func (r ring) slot(i uint32) mem.PhysAddr {
	return r.ext.Addr + mem.PhysAddr((i%r.entries)*r.stride)
}

// pendingWR is an initiated SQ work request awaiting its ack, nak or
// read response.
type pendingWR struct {
	wrid   uint64
	opcode uint32
	bytes  uint64
	begin  time.Duration
	// lkey/laddr are the scatter target of an outstanding RDMA READ.
	lkey  uint32
	laddr uint64
}

// msgKey identifies an inbound message stream across any-source QPs.
type msgKey struct {
	node  int
	qpn   uint32
	msgID uint64
}

// recvState tracks an in-progress inbound SEND being scattered into a
// consumed RQ WQE.
type recvState struct {
	key   msgKey
	wrid  uint64
	lkey  uint32
	laddr uint64
	begin time.Duration
}

// hwQP is the HCA-side queue pair state.
type hwQP struct {
	qpn        uint32
	state      uint32
	anySource  bool
	remoteNode int
	remoteQPN  uint32

	sq, rq, cq ring
	db         mem.Extent

	sqHead, sqTail uint32 // consumer / producer-shadow
	rqHead, rqTail uint32
	cqProd         uint32

	scheduled  bool
	doorbellAt time.Duration
	nextMsg    uint64
	pending    map[uint64]*pendingWR
	discard    map[msgKey]bool
	cur        *recvState
}

// RNIC is one node's HCA. All processing happens on two engine daemons
// (WQE scheduler and receive pipeline), so completions on one node are
// totally ordered and runs are deterministic.
type RNIC struct {
	e     *sim.Engine
	pr    *model.Params
	node  int
	phys  *mem.PhysMem
	fab   *fabric.Fabric
	space *kmem.Space // Linux kernel memory: QP rings live here
	// Synthetic skips payload byte copies (large-scale runs); MTT
	// translation, bounds checks and completion flow stay real.
	synthetic bool

	qps     map[uint32]*hwQP
	nextQPN uint32
	keys    map[uint32]mlx.MRHandle

	sched *sim.Queue[*hwQP]
	rxq   *sim.Queue[*fabric.Packet]
	// Notify wakes userspace CQ pollers (the simulated analog of a
	// completion-channel-free busy poll noticing new CQEs).
	Notify *sim.Cond

	// trackName is the cached span-track label ("rnic<node>").
	trackName string

	// Counters (consumed by simtest digests and invariants).
	Doorbells uint64
	WQEs      uint64
	DMAChunks uint64
	CQEs      uint64
	ErrCQEs   uint64
	RxPackets uint64
}

// NewRNIC attaches a node's HCA to the InfiniBand fabric and starts its
// processing daemons.
func NewRNIC(e *sim.Engine, pr *model.Params, node int, phys *mem.PhysMem,
	fab *fabric.Fabric, space *kmem.Space, synthetic bool) (*RNIC, error) {
	r := &RNIC{
		e: e, pr: pr, node: node, phys: phys, fab: fab, space: space,
		synthetic: synthetic,
		qps:       make(map[uint32]*hwQP),
		nextQPN:   1,
		keys:      make(map[uint32]mlx.MRHandle),
		sched:     sim.NewQueue[*hwQP](e),
		rxq:       sim.NewQueue[*fabric.Packet](e),
		Notify:    sim.NewCond(e),
		trackName: fmt.Sprintf("rnic%d", node),
	}
	if _, err := fab.Attach(node, func(pkt *fabric.Packet) { r.rxq.Push(pkt) }); err != nil {
		return nil, err
	}
	e.GoDaemon(fmt.Sprintf("rnic%d/sched", node), r.runSched)
	e.GoDaemon(fmt.Sprintf("rnic%d/rx", node), r.runRx)
	return r, nil
}

// track names this HCA's span track.
func (r *RNIC) track() string { return r.trackName }

// LiveQPs counts QPs not yet destroyed.
func (r *RNIC) LiveQPs() int { return len(r.qps) }

// KeysLive counts programmed (not invalidated) memory keys.
func (r *RNIC) KeysLive() int { return len(r.keys) }

// ---- Control path (mlx.HCA) ----

var _ mlx.HCA = (*RNIC)(nil)

// ProgramKey installs a memory key (driver → HCA at registration time).
func (r *RNIC) ProgramKey(lkey uint32, h mlx.MRHandle) { r.keys[lkey] = h }

// InvalidateKey removes a memory key at deregistration.
func (r *RNIC) InvalidateKey(lkey uint32) { delete(r.keys, lkey) }

// CreateQP allocates the QP and its rings in Linux kernel memory. The
// geometry is taken as given (the user library fills defaults); the CQ
// must hold one completion per possible outstanding WQE so it can never
// overflow.
func (r *RNIC) CreateQP(ctx *kernel.Ctx, info *mlx.QPInfo) (uint32, error) {
	if info.SQEntries == 0 || info.RQEntries == 0 {
		return 0, fmt.Errorf("verbs: zero-sized work queue")
	}
	if info.CQEntries < info.SQEntries+info.RQEntries {
		return 0, fmt.Errorf("verbs: CQ %d entries cannot cover SQ %d + RQ %d",
			info.CQEntries, info.SQEntries, info.RQEntries)
	}
	alloc := func(entries, stride uint32) (ring, error) {
		bytes := (uint64(entries)*uint64(stride) + mem.PageSize4K - 1) &^ uint64(mem.PageSize4K-1)
		ext, err := r.space.Alloc.AllocContig(bytes, mem.PreferMCDRAM)
		if err != nil {
			return ring{}, err
		}
		return ring{ext: ext, entries: entries, stride: stride}, nil
	}
	sq, err := alloc(info.SQEntries, WQESize)
	if err != nil {
		return 0, err
	}
	rq, err := alloc(info.RQEntries, WQESize)
	if err != nil {
		r.space.Alloc.FreeContig(sq.ext)
		return 0, err
	}
	cq, err := alloc(info.CQEntries, CQESize)
	if err != nil {
		r.space.Alloc.FreeContig(sq.ext)
		r.space.Alloc.FreeContig(rq.ext)
		return 0, err
	}
	db, err := r.space.Alloc.AllocContig(uint64(mem.PageSize4K), mem.PreferMCDRAM)
	if err != nil {
		r.space.Alloc.FreeContig(sq.ext)
		r.space.Alloc.FreeContig(rq.ext)
		r.space.Alloc.FreeContig(cq.ext)
		return 0, err
	}
	qpn := r.nextQPN
	r.nextQPN++
	r.qps[qpn] = &hwQP{
		qpn: qpn, state: mlx.QPStateReset,
		sq: sq, rq: rq, cq: cq, db: db,
		pending: make(map[uint64]*pendingWR),
		discard: make(map[msgKey]bool),
	}
	// Ring init: zero-fill is implicit (fresh frames), but the HCA pays
	// for context setup per ring.
	ctx.Spend(3 * time.Microsecond)
	return qpn, nil
}

// ModifyQP advances the state machine; out-of-order transitions are
// rejected exactly like real verbs.
func (r *RNIC) ModifyQP(ctx *kernel.Ctx, qpn uint32, info *mlx.QPInfo) error {
	qp, ok := r.qps[qpn]
	if !ok {
		return fmt.Errorf("verbs: modify of unknown QP %d", qpn)
	}
	switch {
	case qp.state == mlx.QPStateReset && info.State == mlx.QPStateInit:
		qp.state = mlx.QPStateInit
	case qp.state == mlx.QPStateInit && info.State == mlx.QPStateRTR:
		qp.state = mlx.QPStateRTR
		if info.Flags&mlx.QPFlagAnySource != 0 {
			qp.anySource = true
		} else {
			qp.remoteNode = int(info.RemoteNode)
			qp.remoteQPN = info.RemoteQPN
		}
	case qp.state == mlx.QPStateRTR && info.State == mlx.QPStateRTS:
		qp.state = mlx.QPStateRTS
	default:
		return fmt.Errorf("verbs: invalid QP %d transition %d→%d", qpn, qp.state, info.State)
	}
	ctx.Spend(1 * time.Microsecond)
	return nil
}

// DestroyQP frees the QP's ring memory.
func (r *RNIC) DestroyQP(ctx *kernel.Ctx, qpn uint32) error {
	qp, ok := r.qps[qpn]
	if !ok {
		return fmt.Errorf("verbs: destroy of unknown QP %d", qpn)
	}
	r.space.Alloc.FreeContig(qp.sq.ext)
	r.space.Alloc.FreeContig(qp.rq.ext)
	r.space.Alloc.FreeContig(qp.cq.ext)
	r.space.Alloc.FreeContig(qp.db)
	delete(r.qps, qpn)
	ctx.Spend(2 * time.Microsecond)
	return nil
}

// Region exposes one QP ring for mmap.
func (r *RNIC) Region(qpn, region uint32) (mem.Extent, error) {
	qp, ok := r.qps[qpn]
	if !ok {
		return mem.Extent{}, fmt.Errorf("verbs: mmap of unknown QP %d", qpn)
	}
	switch region {
	case mlx.MmapSQ:
		return qp.sq.ext, nil
	case mlx.MmapRQ:
		return qp.rq.ext, nil
	case mlx.MmapCQ:
		return qp.cq.ext, nil
	case mlx.MmapDB:
		return qp.db, nil
	}
	return mem.Extent{}, fmt.Errorf("verbs: unknown mmap region %d", region)
}

// ---- Data path ----

// RingDoorbell is the userspace MMIO store that kicks the HCA: it reads
// the producer tails from the doorbell page and schedules the QP. This
// is the entire submit cost of the kernel-bypass path — no syscall.
func (r *RNIC) RingDoorbell(p *sim.Proc, qpn uint32) error {
	p.Sleep(r.pr.VerbsDoorbell)
	qp, ok := r.qps[qpn]
	if !ok {
		return fmt.Errorf("verbs: doorbell on unknown QP %d", qpn)
	}
	r.Doorbells++
	sqTail, err := r.phys.ReadU64(qp.db.Addr + dbSQTail)
	if err != nil {
		return err
	}
	rqTail, err := r.phys.ReadU64(qp.db.Addr + dbRQTail)
	if err != nil {
		return err
	}
	qp.sqTail = uint32(sqTail)
	qp.rqTail = uint32(rqTail)
	if qp.sqHead != qp.sqTail && !qp.scheduled {
		qp.scheduled = true
		qp.doorbellAt = p.Now()
		r.sched.Push(qp)
	}
	return nil
}

// runSched drains doorbelled QPs: fetch each new WQE by DMA and execute
// it. A single scheduler daemon serializes WQE execution per HCA.
func (r *RNIC) runSched(p *sim.Proc) {
	for {
		qp := r.sched.Pop(p)
		r.e.Recorder().Span(trace.CatVerbs, "doorbell", r.track(), qp.doorbellAt, p.Now())
		for qp.sqHead != qp.sqTail {
			var b [WQESize]byte
			if err := r.phys.ReadAt(qp.sq.slot(qp.sqHead), b[:]); err != nil {
				r.e.Fail(err)
				return
			}
			p.Sleep(r.pr.VerbsWQEFetch)
			wqe := DecodeWQE(b[:])
			r.WQEs++
			r.execWQE(p, qp, &wqe)
			qp.sqHead++
			if err := r.phys.WriteU64(qp.db.Addr+dbSQCons, uint64(qp.sqHead)); err != nil {
				r.e.Fail(err)
				return
			}
		}
		qp.scheduled = false
	}
}

// execWQE runs one send-queue work request.
func (r *RNIC) execWQE(p *sim.Proc, qp *hwQP, w *WQE) {
	begin := p.Now()
	if qp.state != mlx.QPStateRTS || qp.anySource {
		// Not ready to send — including any-source QPs, which are pure
		// targets with no remote binding to address.
		r.writeCQE(p, qp, w.WRID, StatusLocalQPErr, w.Opcode, 0, begin)
		return
	}
	h, ok := r.keys[w.LKey]
	if !ok || w.LAddr < h.IOVA || w.LAddr+w.Len > h.IOVA+h.Length {
		r.writeCQE(p, qp, w.WRID, StatusLocalProt, w.Opcode, 0, begin)
		return
	}
	if w.Opcode == OpcodeRead && h.Access&mlx.AccessLocalWrite == 0 {
		r.writeCQE(p, qp, w.WRID, StatusLocalProt, w.Opcode, 0, begin)
		return
	}
	msgID := qp.nextMsg
	qp.nextMsg++
	pd := &pendingWR{wrid: w.WRID, opcode: w.Opcode, bytes: w.Len, begin: begin,
		lkey: w.LKey, laddr: w.LAddr}
	qp.pending[msgID] = pd

	switch w.Opcode {
	case OpcodeSend, OpcodeWrite:
		dmaBegin := p.Now()
		r.streamOut(p, qp.remoteNode, qp.remoteQPN, qp.qpn, w.Opcode, msgID, h, w)
		r.e.Recorder().SpanBytes(trace.CatVerbs, "dma", r.track(), dmaBegin, p.Now(), w.Len)
	case OpcodeRead:
		pkt := r.fab.GetPacket()
		*pkt = fabric.Packet{
			SrcNode: r.node, DstNode: qp.remoteNode, DstCtx: int(qp.remoteQPN),
			Kind: fabric.KindRDMA,
			Hdr: fabric.Header{Op: OpcodeRead, SrcRank: qp.qpn, Tag: w.RAddr,
				Aux: uint64(w.RKey), MsgID: msgID, MsgLen: w.Len},
			Last: true, Pooled: true,
		}
		if err := r.fab.Send(p, pkt); err != nil {
			r.e.Fail(err)
		}
	default:
		delete(qp.pending, msgID)
		r.writeCQE(p, qp, w.WRID, StatusLocalProt, w.Opcode, 0, begin)
	}
}

// streamOut segments one SEND/WRITE message into MTU packets, gathering
// payload through the local MTT.
func (r *RNIC) streamOut(p *sim.Proc, dstNode int, dstQPN, srcQPN, op uint32,
	msgID uint64, h mlx.MRHandle, w *WQE) {
	off := uint64(0)
	for {
		n := w.Len - off
		if n > r.pr.VerbsMTU {
			n = r.pr.VerbsMTU
		}
		last := off+n == w.Len
		var payload []byte
		if !r.synthetic && n > 0 {
			payload = r.fab.GetBuf(int(n))
			if err := r.dmaAccess(p, h, w.LAddr-h.IOVA+off, payload, false); err != nil {
				r.e.Fail(err)
				return
			}
		} else if n > 0 {
			// Synthetic: pay the translation cost, skip the copy.
			if err := r.dmaAccess(p, h, w.LAddr-h.IOVA+off, nil, false); err != nil {
				r.e.Fail(err)
				return
			}
		}
		pkt := r.fab.GetPacket()
		*pkt = fabric.Packet{
			SrcNode: r.node, DstNode: dstNode, DstCtx: int(dstQPN),
			Kind: fabric.KindRDMA,
			Hdr: fabric.Header{Op: op, SrcRank: srcQPN, Tag: w.RAddr,
				Aux: uint64(w.RKey), MsgID: msgID, MsgLen: w.Len, Offset: off},
			Payload: payload, Bytes: n, Last: last,
			Pooled: true, PooledPayload: payload != nil,
		}
		if err := r.fab.Send(p, pkt); err != nil {
			r.e.Fail(err)
			return
		}
		off += n
		if last {
			break
		}
	}
}

// dmaAccess walks the MTT to translate [off, off+len(buf)) of the MR and
// copies between the physical pages and buf (read or write). A nil buf
// with synthetic mode still pays the per-entry translation cost via
// length tracking: callers pass nil only when bytes are elided.
func (r *RNIC) dmaAccess(p *sim.Proc, h mlx.MRHandle, off uint64, buf []byte, write bool) error {
	want := uint64(len(buf))
	if buf == nil {
		// Synthetic transfers still resolve one chunk per MTU packet.
		want = 0
	}
	pos := uint64(0) // consumed bytes of buf
	base := uint64(0)
	for i := uint64(0); i < h.Entries; i++ {
		entry, err := h.Space.ReadU64(h.MTTVA + kmem.VirtAddr(i*8))
		if err != nil {
			return err
		}
		pa, size, present := mlx.DecodeMTTEntry(entry)
		if !present {
			return fmt.Errorf("verbs: non-present MTT entry %d", i)
		}
		if base+size <= off {
			base += size
			continue
		}
		p.Sleep(r.pr.VerbsMTTLookup)
		r.DMAChunks++
		if buf == nil {
			return nil // translation only
		}
		skip := off + pos - base
		n := size - skip
		if n > want-pos {
			n = want - pos
		}
		var err2 error
		if write {
			err2 = r.phys.WriteAt(pa+mem.PhysAddr(skip), buf[pos:pos+n])
		} else {
			err2 = r.phys.ReadAt(pa+mem.PhysAddr(skip), buf[pos:pos+n])
		}
		if err2 != nil {
			return err2
		}
		pos += n
		base += size
		if pos == want {
			return nil
		}
	}
	if buf == nil {
		return nil
	}
	return fmt.Errorf("verbs: MTT walk ran past the table (off %d, want %d)", off, want)
}

// runRx is the receive pipeline: validates inbound requests against the
// key table, scatters payloads through the MTT and emits acks, naks and
// completions.
func (r *RNIC) runRx(p *sim.Proc) {
	for {
		pkt := r.rxq.Pop(p)
		p.Sleep(r.pr.RcvPacketCost)
		r.RxPackets++
		switch pkt.Hdr.Op {
		case OpcodeWrite:
			r.rxWrite(p, pkt)
		case OpcodeSend:
			r.rxSend(p, pkt)
		case OpcodeRead:
			r.rxRead(p, pkt)
		case opReadResp:
			r.rxReadResp(p, pkt)
		case opAck:
			r.complete(p, pkt, StatusOK)
		case opNak:
			r.complete(p, pkt, uint32(pkt.Hdr.Aux))
		default:
			r.e.Fail(fmt.Errorf("verbs: unknown wire opcode %d", pkt.Hdr.Op))
			return
		}
		// Every handler consumes the packet synchronously (payload bytes
		// are DMA'd before return), so it can go back to the pool here.
		r.fab.Release(pkt)
	}
}

// reply sends an ack/nak (or read response) back to the initiator.
func (r *RNIC) reply(p *sim.Proc, pkt *fabric.Packet, op, status uint32) {
	out := r.fab.GetPacket()
	*out = fabric.Packet{
		SrcNode: r.node, DstNode: pkt.SrcNode, DstCtx: int(pkt.Hdr.SrcRank),
		Kind: fabric.KindRDMA,
		Hdr: fabric.Header{Op: op, SrcRank: uint32(pkt.DstCtx),
			MsgID: pkt.Hdr.MsgID, Aux: uint64(status)},
		Last: true, Pooled: true,
	}
	if err := r.fab.Send(p, out); err != nil {
		r.e.Fail(err)
	}
}

// inKey identifies pkt's message stream for discard tracking.
func inKey(pkt *fabric.Packet) msgKey {
	return msgKey{node: pkt.SrcNode, qpn: pkt.Hdr.SrcRank, msgID: pkt.Hdr.MsgID}
}

// rxTarget resolves and admission-checks the destination QP of an
// inbound request; a nil return means the packet was nak'd or dropped.
func (r *RNIC) rxTarget(p *sim.Proc, pkt *fabric.Packet, needConnected bool) *hwQP {
	qp, ok := r.qps[uint32(pkt.DstCtx)]
	if !ok || qp.state < mlx.QPStateRTR {
		if pkt.Hdr.Offset == 0 {
			r.reply(p, pkt, opNak, StatusRemoteInvalid)
		}
		return nil
	}
	if qp.discard[inKey(pkt)] {
		if pkt.Last {
			delete(qp.discard, inKey(pkt))
		}
		return nil
	}
	wrongFlavor := needConnected && qp.anySource
	wrongPeer := !qp.anySource &&
		(pkt.SrcNode != qp.remoteNode || pkt.Hdr.SrcRank != qp.remoteQPN)
	if wrongFlavor || wrongPeer {
		r.nakAndDiscard(p, qp, pkt, StatusRemoteInvalid)
		return nil
	}
	return qp
}

// nakAndDiscard rejects a message's first packet and arranges for the
// rest of its packets to be dropped silently.
func (r *RNIC) nakAndDiscard(p *sim.Proc, qp *hwQP, pkt *fabric.Packet, status uint32) {
	if pkt.Hdr.Offset != 0 {
		return // already nak'd at offset 0
	}
	r.reply(p, pkt, opNak, status)
	if !pkt.Last {
		qp.discard[inKey(pkt)] = true
	}
}

// checkRemote validates an rkey'd span for an inbound WRITE or READ.
func (r *RNIC) checkRemote(pkt *fabric.Packet, need uint32) (mlx.MRHandle, uint32) {
	h, ok := r.keys[uint32(pkt.Hdr.Aux)]
	if !ok {
		return h, StatusRemoteInvalid
	}
	if h.Access&mlxAccess(need) == 0 {
		return h, StatusRemoteAccess
	}
	raddr, length := pkt.Hdr.Tag, pkt.Hdr.MsgLen
	if raddr < h.IOVA || raddr+length > h.IOVA+h.Length {
		return h, StatusRemoteAccess
	}
	return h, StatusOK
}

// mlxAccess maps a wire opcode to the required MR access bit.
func mlxAccess(op uint32) uint32 {
	if op == OpcodeRead {
		return mlx.AccessRemoteRead
	}
	return mlx.AccessRemoteWrite
}

func (r *RNIC) rxWrite(p *sim.Proc, pkt *fabric.Packet) {
	qp := r.rxTarget(p, pkt, false)
	if qp == nil {
		return
	}
	h, st := r.checkRemote(pkt, OpcodeWrite)
	if st != StatusOK {
		r.nakAndDiscard(p, qp, pkt, st)
		return
	}
	if !r.synthetic && pkt.Bytes > 0 {
		if err := r.dmaAccess(p, h, pkt.Hdr.Tag-h.IOVA+pkt.Hdr.Offset, pkt.Payload, true); err != nil {
			r.e.Fail(err)
			return
		}
	} else if pkt.Bytes > 0 {
		if err := r.dmaAccess(p, h, pkt.Hdr.Tag-h.IOVA+pkt.Hdr.Offset, nil, true); err != nil {
			r.e.Fail(err)
			return
		}
	}
	if pkt.Last {
		r.reply(p, pkt, opAck, StatusOK)
	}
}

func (r *RNIC) rxSend(p *sim.Proc, pkt *fabric.Packet) {
	qp := r.rxTarget(p, pkt, true)
	if qp == nil {
		return
	}
	if pkt.Hdr.Offset == 0 {
		if qp.rqHead == qp.rqTail {
			// Receiver not ready: no posted RQ WQE.
			r.nakAndDiscard(p, qp, pkt, StatusRNR)
			return
		}
		var b [WQESize]byte
		if err := r.phys.ReadAt(qp.rq.slot(qp.rqHead), b[:]); err != nil {
			r.e.Fail(err)
			return
		}
		p.Sleep(r.pr.VerbsWQEFetch)
		rwqe := DecodeWQE(b[:])
		qp.rqHead++
		if err := r.phys.WriteU64(qp.db.Addr+dbRQCons, uint64(qp.rqHead)); err != nil {
			r.e.Fail(err)
			return
		}
		r.WQEs++
		h, ok := r.keys[rwqe.LKey]
		if !ok || h.Access&mlx.AccessLocalWrite == 0 ||
			rwqe.LAddr < h.IOVA || rwqe.LAddr+rwqe.Len > h.IOVA+h.Length {
			r.writeCQE(p, qp, rwqe.WRID, StatusLocalProt, OpcodeRecv, 0, p.Now())
			r.nakAndDiscard(p, qp, pkt, StatusRemoteInvalid)
			return
		}
		if pkt.Hdr.MsgLen > rwqe.Len {
			// Message overruns the posted buffer: local length error on
			// the receiver, remote-invalid nak to the sender.
			r.writeCQE(p, qp, rwqe.WRID, StatusLocalLen, OpcodeRecv, pkt.Hdr.MsgLen, p.Now())
			r.nakAndDiscard(p, qp, pkt, StatusRemoteInvalid)
			return
		}
		qp.cur = &recvState{key: inKey(pkt), wrid: rwqe.WRID, lkey: rwqe.LKey,
			laddr: rwqe.LAddr, begin: p.Now()}
	}
	cur := qp.cur
	if cur == nil || cur.key != inKey(pkt) {
		// Interleaved SENDs can only happen on a misused QP; reject.
		r.nakAndDiscard(p, qp, pkt, StatusRemoteInvalid)
		return
	}
	if pkt.Bytes > 0 {
		h := r.keys[cur.lkey]
		buf := pkt.Payload
		if r.synthetic {
			buf = nil
		}
		if err := r.dmaAccess(p, h, cur.laddr-h.IOVA+pkt.Hdr.Offset, buf, true); err != nil {
			r.e.Fail(err)
			return
		}
	}
	if pkt.Last {
		qp.cur = nil
		r.writeCQE(p, qp, cur.wrid, StatusOK, OpcodeRecv, pkt.Hdr.MsgLen, cur.begin)
		r.reply(p, pkt, opAck, StatusOK)
	}
}

func (r *RNIC) rxRead(p *sim.Proc, pkt *fabric.Packet) {
	qp := r.rxTarget(p, pkt, false)
	if qp == nil {
		return
	}
	h, st := r.checkRemote(pkt, OpcodeRead)
	if st != StatusOK {
		r.nakAndDiscard(p, qp, pkt, st)
		return
	}
	// Stream the response from the target MR back to the requester.
	dmaBegin := p.Now()
	w := &WQE{LAddr: pkt.Hdr.Tag, Len: pkt.Hdr.MsgLen, RKey: uint32(pkt.Hdr.Aux)}
	r.streamOut(p, pkt.SrcNode, pkt.Hdr.SrcRank, uint32(pkt.DstCtx), opReadResp,
		pkt.Hdr.MsgID, h, w)
	r.e.Recorder().SpanBytes(trace.CatVerbs, "dma", r.track(), dmaBegin, p.Now(), pkt.Hdr.MsgLen)
}

func (r *RNIC) rxReadResp(p *sim.Proc, pkt *fabric.Packet) {
	qp, ok := r.qps[uint32(pkt.DstCtx)]
	if !ok {
		return
	}
	pd, ok := qp.pending[pkt.Hdr.MsgID]
	if !ok {
		return
	}
	if pkt.Bytes > 0 {
		h := r.keys[pd.lkey]
		buf := pkt.Payload
		if r.synthetic {
			buf = nil
		}
		if err := r.dmaAccess(p, h, pd.laddr-h.IOVA+pkt.Hdr.Offset, buf, true); err != nil {
			r.e.Fail(err)
			return
		}
	}
	if pkt.Last {
		delete(qp.pending, pkt.Hdr.MsgID)
		r.writeCQE(p, qp, pd.wrid, StatusOK, pd.opcode, pd.bytes, pd.begin)
	}
}

// complete resolves an ack/nak against the initiator's pending table.
func (r *RNIC) complete(p *sim.Proc, pkt *fabric.Packet, status uint32) {
	qp, ok := r.qps[uint32(pkt.DstCtx)]
	if !ok {
		return
	}
	pd, ok := qp.pending[pkt.Hdr.MsgID]
	if !ok {
		return
	}
	delete(qp.pending, pkt.Hdr.MsgID)
	bytes := pd.bytes
	if status != StatusOK {
		bytes = 0
	}
	r.writeCQE(p, qp, pd.wrid, status, pd.opcode, bytes, pd.begin)
}

// writeCQE DMA-writes a completion into the QP's CQ ring, publishes the
// producer index on the doorbell page and wakes pollers.
func (r *RNIC) writeCQE(p *sim.Proc, qp *hwQP, wrid uint64, status, opcode uint32,
	bytes uint64, begin time.Duration) {
	p.Sleep(r.pr.VerbsCQEWrite)
	var b [CQESize]byte
	EncodeCQE(b[:], &CQE{WRID: wrid, Status: status, Opcode: opcode, Bytes: bytes})
	if err := r.phys.WriteAt(qp.cq.slot(qp.cqProd), b[:]); err != nil {
		r.e.Fail(err)
		return
	}
	qp.cqProd++
	if err := r.phys.WriteU64(qp.db.Addr+dbCQProd, uint64(qp.cqProd)); err != nil {
		r.e.Fail(err)
		return
	}
	r.CQEs++
	if status != StatusOK {
		r.ErrCQEs++
	}
	r.e.Recorder().Span(trace.CatVerbs, "cqe", r.track(), begin, p.Now())
	r.Notify.Broadcast()
}
