package hfi

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// SDMATxn is one submitted send transaction: the descriptor list built by
// a driver from a single writev call, plus completion routing. The
// callback address is an opaque 64-bit kernel TEXT address stored in the
// descriptor metadata; the IRQ handler (driver code) dereferences it.
//
// Drivers take transactions from the NIC's pool (NIC.Txns) and the IRQ
// handler puts each back once its completion callback has run; the
// request list keeps its capacity across uses.
type SDMATxn struct {
	Engine    int
	Requests  []SDMARequest
	DstNode   int
	DstCtx    int
	Kind      fabric.PacketKind
	Hdr       fabric.Header
	Synthetic bool
	// Stripe lets the engine alternate a large transfer's requests
	// across both rails of a dual-rail NIC (decoded from FlagStripe in
	// the SDMA header); ignored on single-rail configurations.
	Stripe bool
	// CallbackVA/CallbackArg identify the completion callback: a kernel
	// TEXT symbol and the kernel virtual address of the completion
	// metadata record allocated by the submitting driver.
	CallbackVA  uint64
	CallbackArg uint64

	// Err is set when the engine aborted the transaction mid-transfer
	// (injected descriptor-ring stall); FailedAt is the index of the
	// first request that was NOT sent. The driver's IRQ handler retries
	// the remainder or degrades it to PIO.
	Err      error
	FailedAt int
	// Attempts counts driver resubmissions of this transaction.
	Attempts int

	// submitAt stamps SubmitSDMA entry; the engine's retirement span
	// (submit → last packet on the wire) starts here.
	submitAt time.Duration
	// irqNext links the transactions of one completion interrupt. A
	// handler reads it before handing the transaction back or
	// resubmitting it: either relinks it.
	irqNext *SDMATxn
	// irqRaised stamps a batch's head with its interrupt's raise; the
	// handler's span starts there.
	irqRaised time.Duration `snap:"-"`
}

// Bytes returns the transaction's total payload length.
func (t *SDMATxn) Bytes() uint64 {
	var n uint64
	for _, r := range t.Requests {
		n += r.Src.Len
	}
	return n
}

type tidEntry struct {
	valid bool
	ext   mem.Extent
	// gen advances on every (re)programming of this entry; expected
	// packets carry the generation they were built against and mismatches
	// are dropped (see PackTID).
	gen uint32
}

// Context is one hardware receive context (one per opened device file,
// i.e. per rank). The host-memory areas are allocated by the driver and
// programmed here; the NIC DMAs into them.
//
// The eager ring and the header queue are DMA rings: the NIC fills the
// entry at its head, and the consumer owns the entries from its tail up
// to the head, reading each before it moves the tail past it. An entry
// behind the tail belongs to the hardware again: its bytes are
// undefined, and unbacked once the NIC next writes the ring
// (releaseRing). Each ring starts on a frame boundary and owns its last
// frame whole: the driver allocates rings in whole frames, so the bytes
// past the last entry are padding.
type Context struct {
	ID          int
	StatusPA    mem.PhysAddr
	HdrqPA      mem.PhysAddr
	EagerPA     mem.PhysAddr
	CQPA        mem.PhysAddr
	HdrqEntries int
	EagerSlots  int
	CQEntries   int
	// TIDCount is the context's RcvArray size. tids grows on demand up
	// to the highest index ever programmed; an index beyond it reads as
	// an entry never programmed.
	TIDCount int

	tids []tidEntry
	// eagerReleased and hdrqReleased count the leading entries of each
	// ring whose host frames the NIC has handed back.
	eagerReleased, hdrqReleased uint64
	// Notify is signaled whenever the NIC or the completion path posts
	// an event for this context. It stands in for PSM's busy-polling:
	// instead of burning simulated cycles in empty poll loops, PSM
	// blocks here and re-checks its counters when woken.
	Notify *sim.Cond

	// TIDsProgrammed counts ProgramTID calls (instrumentation).
	TIDsProgrammed uint64

	// scratch is the drivers' per-call working storage (TakeScratch);
	// not state: no call holds it across a snapshot.
	scratch Scratch `snap:"-"`
}

// SDMAEngine is one of the NIC's send-DMA engines with its descriptor
// queue. The engine is an event handler, not a process: it takes a
// transaction off its queue, pays SDMADescCost per request with one
// AfterArg each, sends the request's packet with fabric.Transmit and
// retires the transaction once the last one is on the wire. An empty
// queue holds it as a callback waiter that the next SubmitSDMA
// schedules. Every pending event of an engine carries the engine (or
// its Transmit) as its argument.
type SDMAEngine struct {
	Index int
	q     *sim.Queue[*SDMATxn]
	// drain is signaled as transactions retire; submitters block on it
	// when the descriptor ring (model.Params.SDMAQueueDepth) is full.
	drain *sim.Cond
	// BytesSent and Submitted are instrumentation counters.
	BytesSent uint64
	Submitted uint64

	n *NIC `snap:"-"`
	// track names the engine's trace spans ("nic<node>-sdma<index>").
	track string `snap:"-"`
	// The transaction in flight (nil while idle, and the rest zero): the
	// index of the next request, the injected failure point (-1: none),
	// and the rail choice made when the engine took the transaction.
	txn    *SDMATxn
	req    int
	failAt int
	rail   int
	stripe bool
	// x is the send of request req, from the serialization wait until
	// the packet has left the wire.
	x fabric.Transmit
}

// NIC is the HFI hardware model of one node.
type NIC struct {
	Node int

	e    *sim.Engine
	pr   *model.Params
	phys *mem.PhysMem
	fab  *fabric.Fabric
	port *fabric.Port
	// port1 is the second rail's fabric port (nil unless
	// model.Params.DualRail); both rails feed the same rx pipeline.
	port1 *fabric.Port
	// railOf records the transmit rail currently selected per
	// destination node (rail 0 when absent); the PSM health machine
	// reroutes traffic here on link failover.
	railOf map[int]int

	contexts map[int]*Context
	engines  []*SDMAEngine
	rxq      *sim.Queue[*fabric.Packet]

	// irqSink receives each interrupt's batch: completed transactions
	// linked through irqNext, in completion order. irqHead/irqTail is the
	// batch pending delivery; its interrupt event is deliverIRQ on the
	// NIC.
	irqSink          func(batch *SDMATxn)
	irqHead, irqTail *SDMATxn
	irqScheduled     bool
	// Txns is the transaction pool. A transaction goes back only from
	// its one holder: never queued, or its completion callback has run.
	Txns pool.Pool[*SDMATxn] `snap:"-"`

	// frng draws SDMA error injections (lazily created from the fault
	// profile seed and node id, so the pattern replays per seed).
	frng *xrand.Rand

	// Instrumentation.
	RxPackets    uint64
	SDMARequests uint64
	SDMAFullSize uint64 // requests at exactly MaxSDMARequest
	IRQsRaised   uint64
	// RxDropped counts packets that arrived for a context that no longer
	// exists (racing a teardown); real hardware drops these too.
	RxDropped uint64
	// RxCorrupt counts packets discarded by the port CRC check.
	RxCorrupt uint64
	// RxStaleTID counts expected packets dropped because their TID
	// reference was invalid or generation-stale (late duplicates on a
	// lossy fabric racing a window teardown).
	RxStaleTID uint64
	// SDMAErrors counts injected mid-transfer SDMA aborts.
	SDMAErrors uint64
	// TIDProgramOps / TIDClearOps count RcvArray programming operations
	// NIC-wide; a balanced teardown leaves them equal.
	TIDProgramOps uint64
	TIDClearOps   uint64

	// rxPkt is the packet the receive pipeline is processing, from its
	// pop until RcvPacketCost later (nil while idle).
	rxPkt *fabric.Packet

	// hdrqScratch and hdrqEnt are reused by the rx pipeline: one encode
	// buffer and one decoded-entry record per NIC, instead of one of
	// each per received packet. The NIC has one receive pipeline, which
	// handles one packet at a time, so no packet's entry outlives its
	// handler and neither is state.
	hdrqScratch [HdrqEntrySize]byte `snap:"-"`
	hdrqEnt     HdrqEntry           `snap:"-"`
}

// NewNIC creates the NIC, attaches it to the fabric and powers on its
// SDMA engines and receive pipeline with one AfterArg(0) each. A
// pipeline with nothing to do goes idle at once, but its power-on event
// takes a sequence number, and the tie order of every later event (and
// so golden.json's event counts) rests on it.
func NewNIC(e *sim.Engine, pr *model.Params, node int, phys *mem.PhysMem, fab *fabric.Fabric) (*NIC, error) {
	n := &NIC{
		Node:     node,
		e:        e,
		pr:       pr,
		phys:     phys,
		fab:      fab,
		contexts: make(map[int]*Context),
		rxq:      sim.NewQueue[*fabric.Packet](e),
		Txns: pool.New("hfi: SDMATxn", nil, func() *SDMATxn { return new(SDMATxn) },
			func(t *SDMATxn) { *t = SDMATxn{Requests: t.Requests[:0]} }),
	}
	port, err := fab.Attach(node, func(pkt *fabric.Packet) { n.rxq.Push(pkt) })
	if err != nil {
		return nil, err
	}
	n.port = port
	if pr.DualRail {
		port1, err := fab.Attach(fabric.RailID(node, 1), func(pkt *fabric.Packet) { n.rxq.Push(pkt) })
		if err != nil {
			return nil, err
		}
		n.port1 = port1
	}
	for i := 0; i < pr.SDMAEngines; i++ {
		eng := &SDMAEngine{
			Index: i, q: sim.NewQueue[*SDMATxn](e), drain: sim.NewCond(e),
			n: n, track: fmt.Sprintf("nic%d-sdma%d", node, i),
		}
		eng.x.Done, eng.x.Arg = sdmaSent, eng
		n.engines = append(n.engines, eng)
		e.AfterArg(0, sdmaNext, eng)
	}
	e.AfterArg(0, rxNext, n)
	return n, nil
}

// Params exposes the model constants the NIC was built with (PSM reads
// geometry and thresholds from here, standing in for sysfs/ioctl
// discovery).
func (n *NIC) Params() *model.Params { return n.pr }

// SetIRQSink registers the completion interrupt handler entry point
// (wired by the Linux driver at module init: completions are always
// processed on Linux CPUs, §3.3). Each call hands over one batch, the
// transactions linked through irqNext.
func (n *NIC) SetIRQSink(sink func(batch *SDMATxn)) { n.irqSink = sink }

// LiveContexts returns the number of currently allocated receive
// contexts (teardown-balance instrumentation).
func (n *NIC) LiveContexts() int { return len(n.contexts) }

// Fail aborts the simulation with err. Device pipelines (SDMA engines,
// the receive path, IRQ completion callbacks) run in event context,
// where no process return value can carry the error back to the caller
// under test.
func (n *NIC) Fail(err error) { n.e.Fail(err) }

// Lossy reports whether the NIC's fabric injects faults; PSM enables
// its reliability protocol exactly when this is true.
func (n *NIC) Lossy() bool { return n.fab.Lossy() }

// Faults returns the fabric's fault profile (nil when loss-free).
func (n *NIC) Faults() *fabric.FaultProfile { return n.fab.Faults() }

// Congested reports whether the NIC's fabric runs congestion control;
// PSM arms its ECN/CNP backoff machinery exactly when this is true.
func (n *NIC) Congested() bool { return n.fab.Congested() }

// Dual reports whether the NIC has a second rail attached.
func (n *NIC) Dual() bool { return n.port1 != nil }

// TxRail returns the transmit rail currently selected toward dstNode
// (rail 0 unless the health machine switched it).
func (n *NIC) TxRail(dstNode int) int {
	if n.railOf == nil {
		return 0
	}
	return n.railOf[dstNode]
}

// SetRail selects the transmit rail toward dstNode. All subsequent PIO
// and SDMA traffic for that node, including go-back-N retransmissions,
// leaves through the chosen rail's port.
func (n *NIC) SetRail(dstNode, rail int) {
	if n.railOf == nil {
		n.railOf = make(map[int]int)
	}
	if rail == 0 {
		delete(n.railOf, dstNode)
		return
	}
	n.railOf[dstNode] = rail
}

// RailDown reports whether the given rail's link toward dstNode is
// inside an outage window in either direction — a dead reverse path
// starves acknowledgments just as thoroughly as a dead forward path.
func (n *NIC) RailDown(rail, dstNode int) bool {
	src := fabric.RailID(n.Node, rail)
	dst := fabric.RailID(dstNode, rail)
	return n.fab.LinkDown(src, dst) || n.fab.LinkDown(dst, src)
}

// sdmaErrAt draws the failure point for one transaction attempt: -1
// means the attempt succeeds, otherwise the index of the first request
// the engine fails before sending.
func (n *NIC) sdmaErrAt(nreq int) int {
	fp := n.fab.Faults()
	if fp == nil || fp.SDMAErr <= 0 {
		return -1
	}
	if n.frng == nil {
		n.frng = xrand.New(fp.Seed + int64(n.Node)*1000003 + 1)
	}
	if n.frng.Float64() >= fp.SDMAErr {
		return -1
	}
	return int(n.frng.Int63n(int64(nreq)))
}

// AllocContext registers a receive context with its host-memory areas.
func (n *NIC) AllocContext(id int, statusPA, hdrqPA, eagerPA, cqPA mem.PhysAddr,
	hdrqEntries, eagerSlots, cqEntries, tidCount int) (*Context, error) {
	if _, dup := n.contexts[id]; dup {
		return nil, fmt.Errorf("hfi: context %d already allocated on node %d", id, n.Node)
	}
	ctx := &Context{
		ID: id, StatusPA: statusPA, HdrqPA: hdrqPA, EagerPA: eagerPA, CQPA: cqPA,
		HdrqEntries: hdrqEntries, EagerSlots: eagerSlots, CQEntries: cqEntries,
		TIDCount: tidCount,
		Notify:   sim.NewCond(n.e),
	}
	n.contexts[id] = ctx
	return ctx, nil
}

// FreeContext releases a context.
func (n *NIC) FreeContext(id int) { delete(n.contexts, id) }

// Context returns a receive context by id.
func (n *NIC) Context(id int) (*Context, bool) {
	c, ok := n.contexts[id]
	return c, ok
}

// ProgramTID writes one RcvArray entry: expected-receive packets naming
// this index land at ext.Addr + offset. It returns the entry's new
// generation, which the driver packs into the TID list handed back to
// user space (PackTID).
func (n *NIC) ProgramTID(ctxID, idx int, ext mem.Extent) (uint32, error) {
	ctx, ok := n.contexts[ctxID]
	if !ok {
		return 0, fmt.Errorf("hfi: no context %d", ctxID)
	}
	if idx < 0 || idx >= ctx.TIDCount {
		return 0, fmt.Errorf("hfi: TID index %d out of range", idx)
	}
	if idx >= len(ctx.tids) {
		ctx.tids = append(ctx.tids, make([]tidEntry, idx+1-len(ctx.tids))...)
	}
	if ctx.tids[idx].valid {
		return 0, fmt.Errorf("hfi: TID %d already programmed", idx)
	}
	e := &ctx.tids[idx]
	e.gen++
	e.valid = true
	e.ext = ext
	ctx.TIDsProgrammed++
	n.TIDProgramOps++
	return e.gen, nil
}

// ClearTID invalidates an RcvArray entry. The generation survives the
// clear so stale packets never match a reused entry.
func (n *NIC) ClearTID(ctxID, idx int) error {
	ctx, ok := n.contexts[ctxID]
	if !ok {
		return fmt.Errorf("hfi: no context %d", ctxID)
	}
	if idx < 0 || idx >= len(ctx.tids) || !ctx.tids[idx].valid {
		return fmt.Errorf("hfi: clearing unprogrammed TID %d", idx)
	}
	ctx.tids[idx].valid = false
	ctx.tids[idx].ext = mem.Extent{}
	n.TIDClearOps++
	return nil
}

// SubmitSDMA queues a transaction on its engine. The caller (driver code)
// has already paid the descriptor-construction costs; the doorbell MMIO
// cost is paid here.
func (n *NIC) SubmitSDMA(p *sim.Proc, txn *SDMATxn) error {
	if txn.Engine < 0 || txn.Engine >= len(n.engines) {
		return fmt.Errorf("hfi: engine %d out of range", txn.Engine)
	}
	if len(txn.Requests) == 0 {
		return fmt.Errorf("hfi: empty transaction")
	}
	for _, r := range txn.Requests {
		if r.Src.Len > n.pr.MaxSDMARequest {
			return fmt.Errorf("hfi: request of %d bytes exceeds hardware maximum %d",
				r.Src.Len, n.pr.MaxSDMARequest)
		}
	}
	txn.submitAt = p.Now()
	p.Sleep(n.pr.SDMADoorbell)
	eng := n.engines[txn.Engine]
	if depth := n.pr.SDMAQueueDepth; depth > 0 {
		// Descriptor-ring backpressure: block until the engine drains.
		for eng.q.Len() >= depth {
			eng.drain.Wait(p)
		}
	}
	eng.Submitted++
	eng.q.Push(txn)
	return nil
}

// PIOSend transmits a small message by programmed I/O: the calling
// process pays the store cost and the wire serialization; no SDMA engine
// and no system call are involved. owner, when non-nil, holds a payload
// the caller retains: the caller has taken a hold for this packet, and
// the fabric lets go of it (fabric.PayloadOwner) once the packet is
// delivered or lost. Control packets pass nil.
func (n *NIC) PIOSend(p *sim.Proc, dstNode, dstCtx int, hdr fabric.Header, payload []byte, bytes uint64, owner fabric.PayloadOwner) error {
	return n.pioSend(p, dstNode, dstCtx, hdr, payload, bytes, false, owner)
}

// PIOSendPooled is PIOSend for a payload obtained from AllocPayload:
// ownership transfers to the fabric and the receiving NIC recycles the
// buffer after delivery. The caller must not touch payload again.
func (n *NIC) PIOSendPooled(p *sim.Proc, dstNode, dstCtx int, hdr fabric.Header, payload []byte) error {
	return n.pioSend(p, dstNode, dstCtx, hdr, payload, uint64(len(payload)), true, nil)
}

func (n *NIC) pioSend(p *sim.Proc, dstNode, dstCtx int, hdr fabric.Header, payload []byte, bytes uint64, pooled bool, owner fabric.PayloadOwner) error {
	if payload != nil {
		bytes = uint64(len(payload))
	}
	if bytes > n.pr.PIOMaxSize {
		return fmt.Errorf("hfi: PIO send of %d bytes exceeds PIO limit", bytes)
	}
	p.Sleep(n.pr.PIOTime(bytes))
	rail := n.TxRail(dstNode)
	pkt := n.fab.GetPacket()
	*pkt = fabric.Packet{
		SrcNode: fabric.RailID(n.Node, rail), DstNode: fabric.RailID(dstNode, rail), DstCtx: dstCtx,
		Kind: fabric.KindEager, Hdr: hdr, Payload: payload, Bytes: bytes,
		Pooled: true, PooledPayload: pooled && payload != nil, Owner: owner,
	}
	return n.fab.Send(p, pkt)
}

// AllocPayload returns a zeroed buffer from the fabric's payload pool
// for use with PIOSendPooled; senders that keep payloads past the send
// (reliability-mode retransmit queues) must not use it.
func (n *NIC) AllocPayload(size int) []byte { return n.fab.GetBuf(size) }

// RecyclePayload returns an unsent AllocPayload buffer to the pool.
func (n *NIC) RecyclePayload(b []byte) { n.fab.PutBuf(b) }

// LocalDeliver models PSM's shared-memory transport for ranks on the
// same node: the sender pays the intra-node copy cost and the chunk is
// posted directly into the destination context's eager ring — no fabric,
// no SDMA engine, no system call. Like a fabric packet, a chunk longer
// than an eager slot is refused (rxEager).
func (n *NIC) LocalDeliver(p *sim.Proc, dstCtx int, hdr fabric.Header, payload []byte, bytes uint64) error {
	if payload != nil {
		bytes = uint64(len(payload))
	}
	ctx, ok := n.contexts[dstCtx]
	if !ok {
		return fmt.Errorf("hfi: local delivery to unknown context %d", dstCtx)
	}
	p.Sleep(n.pr.LocalCopyTime(bytes))
	// The rx handler consumes the payload synchronously, so the packet
	// can go straight back to the pool; the payload stays caller-owned.
	pkt := n.fab.GetPacket()
	*pkt = fabric.Packet{
		SrcNode: n.Node, DstNode: n.Node, DstCtx: dstCtx,
		Kind: fabric.KindEager, Hdr: hdr, Payload: payload, Bytes: bytes,
		Pooled: true,
	}
	err := n.rxEager(ctx, pkt)
	n.fab.Release(pkt)
	if err != nil {
		return err
	}
	ctx.Notify.Broadcast()
	return nil
}

// sdmaNext takes the engine's next transaction, or leaves the engine
// idle as a callback waiter on its queue.
func sdmaNext(a any) {
	eng := a.(*SDMAEngine)
	txn, ok := eng.q.TryPop(sdmaNext, eng)
	if !ok {
		return
	}
	n := eng.n
	eng.txn, eng.req = txn, 0
	eng.failAt = n.sdmaErrAt(len(txn.Requests))
	// Rail selection: large striped transfers alternate requests
	// across both rails when both are up; everything else follows
	// the per-destination rail the health machine selected.
	eng.rail = n.TxRail(txn.DstNode)
	eng.stripe = txn.Stripe && n.Dual() &&
		!n.RailDown(0, txn.DstNode) && !n.RailDown(1, txn.DstNode)
	n.sdmaIssue(eng)
}

// sdmaIssue starts the engine's next request, or retires the
// transaction after its last one or at its injected failure point.
func (n *NIC) sdmaIssue(eng *SDMAEngine) {
	txn := eng.txn
	switch i := eng.req; i {
	case len(txn.Requests):
		n.sdmaRetire(eng)
	case eng.failAt:
		// Mid-transfer abort: requests before i are on the wire, the
		// rest are not. The error completion reaches the driver
		// through the normal IRQ path.
		n.SDMAErrors++
		txn.Err = fmt.Errorf("hfi: engine %d descriptor stall at request %d/%d",
			eng.Index, i, len(txn.Requests))
		txn.FailedAt = i
		n.sdmaRetire(eng)
	default:
		n.e.AfterArg(n.pr.SDMADescCost, sdmaDesc, eng)
	}
}

// sdmaDesc runs once a request's descriptor cost is paid: it reads the
// payload and puts the packet on the request's rail. A failed read or
// send stops the engine with the simulation.
func sdmaDesc(a any) {
	eng := a.(*SDMAEngine)
	n, txn := eng.n, eng.txn
	req := txn.Requests[eng.req]
	n.SDMARequests++
	if req.Src.Len == n.pr.MaxSDMARequest {
		n.SDMAFullSize++
	}
	payload, err := n.dmaRead(txn, req)
	if err != nil {
		n.e.Fail(fmt.Errorf("hfi: node %d engine %d DMA read: %w", n.Node, eng.Index, err))
		return
	}
	rail := eng.rail
	if eng.stripe {
		rail = eng.req % 2
	}
	n.fab.Transmit(&eng.x, n.reqPacket(txn, req, payload, rail))
}

// sdmaSent runs when a request's packet has left the wire.
func sdmaSent(a any) {
	eng := a.(*SDMAEngine)
	n := eng.n
	if err := eng.x.Err; err != nil {
		n.e.Fail(fmt.Errorf("hfi: node %d send: %w", n.Node, err))
		return
	}
	eng.BytesSent += eng.txn.Requests[eng.req].Src.Len
	eng.req++
	n.sdmaIssue(eng)
}

// sdmaRetire completes the engine's transaction, wakes submitters
// waiting on the descriptor ring and moves on to the next one.
func (n *NIC) sdmaRetire(eng *SDMAEngine) {
	txn := eng.txn
	eng.txn, eng.req, eng.failAt, eng.rail, eng.stripe = nil, 0, 0, 0, false
	if rec := n.e.Recorder(); rec != nil {
		rec.SpanBytes(trace.CatSDMA, "txn", eng.track, txn.submitAt, n.e.Now(), txn.Bytes())
	}
	n.complete(txn)
	eng.drain.Broadcast()
	sdmaNext(eng)
}

// dmaRead loads one request's payload from host memory into a pooled
// buffer (nil for a synthetic transaction); a failed read returns the
// buffer to the pool.
func (n *NIC) dmaRead(txn *SDMATxn, req SDMARequest) ([]byte, error) {
	if txn.Synthetic {
		return nil, nil
	}
	payload := n.fab.GetBuf(int(req.Src.Len))
	if err := n.phys.ReadAt(req.Src.Addr, payload); err != nil {
		n.fab.PutBuf(payload)
		return nil, err
	}
	return payload, nil
}

// reqPacket builds the wire packet of one request on the given rail,
// preserving the transaction's packet kind and TID placement.
func (n *NIC) reqPacket(txn *SDMATxn, req SDMARequest, payload []byte, rail int) *fabric.Packet {
	hdr := txn.Hdr
	hdr.Offset = req.MsgOff
	pkt := n.fab.GetPacket()
	*pkt = fabric.Packet{
		SrcNode: fabric.RailID(n.Node, rail), DstNode: fabric.RailID(txn.DstNode, rail), DstCtx: txn.DstCtx,
		Kind: txn.Kind, Hdr: hdr, Payload: payload, Bytes: req.Src.Len,
		TIDIdx: req.TIDIdx, TIDOff: req.TIDOff, Last: req.Last,
		Pooled: true, PooledPayload: payload != nil,
	}
	return pkt
}

// PIOChunk transmits one SDMA request by programmed I/O — the driver's
// degraded slow path when an SDMA engine keeps failing a transaction.
// The caller pays the PIO store cost per chunk, and the chunk follows
// whichever rail is selected once the stores are done.
func (n *NIC) PIOChunk(p *sim.Proc, txn *SDMATxn, req SDMARequest) error {
	payload, err := n.dmaRead(txn, req)
	if err != nil {
		return fmt.Errorf("hfi: PIO chunk read: %w", err)
	}
	p.Sleep(n.pr.PIOTime(req.Src.Len))
	return n.fab.Send(p, n.reqPacket(txn, req, payload, n.TxRail(txn.DstNode)))
}

// complete queues a finished transaction for interrupt delivery,
// coalescing completions that occur while an interrupt is pending.
func (n *NIC) complete(txn *SDMATxn) {
	txn.irqNext = nil
	if n.irqTail == nil {
		n.irqHead = txn
	} else {
		n.irqTail.irqNext = txn
	}
	n.irqTail = txn
	if n.irqScheduled {
		return
	}
	n.irqScheduled = true
	n.e.AfterArg(n.pr.IRQLatency, deliverIRQ, n)
}

// deliverIRQ raises the completion interrupt for the pending batch of
// the *NIC it is given.
func deliverIRQ(a any) {
	n := a.(*NIC)
	n.irqScheduled = false
	batch := n.irqHead
	n.irqHead, n.irqTail = nil, nil
	n.IRQsRaised++
	if n.irqSink == nil {
		panic(fmt.Sprintf("hfi: node %d completion IRQ with no handler", n.Node))
	}
	n.irqSink(batch)
}

// rxNext takes the next arrived packet into the receive pipeline, or
// leaves the pipeline idle as a callback waiter on its queue.
func rxNext(a any) {
	n := a.(*NIC)
	pkt, ok := n.rxq.TryPop(rxNext, n)
	if !ok {
		return
	}
	n.rxPkt = pkt
	n.e.AfterArg(n.pr.RcvPacketCost, rxDone, n)
}

// rxDone processes the pipeline's packet once RcvPacketCost is paid and
// moves on to the next. A failed delivery stops the pipeline with the
// simulation.
func rxDone(a any) {
	n := a.(*NIC)
	pkt := n.rxPkt
	n.rxPkt = nil
	n.RxPackets++
	if pkt.Corrupt {
		// Port CRC check: damaged packets are counted and discarded
		// before any context processing.
		n.RxCorrupt++
		n.fab.Release(pkt)
		rxNext(n)
		return
	}
	ctx, ok := n.contexts[pkt.DstCtx]
	if !ok {
		// Packets racing a context teardown are dropped, like on
		// real hardware.
		n.RxDropped++
		n.fab.Release(pkt)
		rxNext(n)
		return
	}
	var err error
	switch pkt.Kind {
	case fabric.KindEager:
		err = n.rxEager(ctx, pkt)
	case fabric.KindExpected:
		err = n.rxExpected(ctx, pkt)
	}
	// The rx handlers copy the payload into simulated host memory
	// synchronously; the packet and its pooled payload recycle here.
	n.fab.Release(pkt)
	if err != nil {
		n.e.Fail(fmt.Errorf("hfi: node %d ctx %d rx: %w", n.Node, ctx.ID, err))
		return
	}
	ctx.Notify.Broadcast()
	rxNext(n)
}

func (n *NIC) rxEager(ctx *Context, pkt *fabric.Packet) error {
	// A packet lands in exactly one slot: a longer one would spill into
	// the next slot, or past the ring from the last. Senders chunk at
	// EagerChunk, so only a sender bug reaches this.
	if pkt.Bytes > n.pr.EagerChunk {
		return fmt.Errorf("hfi: eager delivery of %d bytes exceeds eager chunk", pkt.Bytes)
	}
	head := n.readStatus(ctx, StatusEagerHead)
	tail := n.readStatus(ctx, StatusEagerTail)
	if head-tail >= uint64(ctx.EagerSlots) {
		return fmt.Errorf("hfi: eager ring overflow (head=%d tail=%d slots=%d)",
			head, tail, ctx.EagerSlots)
	}
	n.releaseRing(ctx.EagerPA, uint64(ctx.EagerSlots), n.pr.EagerChunk, &ctx.eagerReleased, tail, head)
	slot := head % uint64(ctx.EagerSlots)
	if pkt.Payload != nil {
		pa := ctx.EagerPA + mem.PhysAddr(slot*n.pr.EagerChunk)
		if err := n.phys.WriteAt(pa, pkt.Payload); err != nil {
			return fmt.Errorf("hfi: eager DMA write: %w", err)
		}
	}
	n.writeStatus(ctx, StatusEagerHead, head+1)
	e := &n.hdrqEnt
	*e = HdrqEntry{
		Type: HdrqTypeEager, SrcRank: pkt.Hdr.SrcRank, Tag: pkt.Hdr.Tag,
		MsgID: pkt.Hdr.MsgID, MsgLen: pkt.Hdr.MsgLen, Offset: pkt.Hdr.Offset,
		Aux: pkt.Hdr.Aux, EagerIdx: uint32(slot), Op: pkt.Hdr.Op, Bytes: pkt.Bytes,
		PSN: pkt.Hdr.PSN, ECN: pkt.ECN,
	}
	return n.postHdrq(ctx, e)
}

func (n *NIC) rxExpected(ctx *Context, pkt *fabric.Packet) error {
	idx, gen := UnpackTID(uint64(pkt.TIDIdx))
	if idx < 0 || idx >= len(ctx.tids) || !ctx.tids[idx].valid || ctx.tids[idx].gen != gen {
		if n.fab.Lossy() {
			// A late duplicate of a window that has since been freed (or
			// freed and reprogrammed): the generation check catches it and
			// the packet is dropped, like stale RcvArray hits on hardware.
			n.RxStaleTID++
			return nil
		}
		return fmt.Errorf("hfi: expected packet for invalid TID %d (gen %d)", idx, gen)
	}
	ent := ctx.tids[idx]
	if pkt.TIDOff+pkt.Bytes > ent.ext.Len {
		return fmt.Errorf("hfi: expected packet overruns TID %d (%d+%d > %d)",
			idx, pkt.TIDOff, pkt.Bytes, ent.ext.Len)
	}
	if pkt.Payload != nil {
		if err := n.phys.WriteAt(ent.ext.Addr+mem.PhysAddr(pkt.TIDOff), pkt.Payload); err != nil {
			return fmt.Errorf("hfi: expected DMA write: %w", err)
		}
	}
	if n.fab.Lossy() {
		// On a lossy fabric a single Last-packet completion is not
		// trustworthy (the Last packet may be the one that was dropped),
		// so every TID-placed packet posts a header entry and PSM tracks
		// window coverage itself.
		e := &n.hdrqEnt
		*e = HdrqEntry{
			Type: HdrqTypeExpectedData, SrcRank: pkt.Hdr.SrcRank, Tag: pkt.Hdr.Tag,
			MsgID: pkt.Hdr.MsgID, MsgLen: pkt.Hdr.MsgLen, Offset: pkt.Hdr.Offset,
			Op: pkt.Hdr.Op, Aux: pkt.Hdr.Aux, Bytes: pkt.Bytes,
		}
		return n.postHdrq(ctx, e)
	}
	if pkt.Last {
		e := &n.hdrqEnt
		*e = HdrqEntry{
			Type: HdrqTypeExpectedDone, SrcRank: pkt.Hdr.SrcRank, Tag: pkt.Hdr.Tag,
			MsgID: pkt.Hdr.MsgID, MsgLen: pkt.Hdr.MsgLen, Op: pkt.Hdr.Op,
			Aux: pkt.Hdr.Aux, Bytes: pkt.Bytes,
		}
		return n.postHdrq(ctx, e)
	}
	return nil
}

func (n *NIC) postHdrq(ctx *Context, e *HdrqEntry) error {
	head := n.readStatus(ctx, StatusHdrqHead)
	tail := n.readStatus(ctx, StatusHdrqTail)
	if head-tail >= uint64(ctx.HdrqEntries) {
		return fmt.Errorf("hfi: hdrq overflow (head=%d tail=%d entries=%d)",
			head, tail, ctx.HdrqEntries)
	}
	n.releaseRing(ctx.HdrqPA, uint64(ctx.HdrqEntries), HdrqEntrySize, &ctx.hdrqReleased, tail, head)
	slot := head % uint64(ctx.HdrqEntries)
	pa := ctx.HdrqPA + mem.PhysAddr(slot*HdrqEntrySize)
	EncodeHdrqEntryInto(n.hdrqScratch[:], e)
	if err := n.phys.WriteAt(pa, n.hdrqScratch[:]); err != nil {
		return fmt.Errorf("hfi: hdrq DMA write: %w", err)
	}
	n.writeStatus(ctx, StatusHdrqHead, head+1)
	return nil
}

// releaseRing hands back the host frames of the ring entries the
// consumer has passed since the last call, [*released, tail), and
// advances *released to tail. The ring has entries slots of size bytes
// at base; head is the entry about to be written. A frame is kept while
// any of its ring bytes belongs to an entry in [tail, head]: entries
// that straddle frames, and those on the ring's next lap, which wrap to
// its start.
func (n *NIC) releaseRing(base mem.PhysAddr, entries, size uint64, released *uint64, tail, head uint64) {
	from := *released
	if from == tail {
		return
	}
	*released = tail
	ring := entries * size
	// Entries [tail, head] occupy ring bytes [ls, le), continuing past
	// the ring's end at offset 0 on the next lap.
	ls := tail % entries * size
	le := ls + (head-tail+1)*size
	live := func(lo, hi uint64) bool {
		return lo < le && hi > ls || le > ring && lo < le-ring
	}
	discard := func(lo, hi uint64) {
		for f := lo &^ (mem.PageSize4K - 1); f < hi; f += mem.PageSize4K {
			if !live(f, min(f+mem.PageSize4K, ring)) {
				n.phys.Discard(mem.Extent{Addr: base + mem.PhysAddr(f), Len: mem.PageSize4K})
			}
		}
	}
	fs := from % entries * size
	if fe := fs + (tail-from)*size; fe <= ring {
		discard(fs, fe)
	} else {
		discard(fs, ring)
		discard(0, fe-ring)
	}
}

func (n *NIC) readStatus(ctx *Context, off int) uint64 {
	v, err := n.phys.ReadU64(ctx.StatusPA + mem.PhysAddr(off))
	if err != nil {
		panic(fmt.Sprintf("hfi: status read: %v", err))
	}
	return v
}

func (n *NIC) writeStatus(ctx *Context, off int, v uint64) {
	if err := n.phys.WriteU64(ctx.StatusPA+mem.PhysAddr(off), v); err != nil {
		panic(fmt.Sprintf("hfi: status write: %v", err))
	}
}

// NotifyContext wakes any process blocked on the context's event
// condition (used by the driver's completion path after CQ writes).
func (n *NIC) NotifyContext(ctxID int) {
	if ctx, ok := n.contexts[ctxID]; ok {
		ctx.Notify.Broadcast()
	}
}

// TxBytes returns the total bytes transmitted by this NIC, across both
// rails on dual-rail configurations.
func (n *NIC) TxBytes() uint64 {
	b := n.port.TxBytes
	if n.port1 != nil {
		b += n.port1.TxBytes
	}
	return b
}
