package psm

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
)

// Endpoint is one rank's PSM endpoint: an open HFI context plus the
// matched-queue state.
type Endpoint struct {
	OS        OSOps `snap:"-"` // the rank's kernels: their node sections
	Rank      int
	Synthetic bool
	Book      AddressBook `snap:"-"` // the job's, shared; resolved ranks are in peers
	Stats     Stats

	fd     Handle
	CtxID  int
	nic    *hfi.NIC
	notify *sim.Cond `snap:"-"` // the hardware context's, in the NIC section
	eng    *sim.Engine

	// User mappings of the context's host-memory areas.
	statusVA, hdrqVA, eagerVA, cqVA uproc.VirtAddr
	scratchVA                       uproc.VirtAddr

	// Ring geometry of the opened context, read from the hardware
	// context at init (the driver may have been configured with
	// non-default sizes for fault injection).
	hdrqEntries, cqEntries uint64

	// Consumer cursors (mirrored to the status page for the NIC).
	hdrqTail, eagerTail, cqTail uint64

	// Matched queues.
	posted     []*recvReq
	unexpected []*inbound
	inflight   map[uint64]*inbound // by msgid
	pendingRTS []rtsInfo

	// Send state.
	nextMsgSeq  uint64
	nextCompSeq uint32
	bySeq       map[uint32]*sendReq // CQ completion → its send
	sends       map[uint64]*sendReq // by msgid (awaiting CTS)

	// Rendezvous receive state.
	rdvRecvs   map[uint64]*rdvRecv // by msgid
	activeRdvs int
	rdvBacklog []rtsInfo
	// freeRdvSlots are scratch TID-list slots available for active
	// rendezvous receives; slotTIDs[slot] is the pair array the window
	// registered in that slot decodes its TID list into, reused by the
	// slot's next window.
	freeRdvSlots []int
	slotTIDs     [maxActiveRdv * RdvWindowDepth][]hfi.TIDPair `snap:"-"` // a registered window's tids

	// peers holds the per-remote-rank state: cached address, go-back-N
	// flows, congestion window (see reliability.go). ackOwed/cnpOwed
	// list the ranks the next Progress drain owes an ACK / a CNP.
	peers            map[int]*peer
	ackOwed, cnpOwed []int

	// Reliability state, populated only when the fabric is lossy
	// (reliable == nic.Lossy()); see reliability.go.
	reliable      bool
	msgTimers     map[mtKey]*recovery
	rtCond        *sim.Cond
	closed        bool
	completedMsgs map[uint64]bool // by msgid
	completedFIFO []uint64
	completedBuf  []uint64 `snap:"-"` // completedFIFO's array (rememberCompleted)
	// health drives live fast-path/slow-path switching and dual-rail
	// failover (nil on a loss-free fabric); see health.go.
	health *healthMachine

	// Congestion-response state, populated only when the fabric runs
	// congestion control (congEnabled == nic.Congested()); see
	// congestion.go. Orthogonal to reliability: a congested fabric need
	// not be lossy.
	congEnabled bool

	// Per-endpoint scratch, safe because each endpoint is driven by its
	// rank's process one hdrq entry / one chunk at a time, and never
	// state: each is consumed within the call that fills it.
	hdrqRaw   [hfi.HdrqEntrySize]byte `snap:"-"`
	hdrqEnt   hfi.HdrqEntry           `snap:"-"`
	slotBuf   []byte                  `snap:"-"` // eager-slot reads consumed before the next entry
	localBuf  []byte                  `snap:"-"` // shared-memory chunk staging (consumed synchronously)
	tidBuf    []byte                  `snap:"-"` // TID-list wire staging
	iov       [2]hfi.IOVec            `snap:"-"`
	trackName string                  `snap:"-"` // cached "rank<N>" span track
	dueRanks  []int                   `snap:"-"` // fireTimers' due flows
	dueKeys   []mtKey                 `snap:"-"` // fireTimers' due message timers
	// Pools of the per-message records: a request's record goes back
	// when its last holder lets go, a rendezvous and its windows when the
	// transfer retires, a message timer's when msgTimers and any running
	// expiry let go, a retained payload chunk when its flow listing, any
	// go-back-N round reading it and every packet copy in flight let go.
	// All but the chunks come back cleared; a chunk's bytes are
	// overwritten by its next read.
	inbounds   pool.Pool[*inbound]   `snap:"-"`
	sendRecs   pool.Pool[*sendReq]   `snap:"-"`
	recvRecs   pool.Pool[*recvReq]   `snap:"-"`
	rdvRecs    pool.Pool[*rdvRecv]   `snap:"-"`
	windowRecs pool.Pool[*rdvWindow] `snap:"-"`
	timerRecs  pool.Pool[*recovery]  `snap:"-"` // message timers' records
	chunks     pool.Pool[*chunk]     `snap:"-"`
	// midRoundAcks counts ACKs that retired packets while a go-back-N
	// round was running; tests read it to know they exercised one.
	midRoundAcks int `snap:"-"`
}

// recvReq is a posted receive; Irecv hands out its embedded request.
type recvReq struct {
	req      Request
	src      int
	tag      uint64
	buf      uproc.VirtAddr
	capacity uint64
}

// inbound is an eager message being assembled.
type inbound struct {
	src    uint32
	tag    uint64
	msgid  uint64
	msglen uint64
	got    uint64
	// bound is the matched posted receive (nil while unexpected).
	bound *recvReq
	// heap buffers chunks of an unexpected message (real mode only).
	heap []byte
	// ivs deduplicates byte coverage on a lossy fabric, where an SDMA
	// original and its PIO replay can overlap.
	ivs ivSet
}

type rtsInfo struct {
	src    uint32
	tag    uint64
	msgid  uint64
	msglen uint64
}

// sendReq is a send in flight; Isend hands out its embedded request.
type sendReq struct {
	req       Request
	dst       Addr
	peer      int // destination rank
	tag       uint64
	msgid     uint64
	buf       uproc.VirtAddr
	length    uint64
	remaining uint64 // bytes not yet CTS'd
	windows   int    // outstanding window completions
	ctsDone   bool
	// op names the transfer mode for the completion span.
	op string
	// needFin gates completion on the receiver's FIN (lossy SDMA
	// transfers); ctsSeen deduplicates re-CTSed windows.
	needFin bool
	finDone bool
	ctsSeen map[uint64]bool

	ep *Endpoint `snap:"-"`
	// acked is sr.pioAcked, bound once: the flow waiter of a PIO send's
	// last chunk.
	acked func(error) `snap:"-"`
}

// rdvWindow is one outstanding TID window of a rendezvous receive.
type rdvWindow struct {
	off  uint64
	len  uint64
	tids []hfi.TIDPair
	slot int // scratch TID-list slot while registered
	// Lossy-fabric coverage tracking (per-packet completions) and the
	// encoded CTS payload retained for re-CTS.
	ivs        ivSet
	covered    uint64
	ctsPayload []byte
}

type rdvRecv struct {
	rr     *recvReq
	src    uint32
	msgid  uint64
	msglen uint64
	// nextReg is the next unregistered offset; completed counts bytes
	// whose windows finished.
	nextReg   uint64
	completed uint64
	windows   map[uint64]*rdvWindow
	winSize   uint64
}

// DevicePath is the HFI character device.
const DevicePath = "/dev/hfi1"

// NewEndpoint opens the device, queries the context, maps the shared
// areas and allocates scratch memory. This is the (slow-path, offloaded
// on McKernel) initialization PSM performs inside MPI_Init.
func NewEndpoint(p *sim.Proc, os OSOps, rank int, book AddressBook, synthetic bool) (*Endpoint, error) {
	ep := &Endpoint{
		OS: os, Rank: rank, Book: book, Synthetic: synthetic,
		trackName: fmt.Sprintf("rank%d", rank),
		peers:     make(map[int]*peer),
		inflight:  make(map[uint64]*inbound),
		bySeq:     make(map[uint32]*sendReq),
		sends:     make(map[uint64]*sendReq),
		rdvRecvs:  make(map[uint64]*rdvRecv),
	}
	ep.initPools()
	for i := 0; i < maxActiveRdv*RdvWindowDepth; i++ {
		ep.freeRdvSlots = append(ep.freeRdvSlots, i)
	}
	fd, err := os.Open(p, DevicePath)
	if err != nil {
		return nil, err
	}
	ep.fd = fd
	ctxt, err := os.Ioctl(p, fd, hfi.CmdCtxtInfo, 0)
	if err != nil {
		return nil, err
	}
	ep.CtxID = int(ctxt)
	// A handful of administrative ioctls PSM issues at startup.
	for _, cmd := range []uint32{hfi.CmdGetVers, hfi.CmdUserInfo, hfi.CmdSetPKey, hfi.CmdPollType} {
		if _, err := os.Ioctl(p, fd, cmd, 0); err != nil {
			return nil, err
		}
	}
	for _, m := range []struct {
		kind uint32
		dst  *uproc.VirtAddr
	}{
		{hfi.MmapStatus, &ep.statusVA},
		{hfi.MmapHdrq, &ep.hdrqVA},
		{hfi.MmapEager, &ep.eagerVA},
		{hfi.MmapCQ, &ep.cqVA},
	} {
		va, err := os.MmapDevice(p, fd, m.kind, 0)
		if err != nil {
			return nil, err
		}
		*m.dst = va
	}
	ep.scratchVA, err = os.MmapAnon(p, scratchSize)
	if err != nil {
		return nil, err
	}
	ep.nic = os.NIC()
	ep.eng = p.Engine()
	hwctx, ok := ep.nic.Context(ep.CtxID)
	if !ok {
		return nil, fmt.Errorf("psm: hardware context %d missing", ep.CtxID)
	}
	ep.notify = hwctx.Notify
	ep.hdrqEntries = uint64(hwctx.HdrqEntries)
	ep.cqEntries = uint64(hwctx.CQEntries)
	// On a lossy fabric, enable the reliability protocol and start the
	// retransmission timer daemon.
	ep.reliable = ep.nic.Lossy()
	if ep.reliable {
		ep.msgTimers = make(map[mtKey]*recovery)
		ep.completedMsgs = make(map[uint64]bool)
		ep.rtCond = sim.NewCond(ep.eng)
		ep.health = &healthMachine{ep: ep}
		ep.eng.GoDaemon(fmt.Sprintf("psm-rt-rank%d", rank), func(dp *sim.Proc) {
			ep.runRetransmit(dp)
		})
	}
	// On a congested fabric, arm the ECN/CNP response machinery.
	ep.congEnabled = ep.nic.Congested()
	ep.eng.RegisterState(fmt.Sprintf("psm/rank%d", rank), ep)
	return ep, nil
}

// Close releases the endpoint. On a lossy fabric the caller should
// Quiesce first so no retransmission state is abandoned mid-recovery.
func (ep *Endpoint) Close(p *sim.Proc) error {
	ep.closed = true
	ep.eng.UnregisterState(ep)
	if ep.rtCond != nil {
		ep.rtCond.Broadcast()
	}
	if err := ep.OS.Munmap(p, ep.scratchVA); err != nil {
		return err
	}
	return ep.OS.Close(p, ep.fd)
}

func (ep *Endpoint) proc() *uproc.Process { return ep.OS.Proc() }

// span emits one protocol-phase span on this rank's track, ending now.
func (ep *Endpoint) span(name string, begin time.Duration, bytes uint64) {
	if ep.eng == nil {
		return
	}
	if rec := ep.eng.Recorder(); rec != nil {
		rec.SpanBytes(trace.CatPSM, name, ep.trackName, begin, ep.eng.Now(), bytes)
	}
}

// addrOf resolves a rank through the address book once and from its
// peer record afterwards (a rank's address never changes).
func (ep *Endpoint) addrOf(rank int) (Addr, error) {
	if pe, ok := ep.peers[rank]; ok && pe.hasAddr {
		return pe.addr, nil
	}
	a, ok := ep.Book.Lookup(rank)
	if !ok {
		return Addr{}, fmt.Errorf("psm: no address for rank %d", rank)
	}
	pe := ep.peerOf(rank)
	pe.addr, pe.hasAddr = a, true
	return a, nil
}

// readStatus reads one status-page counter through the user mapping.
func (ep *Endpoint) readStatus(off int) (uint64, error) {
	v, err := ep.proc().ReadU64(ep.statusVA + uproc.VirtAddr(off))
	if err != nil {
		return 0, fmt.Errorf("psm: rank %d status read: %w", ep.Rank, err)
	}
	return v, nil
}

func (ep *Endpoint) writeStatus(off int, v uint64) error {
	if err := ep.proc().WriteU64(ep.statusVA+uproc.VirtAddr(off), v); err != nil {
		return fmt.Errorf("psm: rank %d status write: %w", ep.Rank, err)
	}
	return nil
}

// WaitFor drives progress until cond holds, returning the first
// progress error.
func (ep *Endpoint) WaitFor(p *sim.Proc, cond func() bool) error {
	for !cond() {
		made, err := ep.Progress(p)
		if err != nil {
			return err
		}
		if made {
			continue
		}
		if cond() {
			return nil
		}
		ep.notify.Wait(p)
		p.Sleep(pollDelay)
	}
	return nil
}

// Wait blocks until the request completes, then hands it back to the
// endpoint: the caller must not touch r afterwards.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) error {
	r.live()
	if err := ep.WaitFor(p, func() bool { return r.Done }); err != nil {
		return err
	}
	err := r.Err
	ep.drop(r)
	return err
}

// initPools builds the endpoint's record pools.
func (ep *Endpoint) initPools() {
	ep.inbounds = pool.New("psm: inbound", nil, func() *inbound { return new(inbound) },
		func(inb *inbound) { *inb = inbound{ivs: ivSet{ivs: inb.ivs.ivs[:0]}, heap: inb.heap[:0]} })
	ep.sendRecs = pool.New("psm: sendReq", nil, func() *sendReq {
		sr := &sendReq{ep: ep}
		sr.acked = sr.pioAcked
		resetSend(sr)
		return sr
	}, resetSend)
	ep.recvRecs = pool.New("psm: recvReq", nil, func() *recvReq {
		rr := new(recvReq)
		resetRecv(rr)
		return rr
	}, resetRecv)
	ep.rdvRecs = pool.New("psm: rdvRecv", nil,
		func() *rdvRecv { return &rdvRecv{windows: make(map[uint64]*rdvWindow)} },
		func(rdv *rdvRecv) {
			clear(rdv.windows)
			*rdv = rdvRecv{windows: rdv.windows}
		})
	// A retired window's interval set keeps its capacity; its CTS
	// payload, which a flow may still retain for retransmission, does
	// not.
	ep.windowRecs = pool.New("psm: rdvWindow", nil, func() *rdvWindow { return new(rdvWindow) },
		func(w *rdvWindow) { *w = rdvWindow{ivs: ivSet{ivs: w.ivs.ivs[:0]}} })
	ep.timerRecs = pool.New("psm: recovery", nil, func() *recovery { return new(recovery) },
		func(mt *recovery) { *mt = recovery{} })
	// Every chunk holds a whole eager chunk, the most one read takes
	// (eagerChunks).
	ep.chunks = pool.New("psm: chunk", nil, func() *chunk {
		return &chunk{ep: ep, buf: make([]byte, ep.nic.Params().EagerChunk)}
	}, nil)
}

func resetSend(sr *sendReq) {
	clear(sr.ctsSeen)
	*sr = sendReq{ctsSeen: sr.ctsSeen, ep: sr.ep, acked: sr.acked}
	sr.req = Request{kind: reqSend, send: sr}
}

func resetRecv(rr *recvReq) { *rr = recvReq{req: Request{kind: reqRecv, recv: rr}} }

func (sr *sendReq) PoolSlot() *pool.Slot { return &sr.req.slot }
func (rr *recvReq) PoolSlot() *pool.Slot { return &rr.req.slot }

// Pools returns the counts of the endpoint's record pools but the
// chunks, which CheckRetained counts against the flows' listings.
func (ep *Endpoint) Pools() []pool.Stats {
	return []pool.Stats{ep.inbounds.Stats(), ep.sendRecs.Stats(), ep.recvRecs.Stats(),
		ep.rdvRecs.Stats(), ep.windowRecs.Stats(), ep.timerRecs.Stats()}
}

// newSend returns a cleared send record, held by its caller.
func (ep *Endpoint) newSend() *sendReq {
	sr := ep.sendRecs.Get()
	ep.sendRecs.Hold(sr)
	return sr
}

// newRecv returns a cleared receive record, held by its caller and by
// the matching state until the receive completes.
func (ep *Endpoint) newRecv() *recvReq {
	rr := ep.recvRecs.Get()
	ep.recvRecs.Hold(rr)
	ep.recvRecs.Hold(rr)
	return rr
}

// hold records one more holder of r's record.
func (ep *Endpoint) hold(r *Request) {
	if r.kind == reqSend {
		ep.sendRecs.Hold(r.send)
	} else {
		ep.recvRecs.Hold(r.recv)
	}
}

// drop lets go of one hold on r's record. The last one clears the
// record, poisons it and returns it to its pool.
func (ep *Endpoint) drop(r *Request) {
	if r.kind == reqSend {
		ep.sendRecs.Release(r.send)
	} else {
		ep.recvRecs.Release(r.recv)
	}
}

// WaitAll waits on every request in turn, returning the first error;
// each waited request is handed back as by Wait.
func (ep *Endpoint) WaitAll(p *sim.Proc, rs []*Request) error {
	for _, r := range rs {
		if err := ep.Wait(p, r); err != nil {
			return err
		}
	}
	return nil
}

// header composes the wire header for PIO control/data.
func (ep *Endpoint) header(op uint32, tag, msgid, msglen, offset, aux uint64) fabric.Header {
	return fabric.Header{
		Op: op, SrcRank: uint32(ep.Rank), Tag: tag,
		MsgID: msgid, MsgLen: msglen, Offset: offset, Aux: aux,
	}
}

// Compute forwards to the OS personality (noise model included).
func (ep *Endpoint) Compute(p *sim.Proc, d time.Duration) { ep.OS.Compute(p, d) }
