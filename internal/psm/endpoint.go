package psm

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/hfi"
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
	pendingRTS []*rtsInfo

	// Send state.
	nextMsgSeq  uint64
	nextCompSeq uint32
	bySeq       map[uint32]*sendReq // CQ completion → its send
	sends       map[uint64]*sendReq // by msgid (awaiting CTS)

	// Rendezvous receive state.
	rdvRecvs   map[uint64]*rdvRecv // by msgid
	activeRdvs int
	rdvBacklog []*rtsInfo
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
	// freeInbound recycles the records of eager messages that completed
	// into a receive buffer; they are cleared on reuse.
	freeInbound []*inbound `snap:"-"`
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

type sendReq struct {
	req       *Request
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

// Wait blocks until the request completes.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) error {
	if err := ep.WaitFor(p, func() bool { return r.Done }); err != nil {
		return err
	}
	return r.Err
}

// WaitAll blocks until every request completes, returning the first
// error.
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
