package psm

import (
	"fmt"
	"slices"

	"repro/internal/hfi"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// perRdvSlot is the scratch slot size reserved per active rendezvous for
// its ioctl TID list.
const perRdvSlot = 16 << 10

// Isend starts a send of length bytes at buf to (dst, tag) and returns a
// request handle.
func (ep *Endpoint) Isend(p *sim.Proc, dst int, tag uint64, buf uproc.VirtAddr, length uint64) (*Request, error) {
	a, err := ep.addrOf(dst)
	if err != nil {
		return nil, err
	}
	req := &Request{Bytes: length, kind: reqSend, begin: p.Now()}
	ep.nextMsgSeq++
	msgid := uint64(ep.Rank)<<32 | ep.nextMsgSeq
	ep.Stats.BytesSent += length

	// A congested endpoint polls the wire before each send: loss-free
	// PIO sends complete immediately, so without this a blocking send
	// loop would only discover its CNPs at the next receive — long
	// after the congestion they signal. Congestion-off endpoints skip
	// it and keep their exact historical event sequence.
	if ep.congEnabled {
		if _, err := ep.Progress(p); err != nil {
			return nil, err
		}
	}

	switch {
	case a.Node == ep.OS.NodeID():
		if err := ep.sendLocal(p, a, tag, msgid, buf, length); err != nil {
			return nil, err
		}
		ep.Stats.SendsLocal++
		req.Done = true
		ep.span("send:local", req.begin, length)
	case length <= ep.nic.Params().PIOMaxSize:
		if err := ep.sendPIO(p, dst, a, tag, msgid, buf, length, req); err != nil {
			return nil, err
		}
		ep.Stats.SendsPIO++
	case length <= ep.nic.Params().SDMAThreshold:
		if err := ep.sendEagerSDMA(p, dst, a, tag, msgid, buf, length, req); err != nil {
			return nil, err
		}
		ep.Stats.SendsEagerSDMA++
	default:
		if err := ep.sendRendezvous(p, dst, a, tag, msgid, buf, length, req); err != nil {
			return nil, err
		}
		ep.Stats.SendsRdv++
	}
	return req, nil
}

// Send is the blocking variant.
func (ep *Endpoint) Send(p *sim.Proc, dst int, tag uint64, buf uproc.VirtAddr, length uint64) error {
	req, err := ep.Isend(p, dst, tag, buf, length)
	if err != nil {
		return err
	}
	return ep.Wait(p, req)
}

// eagerChunks calls send for each EagerChunk-sized slice [off, off+n)
// of a length-byte message, in order; an empty message is one empty
// chunk.
func (ep *Endpoint) eagerChunks(length uint64, send func(off, n uint64) error) error {
	chunk := ep.nic.Params().EagerChunk
	for off := uint64(0); ; {
		n := min(length-off, chunk)
		if err := send(off, n); err != nil {
			return err
		}
		off += n
		if off >= length {
			return nil
		}
	}
}

// sendLocal uses the shared-memory transport for same-node peers.
func (ep *Endpoint) sendLocal(p *sim.Proc, a Addr, tag, msgid uint64, buf uproc.VirtAddr, length uint64) error {
	return ep.eagerChunks(length, func(off, n uint64) error {
		// LocalDeliver consumes the payload synchronously, so the scratch
		// chunk can be reused for the next one.
		payload, err := ep.readPayloadScratch(buf+uproc.VirtAddr(off), n)
		if err != nil {
			return err
		}
		hdr := ep.header(hfi.OpEager, tag, msgid, length, off, 0)
		return ep.nic.LocalDeliver(p, a.Ctx, hdr, payload, n)
	})
}

// sendPIO pushes a small message through programmed I/O: user-space
// stores, no kernel involvement at all. The request completes when the
// last chunk is acknowledged — immediately on a loss-free fabric,
// on cumulative ACK otherwise.
func (ep *Endpoint) sendPIO(p *sim.Proc, dst int, a Addr, tag, msgid uint64, buf uproc.VirtAddr, length uint64, req *Request) error {
	return ep.eagerChunks(length, func(off, n uint64) error {
		hdr := ep.header(hfi.OpEager, tag, msgid, length, off, 0)
		last := off+n >= length
		if !ep.reliable && !ep.Synthetic {
			// Loss-free fabric: nothing retains the chunk after delivery,
			// so it can ride a pooled buffer that the receiving NIC
			// recycles.
			payload := ep.nic.AllocPayload(int(n))
			if err := ep.proc().ReadAt(buf+uproc.VirtAddr(off), payload); err != nil {
				ep.nic.RecyclePayload(payload)
				return fmt.Errorf("psm: rank %d payload read: %w", ep.Rank, err)
			}
			if err := ep.nic.PIOSendPooled(p, a.Node, a.Ctx, hdr, payload); err != nil {
				return err
			}
			if last {
				ep.pioAcked(req, nil)
			}
		} else {
			payload, err := ep.readPayload(buf+uproc.VirtAddr(off), n)
			if err != nil {
				return err
			}
			var onAcked func(error)
			if last {
				onAcked = func(err error) { ep.pioAcked(req, err) }
			}
			if err := ep.sendFlowPkt(p, dst, a, hdr, payload, n, onAcked); err != nil {
				return err
			}
		}
		ep.congPace(p, dst, n)
		return nil
	})
}

// pioAcked completes a PIO send once its last chunk is acknowledged.
func (ep *Endpoint) pioAcked(req *Request, err error) {
	if req.Done {
		return
	}
	req.Err = err
	req.Done = true
	if err == nil {
		ep.span("send:pio", req.begin, req.Bytes)
	}
}

// readPayload loads message bytes from user memory (nil in synthetic
// mode — lengths still flow through the whole stack). The buffer is
// freshly allocated: reliability-mode callers retain it for retransmit.
func (ep *Endpoint) readPayload(va uproc.VirtAddr, n uint64) ([]byte, error) {
	if ep.Synthetic {
		return nil, nil
	}
	buf := make([]byte, n)
	if err := ep.proc().ReadAt(va, buf); err != nil {
		return nil, fmt.Errorf("psm: rank %d payload read: %w", ep.Rank, err)
	}
	return buf, nil
}

// readPayloadScratch is readPayload into the endpoint's reusable chunk
// buffer, for consumers that copy the bytes out synchronously.
func (ep *Endpoint) readPayloadScratch(va uproc.VirtAddr, n uint64) ([]byte, error) {
	if ep.Synthetic {
		return nil, nil
	}
	if uint64(cap(ep.localBuf)) < n {
		ep.localBuf = make([]byte, n)
	}
	buf := ep.localBuf[:n]
	if err := ep.proc().ReadAt(va, buf); err != nil {
		return nil, fmt.Errorf("psm: rank %d payload read: %w", ep.Rank, err)
	}
	return buf, nil
}

// sendEagerSDMA submits a medium message with a single writev; the
// payload lands in the receiver's eager ring. On a lossy fabric the
// send additionally awaits the receiver's FIN, with a recovery timer
// that replays the message as sequenced PIO chunks.
func (ep *Endpoint) sendEagerSDMA(p *sim.Proc, dst int, a Addr, tag, msgid uint64, buf uproc.VirtAddr, length uint64, req *Request) error {
	sr := &sendReq{req: req, dst: a, peer: dst, tag: tag, msgid: msgid, buf: buf,
		length: length, ctsDone: true, needFin: ep.reliable, op: "send:eager-sdma"}
	if ep.avoidSDMA() {
		// Failed over from the SDMA fast path: carry the payload as
		// sequenced PIO chunks instead of a writev. Completion still
		// rides the receiver's FIN, and the eager-fin timer replays the
		// message if the FIN stalls — identical recovery semantics, no
		// SDMA engine involved.
		ep.armEagerFin(sr)
		return ep.resendEagerPIO(p, sr)
	}
	ep.congPreSDMA(p, dst, length)
	ep.nextCompSeq++
	cs := ep.nextCompSeq
	hdr := &hfi.SDMAHeader{
		Op: hfi.OpEager, DstNode: uint32(a.Node), DstCtx: uint32(a.Ctx),
		SrcRank: uint32(ep.Rank), Tag: tag, MsgID: msgid, MsgLen: length,
		CompSeq: cs, Flags: ep.flags(length),
	}
	if err := ep.writevSDMA(p, hdr, buf, length); err != nil {
		return err
	}
	sr.windows = 1
	ep.bySeq[cs] = sr
	if ep.reliable {
		ep.armEagerFin(sr)
	}
	return nil
}

// armEagerFin registers an eager-SDMA send to await its FIN and arms the
// FIN-replay recovery timer.
func (ep *Endpoint) armEagerFin(sr *sendReq) {
	ep.sends[sr.msgid] = sr
	ep.armMsgTimer(mtKey{msgid: sr.msgid, kind: mtEagerFin}, sr.peer, sr.dst,
		func(tp *sim.Proc) error { return ep.resendEagerPIO(tp, sr) },
		func(err error) {
			sr.req.fail(err)
			delete(ep.sends, sr.msgid)
		})
}

// sendRendezvous issues the RTS; the CTS handler drives the SDMA windows.
func (ep *Endpoint) sendRendezvous(p *sim.Proc, dst int, a Addr, tag, msgid uint64, buf uproc.VirtAddr, length uint64, req *Request) error {
	sr := &sendReq{req: req, dst: a, peer: dst, tag: tag, msgid: msgid, buf: buf,
		length: length, remaining: length, op: "send:rdv", needFin: ep.reliable}
	ep.sends[msgid] = sr
	hdr := ep.header(OpRTS, tag, msgid, length, 0, 0)
	return ep.sendFlowPkt(p, dst, a, hdr, nil, 16, nil)
}

// writevSDMA encodes the header into scratch and performs the writev
// system call with the buffer vector.
func (ep *Endpoint) writevSDMA(p *sim.Proc, hdr *hfi.SDMAHeader, buf uproc.VirtAddr, length uint64) error {
	hva := ep.scratchVA + scratchHdrOff
	if err := hfi.EncodeSDMAHeader(ep.proc(), hva, hdr); err != nil {
		return err
	}
	ep.iov = [2]hfi.IOVec{
		{Base: hva, Len: hfi.SDMAHeaderSize},
		{Base: buf, Len: length},
	}
	ep.Stats.Writevs++
	_, err := ep.OS.Writev(p, ep.fd, ep.iov[:])
	return err
}

// flags composes the SDMA header flag bits for a transfer of the given
// size: synthetic-payload marking, plus rail striping for SDMA-sized
// transfers on a dual-rail NIC.
func (ep *Endpoint) flags(size uint64) uint32 {
	var f uint32
	if ep.Synthetic {
		f |= hfi.FlagSynthetic
	}
	if ep.nic.Dual() && size > ep.nic.Params().PIOMaxSize {
		f |= hfi.FlagStripe
	}
	return f
}

// Irecv posts a receive for (src, tag) into buf (capacity bytes).
func (ep *Endpoint) Irecv(p *sim.Proc, src int, tag uint64, buf uproc.VirtAddr, capacity uint64) (*Request, error) {
	rr := &recvReq{req: Request{kind: reqRecv, begin: p.Now()}, src: src, tag: tag, buf: buf, capacity: capacity}
	req := &rr.req

	// MPI non-overtaking: of everything already here for (src, tag) —
	// fully arrived, partially arrived, or announced by an RTS — the
	// receive takes what was sent first. msgid = rank<<32 | seq is send
	// order within one source, so that is the lowest msgid, whichever
	// list holds it and whatever order the inflight map iterates in.
	var inb *inbound
	var rts *rtsInfo
	for _, c := range ep.unexpected {
		if int(c.src) == src && c.tag == tag && (inb == nil || c.msgid < inb.msgid) {
			inb = c
		}
	}
	for _, c := range ep.inflight {
		if c.bound == nil && int(c.src) == src && c.tag == tag && (inb == nil || c.msgid < inb.msgid) {
			inb = c
		}
	}
	for _, r := range ep.pendingRTS {
		if int(r.src) == src && r.tag == tag && (rts == nil || r.msgid < rts.msgid) {
			rts = r
		}
	}
	switch {
	case rts != nil && (inb == nil || rts.msgid < inb.msgid):
		i := slices.Index(ep.pendingRTS, rts)
		ep.pendingRTS = slices.Delete(ep.pendingRTS, i, i+1)
		if err := ep.beginRendezvous(p, rr, rts); err != nil {
			return nil, err
		}
	case inb == nil:
		// Nothing here yet: queue on the matched queue.
		ep.posted = append(ep.posted, rr)
	case inb.msglen > rr.capacity:
		return nil, fmt.Errorf("psm: message of %d bytes truncates %d-byte receive", inb.msglen, rr.capacity)
	case inb.got >= inb.msglen:
		// Fully arrived: copy the buffered message out.
		i := slices.Index(ep.unexpected, inb)
		ep.unexpected = slices.Delete(ep.unexpected, i, i+1)
		p.Sleep(ep.nic.Params().MemcpyTime(inb.msglen))
		if !ep.Synthetic {
			if err := ep.proc().WriteAt(rr.buf, inb.heap[:inb.msglen]); err != nil {
				return nil, err
			}
		}
		ep.completeRecv(rr, inb.msglen)
		ep.recycleInbound(inb)
	default:
		// Partially arrived: the rest lands in place.
		inb.bound = rr
		// Copy what already landed in the bounce heap.
		p.Sleep(ep.nic.Params().MemcpyTime(inb.got))
		if !ep.Synthetic && inb.got > 0 {
			landed := inb.heap[:inb.got]
			if ep.reliable {
				// Coverage may be non-contiguous on a lossy fabric;
				// copy the whole heap (gaps are rewritten on arrival).
				landed = inb.heap
			}
			if err := ep.proc().WriteAt(rr.buf, landed); err != nil {
				return nil, err
			}
		}
		inb.heap = nil
	}
	return req, nil
}

// Recv is the blocking variant.
func (ep *Endpoint) Recv(p *sim.Proc, src int, tag uint64, buf uproc.VirtAddr, capacity uint64) error {
	req, err := ep.Irecv(p, src, tag, buf, capacity)
	if err != nil {
		return err
	}
	return ep.Wait(p, req)
}

func (ep *Endpoint) completeRecv(rr *recvReq, n uint64) {
	rr.req.Done = true
	ep.Stats.Recvs++
	ep.Stats.BytesRecv += n
	ep.span("recv", rr.req.begin, n)
}

// matchPosted removes and returns the oldest posted receive matching
// (src, tag).
func (ep *Endpoint) matchPosted(src uint32, tag uint64) *recvReq {
	for i, rr := range ep.posted {
		if rr.src == int(src) && rr.tag == tag {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			return rr
		}
	}
	return nil
}

// beginRendezvous admits a matched RTS, respecting the TID window limit.
func (ep *Endpoint) beginRendezvous(p *sim.Proc, rr *recvReq, rts *rtsInfo) error {
	if rts.msglen > rr.capacity {
		// Truncation fails the receive; the RTS stays pending for a
		// correctly sized receive.
		rr.req.fail(fmt.Errorf("psm: rendezvous of %d bytes truncates %d-byte receive", rts.msglen, rr.capacity))
		ep.pendingRTS = append(ep.pendingRTS, rts)
		return nil
	}
	if ep.activeRdvs >= maxActiveRdv {
		ep.rdvBacklog = append(ep.rdvBacklog, rts)
		// Re-queue the receive so the backlog pop can find it.
		ep.posted = append(ep.posted, rr)
		return nil
	}
	rdv := &rdvRecv{
		rr: rr, src: rts.src, msgid: rts.msgid, msglen: rts.msglen,
		windows: make(map[uint64]*rdvWindow),
		winSize: ep.nic.Params().RendezvousWindow,
	}
	ep.rdvRecvs[rts.msgid] = rdv
	ep.activeRdvs++
	for i := 0; i < RdvWindowDepth && rdv.nextReg < rdv.msglen; i++ {
		if err := ep.registerWindow(p, rdv); err != nil {
			return err
		}
	}
	return nil
}

// slotVA returns the scratch address of a TID-list slot.
func (ep *Endpoint) slotVA(slot int) uproc.VirtAddr {
	return ep.scratchVA + scratchIoctlTIDs + uproc.VirtAddr(slot*perRdvSlot)
}

// registerWindow performs the TID update ioctl for the next unregistered
// window and sends the CTS carrying the TID list. Up to RdvWindowDepth
// windows are in flight per rendezvous, so registration of window N+1
// overlaps the data transfer of window N.
func (ep *Endpoint) registerWindow(p *sim.Proc, rdv *rdvRecv) error {
	if len(ep.freeRdvSlots) == 0 {
		return fmt.Errorf("psm: out of TID-list slots")
	}
	winOff := rdv.nextReg
	winLen := rdv.msglen - winOff
	if winLen > rdv.winSize {
		winLen = rdv.winSize
	}
	rdv.nextReg += winLen
	slot := ep.freeRdvSlots[0]
	ep.freeRdvSlots = ep.freeRdvSlots[1:]
	w := &rdvWindow{off: winOff, len: winLen, slot: slot}
	rdv.windows[winOff] = w

	listVA := ep.slotVA(slot)
	argVA := ep.scratchVA + scratchTIDArg
	ti := &hfi.TIDInfo{
		VAddr:     rdv.rr.buf + uproc.VirtAddr(winOff),
		Length:    winLen,
		TIDListVA: listVA,
		TIDCount:  uint32(perRdvSlot / hfi.TIDPairSize),
	}
	if err := hfi.EncodeTIDInfo(ep.proc(), argVA, ti); err != nil {
		return err
	}
	ep.Stats.TIDIoctls++
	n, err := ep.OS.Ioctl(p, ep.fd, hfi.CmdTIDUpdate, argVA)
	if err != nil {
		return fmt.Errorf("psm: TID update: %w", err)
	}
	// The pairs are retained on the window until it completes, in the
	// slot's own array; the byte staging buffer is endpoint scratch.
	pairs, buf, err := hfi.ReadTIDListScratch(ep.proc(), listVA, int(n), ep.slotTIDs[slot], ep.tidBuf)
	ep.tidBuf = buf
	if err != nil {
		return err
	}
	ep.slotTIDs[slot] = pairs
	w.tids = pairs
	// CTS: TID list rides in the payload. These bytes are always real —
	// the sender must program them into its writev even in synthetic
	// mode.
	addr, err := ep.addrOf(int(rdv.src))
	if err != nil {
		return err
	}
	hdr := ep.header(OpCTS, rdv.rr.tag, rdv.msgid, winLen, 0, winOff)
	if ep.reliable {
		// Retain the CTS and arm the window's recovery timer: if the
		// expected data stalls (SDMA packets lost on the wire), the
		// re-fired CTS makes the sender re-submit this window.
		payload := hfi.AppendTIDList(make([]byte, 0, len(pairs)*hfi.TIDPairSize), pairs)
		w.ctsPayload = payload
		key := mtKey{msgid: rdv.msgid, win: winOff, kind: mtRdvWindow}
		ep.armMsgTimer(key, int(rdv.src), addr,
			func(tp *sim.Proc) error {
				return ep.sendFlowPkt(tp, int(rdv.src), addr, hdr, w.ctsPayload, 0, nil)
			},
			rdv.rr.req.fail)
		return ep.sendFlowPkt(p, int(rdv.src), addr, hdr, payload, 0, nil)
	}
	// Loss-free fabric: the CTS payload is consumed on delivery, so it
	// rides a pooled buffer.
	payload := ep.nic.AllocPayload(len(pairs) * hfi.TIDPairSize)
	hfi.AppendTIDList(payload[:0], pairs)
	return ep.nic.PIOSendPooled(p, addr.Node, addr.Ctx, hdr, payload)
}

// finishWindow frees a completed window's TIDs, pipelines the next
// registration and completes the rendezvous when all bytes are in.
func (ep *Endpoint) finishWindow(p *sim.Proc, rdv *rdvRecv, w *rdvWindow) error {
	listVA := ep.slotVA(w.slot)
	buf, err := hfi.WriteTIDListScratch(ep.proc(), listVA, w.tids, ep.tidBuf)
	ep.tidBuf = buf
	if err != nil {
		return err
	}
	argVA := ep.scratchVA + scratchTIDArg
	ti := &hfi.TIDInfo{TIDListVA: listVA, TIDCount: uint32(len(w.tids))}
	if err := hfi.EncodeTIDInfo(ep.proc(), argVA, ti); err != nil {
		return err
	}
	ep.Stats.TIDIoctls++
	if _, err := ep.OS.Ioctl(p, ep.fd, hfi.CmdTIDFree, argVA); err != nil {
		return fmt.Errorf("psm: TID free: %w", err)
	}
	delete(rdv.windows, w.off)
	ep.freeRdvSlots = append(ep.freeRdvSlots, w.slot)
	rdv.completed += w.len
	if rdv.nextReg < rdv.msglen {
		if err := ep.registerWindow(p, rdv); err != nil {
			return err
		}
	}
	if rdv.completed < rdv.msglen {
		return nil
	}
	// Rendezvous complete.
	delete(ep.rdvRecvs, rdv.msgid)
	ep.activeRdvs--
	ep.completeRecv(rdv.rr, rdv.msglen)
	if ep.reliable {
		// Sequenced receipt: the sender's request completes only when
		// this FIN lands (its CQ completions can predate wire delivery).
		addr, err := ep.addrOf(int(rdv.src))
		if err != nil {
			return err
		}
		fin := ep.header(OpRdvFin, rdv.rr.tag, rdv.msgid, 0, 0, 0)
		if err := ep.sendFlowPkt(p, int(rdv.src), addr, fin, nil, ackWireBytes, nil); err != nil {
			return err
		}
	}
	// Admit a backlogged rendezvous, if any.
	if len(ep.rdvBacklog) > 0 {
		rts := ep.rdvBacklog[0]
		ep.rdvBacklog = ep.rdvBacklog[1:]
		if rr := ep.matchPosted(rts.src, rts.tag); rr != nil {
			return ep.beginRendezvous(p, rr, rts)
		}
		ep.pendingRTS = append(ep.pendingRTS, rts)
	}
	return nil
}
