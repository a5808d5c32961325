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
	sr := ep.newSend()
	sr.req.Bytes, sr.req.begin = length, p.Now()
	sr.dst, sr.peer, sr.tag, sr.buf, sr.length = a, dst, tag, buf, length
	ep.nextMsgSeq++
	sr.msgid = uint64(ep.Rank)<<32 | ep.nextMsgSeq
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
		if err := ep.sendLocal(p, sr); err != nil {
			return nil, err
		}
		ep.Stats.SendsLocal++
		sr.req.complete(nil)
		ep.span("send:local", sr.req.begin, length)
	case length <= ep.nic.Params().PIOMaxSize:
		if err := ep.sendPIO(p, sr); err != nil {
			return nil, err
		}
		ep.Stats.SendsPIO++
	case length <= ep.nic.Params().SDMAThreshold:
		if err := ep.sendEagerSDMA(p, sr); err != nil {
			return nil, err
		}
		ep.Stats.SendsEagerSDMA++
	default:
		if err := ep.sendRendezvous(p, sr); err != nil {
			return nil, err
		}
		ep.Stats.SendsRdv++
	}
	return &sr.req, nil
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
func (ep *Endpoint) sendLocal(p *sim.Proc, sr *sendReq) error {
	return ep.eagerChunks(sr.length, func(off, n uint64) error {
		// LocalDeliver consumes the payload synchronously, so the scratch
		// chunk can be reused for the next one.
		payload, err := ep.readPayloadScratch(sr.buf+uproc.VirtAddr(off), n)
		if err != nil {
			return err
		}
		hdr := ep.header(hfi.OpEager, sr.tag, sr.msgid, sr.length, off, 0)
		return ep.nic.LocalDeliver(p, sr.dst.Ctx, hdr, payload, n)
	})
}

// sendPIO pushes a small message through programmed I/O: user-space
// stores, no kernel involvement at all. The request completes when the
// last chunk is acknowledged — immediately on a loss-free fabric,
// on cumulative ACK otherwise.
func (ep *Endpoint) sendPIO(p *sim.Proc, sr *sendReq) error {
	a := sr.dst
	return ep.eagerChunks(sr.length, func(off, n uint64) error {
		hdr := ep.header(hfi.OpEager, sr.tag, sr.msgid, sr.length, off, 0)
		last := off+n >= sr.length
		if !ep.reliable && !ep.Synthetic {
			// Loss-free fabric: nothing retains the chunk after delivery,
			// so it can ride a pooled buffer that the receiving NIC
			// recycles.
			payload := ep.nic.AllocPayload(int(n))
			if err := ep.proc().ReadAt(sr.buf+uproc.VirtAddr(off), payload); err != nil {
				ep.nic.RecyclePayload(payload)
				return fmt.Errorf("psm: rank %d payload read: %w", ep.Rank, err)
			}
			if err := ep.nic.PIOSendPooled(p, a.Node, a.Ctx, hdr, payload); err != nil {
				return err
			}
			if last && sr.req.complete(nil) {
				ep.span("send:pio", sr.req.begin, sr.length)
			}
		} else {
			payload, c, err := ep.readPayload(sr.buf+uproc.VirtAddr(off), n)
			if err != nil {
				return err
			}
			var onAcked func(error)
			if last {
				// The flow waiter holds the record until it fires.
				sr.req.hold()
				onAcked = sr.acked
			}
			if err := ep.sendFlowPkt(p, sr.peer, a, hdr, payload, c, n, onAcked); err != nil {
				return err
			}
		}
		ep.congPace(p, sr.peer, n)
		return nil
	})
}

// pioAcked completes a PIO send once its last chunk is acknowledged (or
// its flow died), and lets go of the flow waiter's hold.
func (sr *sendReq) pioAcked(err error) {
	if sr.req.complete(err) && err == nil {
		sr.ep.span("send:pio", sr.req.begin, sr.length)
	}
	sr.ep.drop(&sr.req)
}

// readPayload loads message bytes from user memory into a retained
// chunk from the endpoint's free list (nil, nil in synthetic mode —
// lengths still flow through the whole stack). The chunk comes back
// unheld: sendFlowPkt takes its holds, and the last holder to let go
// returns it to the free list (chunk, EXPERIMENTS.md "Retained payloads
// go back by hold count"). It never touches the fabric's buffer pool,
// whose hit counters are exact benchmark counters.
func (ep *Endpoint) readPayload(va uproc.VirtAddr, n uint64) ([]byte, *chunk, error) {
	if ep.Synthetic {
		return nil, nil, nil
	}
	c := ep.takeChunk()
	buf := c.buf[:n]
	if err := ep.proc().ReadAt(va, buf); err != nil {
		ep.freeChunks = append(ep.freeChunks, c)
		return nil, nil, fmt.Errorf("psm: rank %d payload read: %w", ep.Rank, err)
	}
	return buf, c, nil
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
func (ep *Endpoint) sendEagerSDMA(p *sim.Proc, sr *sendReq) error {
	sr.ctsDone, sr.needFin, sr.op = true, ep.reliable, "send:eager-sdma"
	if ep.avoidSDMA() {
		// Failed over from the SDMA fast path: carry the payload as
		// sequenced PIO chunks instead of a writev. Completion still
		// rides the receiver's FIN, and the eager-fin timer replays the
		// message if the FIN stalls — identical recovery semantics, no
		// SDMA engine involved.
		ep.armEagerFin(sr)
		return ep.resendEagerPIO(p, sr)
	}
	ep.congPreSDMA(p, sr.peer, sr.length)
	ep.nextCompSeq++
	cs := ep.nextCompSeq
	hdr := &hfi.SDMAHeader{
		Op: hfi.OpEager, DstNode: uint32(sr.dst.Node), DstCtx: uint32(sr.dst.Ctx),
		SrcRank: uint32(ep.Rank), Tag: sr.tag, MsgID: sr.msgid, MsgLen: sr.length,
		CompSeq: cs, Flags: ep.flags(sr.length),
	}
	if err := ep.writevSDMA(p, hdr, sr.buf, sr.length); err != nil {
		return err
	}
	sr.windows = 1
	ep.awaitCompletion(cs, sr)
	if ep.reliable {
		ep.armEagerFin(sr)
	}
	return nil
}

// awaitCompletion files sr under the CQ sequence of one of its SDMA
// submissions; the entry holds the record until the completion retires.
func (ep *Endpoint) awaitCompletion(cs uint32, sr *sendReq) {
	sr.req.hold()
	ep.bySeq[cs] = sr
}

// trackSend files sr in ep.sends, which holds it until untrackSend.
func (ep *Endpoint) trackSend(sr *sendReq) {
	sr.req.hold()
	ep.sends[sr.msgid] = sr
}

// untrackSend removes sr from ep.sends, if there, and drops the map's
// hold.
func (ep *Endpoint) untrackSend(sr *sendReq) {
	if ep.sends[sr.msgid] == sr {
		delete(ep.sends, sr.msgid)
		ep.drop(&sr.req)
	}
}

// armEagerFin registers an eager-SDMA send to await its FIN and arms the
// FIN-replay recovery timer.
func (ep *Endpoint) armEagerFin(sr *sendReq) {
	ep.trackSend(sr)
	ep.armMsgTimer(mtKey{msgid: sr.msgid, kind: mtEagerFin}, sr.peer, sr.dst, &sr.req)
}

// sendRendezvous issues the RTS; the CTS handler drives the SDMA windows.
func (ep *Endpoint) sendRendezvous(p *sim.Proc, sr *sendReq) error {
	sr.remaining, sr.op, sr.needFin = sr.length, "send:rdv", ep.reliable
	ep.trackSend(sr)
	hdr := ep.header(OpRTS, sr.tag, sr.msgid, sr.length, 0, 0)
	return ep.sendFlowPkt(p, sr.peer, sr.dst, hdr, nil, nil, 16, nil)
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
	rr := ep.newRecv()
	rr.req.begin = p.Now()
	rr.src, rr.tag, rr.buf, rr.capacity = src, tag, buf, capacity
	req := &rr.req

	// MPI non-overtaking: of everything already here for (src, tag) —
	// fully arrived, partially arrived, or announced by an RTS — the
	// receive takes what was sent first. msgid = rank<<32 | seq is send
	// order within one source, so that is the lowest msgid, whichever
	// list holds it and whatever order the inflight map iterates in.
	var inb *inbound
	rtsAt := -1
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
	for i, r := range ep.pendingRTS {
		if int(r.src) == src && r.tag == tag && (rtsAt < 0 || r.msgid < ep.pendingRTS[rtsAt].msgid) {
			rtsAt = i
		}
	}
	switch {
	case rtsAt >= 0 && (inb == nil || ep.pendingRTS[rtsAt].msgid < inb.msgid):
		rts := ep.pendingRTS[rtsAt]
		ep.pendingRTS = slices.Delete(ep.pendingRTS, rtsAt, rtsAt+1)
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
				// A reused heap was zeroed, so the gaps copy zeroes.
				landed = inb.heap
			}
			if err := ep.proc().WriteAt(rr.buf, landed); err != nil {
				return nil, err
			}
		}
		// The rest lands in place; the record keeps the heap's array.
		inb.heap = inb.heap[:0]
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

// completeRecv finishes a receive of n bytes and lets go of the matching
// state's hold: the caller has read the record for the last time. A
// receive a recovery timer already failed keeps its error.
func (ep *Endpoint) completeRecv(rr *recvReq, n uint64) {
	rr.req.complete(nil)
	ep.Stats.Recvs++
	ep.Stats.BytesRecv += n
	ep.span("recv", rr.req.begin, n)
	ep.drop(&rr.req)
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
func (ep *Endpoint) beginRendezvous(p *sim.Proc, rr *recvReq, rts rtsInfo) error {
	if rts.msglen > rr.capacity {
		// Truncation fails the receive, which nothing holds on to any
		// more; the RTS stays pending for a correctly sized receive.
		rr.req.complete(fmt.Errorf("psm: rendezvous of %d bytes truncates %d-byte receive", rts.msglen, rr.capacity))
		ep.drop(&rr.req)
		ep.pendingRTS = append(ep.pendingRTS, rts)
		return nil
	}
	if ep.activeRdvs >= maxActiveRdv {
		ep.rdvBacklog = append(ep.rdvBacklog, rts)
		// Re-queue the receive so the backlog pop can find it.
		ep.posted = append(ep.posted, rr)
		return nil
	}
	rdv := ep.newRdv()
	rdv.rr, rdv.src, rdv.msgid, rdv.msglen = rr, rts.src, rts.msgid, rts.msglen
	rdv.winSize = ep.nic.Params().RendezvousWindow
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
	ep.freeRdvSlots = slices.Delete(ep.freeRdvSlots, 0, 1)
	w := ep.newWindow()
	w.off, w.len, w.slot = winOff, winLen, slot
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
		ep.armMsgTimer(key, int(rdv.src), addr, &rdv.rr.req)
		return ep.sendFlowPkt(p, int(rdv.src), addr, hdr, payload, nil, 0, nil)
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
	ep.retireWindow(w)
	if rdv.nextReg < rdv.msglen {
		if err := ep.registerWindow(p, rdv); err != nil {
			return err
		}
	}
	if rdv.completed < rdv.msglen {
		return nil
	}
	// Rendezvous complete: the receive is completed, and the record
	// retired, after the last read of either.
	delete(ep.rdvRecvs, rdv.msgid)
	ep.activeRdvs--
	src := int(rdv.src)
	fin := ep.header(OpRdvFin, rdv.rr.tag, rdv.msgid, 0, 0, 0)
	ep.completeRecv(rdv.rr, rdv.msglen)
	ep.retireRdv(rdv)
	if ep.reliable {
		// Sequenced receipt: the sender's request completes only when
		// this FIN lands (its CQ completions can predate wire delivery).
		addr, err := ep.addrOf(src)
		if err != nil {
			return err
		}
		if err := ep.sendFlowPkt(p, src, addr, fin, nil, nil, ackWireBytes, nil); err != nil {
			return err
		}
	}
	// Admit a backlogged rendezvous, if any.
	if len(ep.rdvBacklog) > 0 {
		rts := ep.rdvBacklog[0]
		ep.rdvBacklog = slices.Delete(ep.rdvBacklog, 0, 1)
		if rr := ep.matchPosted(rts.src, rts.tag); rr != nil {
			return ep.beginRendezvous(p, rr, rts)
		}
		ep.pendingRTS = append(ep.pendingRTS, rts)
	}
	return nil
}
