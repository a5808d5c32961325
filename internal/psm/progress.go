package psm

import (
	"fmt"
	"sort"

	"repro/internal/hfi"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// Progress drains the receive header queue and the send completion
// queue. It returns whether anything was processed, and an error if the
// protocol state machine hit inconsistent data (injected faults surface
// here instead of aborting the process). All state it reads lives in
// host memory written by the NIC/driver, accessed through this process's
// mmap of the context (OS bypass: no system call involved in polling).
func (ep *Endpoint) Progress(p *sim.Proc) (bool, error) {
	made := false
	for {
		head, err := ep.readStatus(hfi.StatusHdrqHead)
		if err != nil {
			return made, err
		}
		if ep.hdrqTail >= head {
			break
		}
		slot := ep.hdrqTail % ep.hdrqEntries
		raw := ep.hdrqRaw[:]
		if err := ep.proc().ReadAt(ep.hdrqVA+uproc.VirtAddr(slot*hfi.HdrqEntrySize), raw); err != nil {
			return made, fmt.Errorf("psm: rank %d hdrq read: %w", ep.Rank, err)
		}
		// Decode into the endpoint's scratch entry: handleEntry consumes
		// it before the loop reads the next slot.
		entry := &ep.hdrqEnt
		if err := hfi.DecodeHdrqEntryInto(entry, raw); err != nil {
			return made, fmt.Errorf("psm: rank %d: %w", ep.Rank, err)
		}
		ep.hdrqTail++
		if err := ep.writeStatus(hfi.StatusHdrqTail, ep.hdrqTail); err != nil {
			return made, err
		}
		if err := ep.handleEntry(p, entry); err != nil {
			return made, fmt.Errorf("psm: rank %d handling entry type %d op %d: %w",
				ep.Rank, entry.Type, entry.Op, err)
		}
		made = true
	}
	// Coalesced cumulative ACKs: one per peer that delivered in-order
	// data during this drain, in rank order.
	if len(ep.ackOwed) > 0 {
		sort.Ints(ep.ackOwed)
		for _, rank := range ep.ackOwed {
			pe := ep.peers[rank]
			pe.ackOwed = false
			ep.Stats.AcksSent++
			if err := ep.sendCtl(p, rank, OpAck, uint64(pe.rx.expected-1)); err != nil {
				return made, err
			}
		}
		ep.ackOwed = ep.ackOwed[:0]
	}
	// Coalesced CNPs: one per peer whose traffic arrived ECN-marked
	// during this drain. Not gated on reliability — congestion control
	// runs on loss-free fabrics too.
	if len(ep.cnpOwed) > 0 {
		sort.Ints(ep.cnpOwed)
		for _, rank := range ep.cnpOwed {
			ep.peers[rank].cnpOwed = false
			ep.Stats.CnpsSent++
			if err := ep.sendCtl(p, rank, OpCnp, 0); err != nil {
				return made, err
			}
		}
		ep.cnpOwed = ep.cnpOwed[:0]
	}
	for {
		head, err := ep.readStatus(hfi.StatusCQHead)
		if err != nil {
			return made, err
		}
		if ep.cqTail >= head {
			break
		}
		slot := ep.cqTail % ep.cqEntries
		seq, err := ep.proc().ReadU64(ep.cqVA + uproc.VirtAddr(slot*8))
		if err != nil {
			return made, fmt.Errorf("psm: rank %d cq read: %w", ep.Rank, err)
		}
		ep.cqTail++
		if err := ep.writeStatus(hfi.StatusCQTail, ep.cqTail); err != nil {
			return made, err
		}
		if err := ep.onSendComplete(p, seq); err != nil {
			return made, err
		}
		made = true
	}
	return made, nil
}

func (ep *Endpoint) handleEntry(p *sim.Proc, e *hfi.HdrqEntry) error {
	switch e.Type {
	case hfi.HdrqTypeEager:
		err := ep.handleEagerEntry(p, e)
		// Every eager-kind packet consumed one ring slot, in order.
		ep.eagerTail++
		if werr := ep.writeStatus(hfi.StatusEagerTail, ep.eagerTail); err == nil {
			err = werr
		}
		return err
	case hfi.HdrqTypeExpectedDone:
		return ep.onWindowDone(p, e)
	case hfi.HdrqTypeExpectedData:
		return ep.onExpectedData(p, e)
	}
	return fmt.Errorf("psm: unknown hdrq entry type %d", e.Type)
}

func (ep *Endpoint) handleEagerEntry(p *sim.Proc, e *hfi.HdrqEntry) error {
	// Congestion marks are observed before sequencing: a mark on a
	// dropped-as-duplicate or out-of-order packet still signals link
	// occupancy the sender should back off from.
	ep.congObserve(int(e.SrcRank), e.Op, e.ECN)
	// Flow sequencing: accept strictly in order, NAK gaps, re-ACK
	// duplicates (the retransmit may have raced a lost ACK). ACK/NAK
	// themselves are unsequenced (PSN 0) and bypass this filter.
	if ep.reliable && e.PSN != 0 {
		src := int(e.SrcRank)
		pe := ep.peerOf(src)
		if pe.rx == nil {
			pe.rx = &rxFlow{expected: 1}
		}
		rf := pe.rx
		if e.PSN <= rf.expected && !pe.ackOwed {
			pe.ackOwed = true
			ep.ackOwed = append(ep.ackOwed, src)
		}
		switch {
		case e.PSN == rf.expected:
			rf.expected++
			rf.nakSentFor = 0
		case e.PSN < rf.expected:
			return nil
		default:
			if rf.nakSentFor != rf.expected {
				rf.nakSentFor = rf.expected
				ep.Stats.NaksSent++
				if err := ep.sendCtl(p, src, OpNak, uint64(rf.expected)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	switch e.Op {
	case hfi.OpEager:
		return ep.onEagerChunk(p, e)
	case OpRTS:
		return ep.onRTS(p, e)
	case OpCTS:
		return ep.onCTS(p, e)
	case OpAck, OpNak:
		return ep.onAck(p, int(e.SrcRank), uint32(e.Aux), e.Op == OpNak)
	case OpEagerFin, OpRdvFin:
		return ep.onFin(e)
	case OpCnp:
		ep.congBackoff(int(e.SrcRank))
		return nil
	}
	return fmt.Errorf("psm: unknown eager opcode %d", e.Op)
}

// slotPayload reads the eager slot bytes for an entry (real mode). The
// returned slice is endpoint scratch, valid until the next slotPayload
// call; every consumer copies it out before then.
func (ep *Endpoint) slotPayload(e *hfi.HdrqEntry) ([]byte, error) {
	if e.Bytes == 0 {
		return nil, nil
	}
	if uint64(cap(ep.slotBuf)) < e.Bytes {
		ep.slotBuf = make([]byte, e.Bytes)
	}
	buf := ep.slotBuf[:e.Bytes]
	off := uint64(e.EagerIdx) * ep.nic.Params().EagerChunk
	if err := ep.proc().ReadAt(ep.eagerVA+uproc.VirtAddr(off), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// onEagerChunk lands one data chunk: directly into the bound receive
// buffer, or into a bounce heap for unexpected arrivals (both charged
// the copy cost; real PSM does exactly this double-copy dance).
func (ep *Endpoint) onEagerChunk(p *sim.Proc, e *hfi.HdrqEntry) error {
	// A msgid (sender rank<<32 | sequence) is unique across senders.
	key := e.MsgID
	if ep.reliable && ep.completedMsgs[key] {
		// Stale chunk of an already-assembled message (a late SDMA
		// packet racing its own PIO replay).
		return nil
	}
	inb := ep.inflight[key]
	if inb == nil {
		inb = ep.inbounds.Get()
		inb.src, inb.tag, inb.msgid, inb.msglen = e.SrcRank, e.Tag, e.MsgID, e.MsgLen
		if rr := ep.matchPosted(e.SrcRank, e.Tag); rr != nil {
			if e.MsgLen > rr.capacity {
				// MPI truncation semantics: fail the receive, which
				// nothing holds on to any more, and consume the message
				// as unexpected data.
				rr.req.complete(fmt.Errorf("psm: message of %d bytes truncates %d-byte receive", e.MsgLen, rr.capacity))
				ep.drop(&rr.req)
			} else {
				inb.bound = rr
			}
		}
		if inb.bound == nil && !ep.Synthetic {
			inb.heap = bounceHeap(inb.heap, e.MsgLen)
		}
		ep.inflight[key] = inb
	}
	if ep.reliable {
		// Byte-interval dedup: an SDMA original and its PIO replay can
		// overlap; only newly covered bytes count toward assembly (the
		// writes themselves are idempotent).
		n := inb.ivs.add(e.Offset, e.Offset+e.Bytes)
		if n == 0 {
			return nil
		}
		inb.got += n
	} else {
		inb.got += e.Bytes
	}
	p.Sleep(ep.nic.Params().MemcpyTime(e.Bytes))
	if !ep.Synthetic && e.Bytes > 0 {
		payload, err := ep.slotPayload(e)
		if err != nil {
			return err
		}
		if inb.bound != nil {
			if err := ep.proc().WriteAt(inb.bound.buf+uproc.VirtAddr(e.Offset), payload); err != nil {
				return err
			}
		} else {
			copy(inb.heap[e.Offset:], payload)
		}
	}
	if inb.got >= inb.msglen {
		delete(ep.inflight, key)
		if ep.reliable {
			ep.rememberCompleted(key)
			if err := ep.maybeSendEagerFin(p, inb); err != nil {
				return err
			}
		}
		if inb.bound != nil {
			ep.completeRecv(inb.bound, inb.msglen)
			ep.inbounds.Put(inb)
		} else {
			ep.Stats.Unexpected++
			ep.unexpected = append(ep.unexpected, inb)
		}
	}
	return nil
}

// bounceHeap returns a zeroed n-byte bounce heap, reusing heap's array
// when it is large enough. Zeroing matters on a lossy fabric: a partial
// match copies the whole heap, gaps included, into the receive buffer.
func bounceHeap(heap []byte, n uint64) []byte {
	if uint64(cap(heap)) < n {
		return make([]byte, n)
	}
	heap = heap[:n]
	clear(heap)
	return heap
}

// maybeSendEagerFin acknowledges full assembly of an SDMA-borne eager
// message back to a remote sender (PIO-only messages are covered by
// flow ACKs, local ones never touch the fabric).
func (ep *Endpoint) maybeSendEagerFin(p *sim.Proc, inb *inbound) error {
	if inb.msglen <= ep.nic.Params().PIOMaxSize {
		return nil
	}
	addr, err := ep.addrOf(int(inb.src))
	if err != nil {
		return err
	}
	if addr.Node == ep.OS.NodeID() {
		return nil
	}
	fin := ep.header(OpEagerFin, inb.tag, inb.msgid, 0, 0, 0)
	return ep.sendFlowPkt(p, int(inb.src), addr, fin, nil, nil, ackWireBytes, nil)
}

// onRTS matches a rendezvous announcement against posted receives.
func (ep *Endpoint) onRTS(p *sim.Proc, e *hfi.HdrqEntry) error {
	rts := rtsInfo{src: e.SrcRank, tag: e.Tag, msgid: e.MsgID, msglen: e.MsgLen}
	if rr := ep.matchPosted(e.SrcRank, e.Tag); rr != nil {
		return ep.beginRendezvous(p, rr, rts)
	}
	ep.pendingRTS = append(ep.pendingRTS, rts)
	return nil
}

// onCTS lets the sender push one window of expected data: write the TID
// list into scratch and submit the SDMA writev targeting the receiver's
// registered buffer.
func (ep *Endpoint) onCTS(p *sim.Proc, e *hfi.HdrqEntry) error {
	sr, ok := ep.sends[e.MsgID]
	if !ok {
		if ep.reliable {
			// A recovery re-CTS can trail a send that already failed
			// terminally (retry budget); tolerate it.
			return nil
		}
		return fmt.Errorf("psm: CTS for unknown message %#x", e.MsgID)
	}
	payload, err := ep.slotPayload(e)
	if err != nil {
		return err
	}
	// The CTS payload is already the TID list's wire encoding; stage it
	// into send scratch as-is instead of decoding and re-encoding.
	nPairs := len(payload) / hfi.TIDPairSize
	if nPairs == 0 {
		return fmt.Errorf("psm: CTS without TIDs for message %#x", e.MsgID)
	}
	windowOff := e.Aux
	winLen := e.MsgLen
	tidsVA := ep.scratchVA + scratchSendTIDs
	if err := ep.proc().WriteAt(tidsVA, payload); err != nil {
		return err
	}
	ep.congPreSDMA(p, sr.peer, winLen)
	ep.nextCompSeq++
	cs := ep.nextCompSeq
	hdr := &hfi.SDMAHeader{
		Op: hfi.OpExpected, DstNode: uint32(sr.dst.Node), DstCtx: uint32(sr.dst.Ctx),
		SrcRank: uint32(ep.Rank), Tag: sr.tag, MsgID: sr.msgid, MsgLen: winLen,
		TIDListVA: tidsVA, TIDCount: uint32(nPairs),
		CompSeq: cs, Flags: ep.flags(winLen), Aux: windowOff,
	}
	if err := ep.writevSDMA(p, hdr, sr.buf+uproc.VirtAddr(windowOff), winLen); err != nil {
		return err
	}
	ep.awaitCompletion(cs, sr)
	sr.windows++
	// A re-CTSed window (receiver-side recovery) submits again but only
	// counts toward remaining once.
	if ep.reliable {
		if sr.ctsSeen == nil {
			sr.ctsSeen = make(map[uint64]bool)
		}
		if sr.ctsSeen[windowOff] {
			return nil
		}
		sr.ctsSeen[windowOff] = true
	}
	sr.remaining -= winLen
	return nil
}

// onSendComplete retires one CQ completion. The raw CQ word carries the
// sequence number in the low half and the error bit above it. The CQ
// entry's hold on the send is dropped once the completion is handled.
func (ep *Endpoint) onSendComplete(p *sim.Proc, seqRaw uint64) error {
	seq := uint32(seqRaw)
	sr, ok := ep.bySeq[seq]
	if !ok {
		return fmt.Errorf("psm: rank %d completion for unknown seq %d", ep.Rank, seq)
	}
	delete(ep.bySeq, seq)
	defer ep.drop(&sr.req)
	sr.windows--
	if seqRaw&hfi.CQErrBit != 0 {
		if ep.reliable && sr.op == "send:eager-sdma" && !sr.req.Done {
			// Fast-path failure with a live reliability layer: strike the
			// health machine (enough strikes fail the endpoint over to
			// the slow path) and recover this message by replaying it as
			// sequenced PIO chunks — the same replay the eager-fin timer
			// performs, so completion still rides the receiver's FIN.
			ep.health.sdmaStrike()
			ep.Stats.MsgResends++
			return ep.resendEagerPIO(p, sr)
		}
		// Terminal SDMA failure (driver retry budget exhausted with
		// degradation disabled, no recovery path): surface a typed error.
		sr.req.complete(&SDMAError{Rank: ep.Rank, Seq: seq})
		ep.untrackSend(sr)
		if ep.reliable {
			ep.cancelMsgTimer(mtKey{msgid: sr.msgid, kind: mtEagerFin})
		}
		return nil
	}
	ep.maybeCompleteSend(sr)
	return nil
}

// onExpectedData processes one TID-placed packet on a lossy fabric:
// PSM tracks window coverage itself because a single Last-packet
// completion is not trustworthy when packets can be lost.
func (ep *Endpoint) onExpectedData(p *sim.Proc, e *hfi.HdrqEntry) error {
	rdv, ok := ep.rdvRecvs[e.MsgID]
	if !ok {
		return nil // stale data for a finished message
	}
	w, ok := rdv.windows[e.Aux]
	if !ok {
		return nil // stale data for a finished window
	}
	n := w.ivs.add(e.Offset, e.Offset+e.Bytes)
	if n == 0 {
		return nil
	}
	w.covered += n
	key := mtKey{msgid: e.MsgID, win: e.Aux, kind: mtRdvWindow}
	ep.touchMsgTimer(key)
	if w.covered < w.len {
		return nil
	}
	ep.cancelMsgTimer(key)
	return ep.finishWindow(p, rdv, w)
}

// onFin completes the lossy-fabric handshake of an SDMA-borne send.
func (ep *Endpoint) onFin(e *hfi.HdrqEntry) error {
	sr, ok := ep.sends[e.MsgID]
	if !ok {
		return nil // duplicate FIN after completion
	}
	sr.finDone = true
	ep.cancelMsgTimer(mtKey{msgid: e.MsgID, kind: mtEagerFin})
	ep.maybeCompleteSend(sr)
	return nil
}

// onWindowDone processes an expected-receive completion: free the
// window's TIDs, then register the next window or finish the message.
func (ep *Endpoint) onWindowDone(p *sim.Proc, e *hfi.HdrqEntry) error {
	rdv, ok := ep.rdvRecvs[e.MsgID]
	if !ok {
		return fmt.Errorf("psm: expected completion for unknown message %#x", e.MsgID)
	}
	w, ok := rdv.windows[e.Aux]
	if !ok {
		return fmt.Errorf("psm: completion for unregistered window at offset %d", e.Aux)
	}
	if w.len != e.MsgLen {
		return fmt.Errorf("psm: window at %d completed %d bytes, registered %d", e.Aux, e.MsgLen, w.len)
	}
	return ep.finishWindow(p, rdv, w)
}
