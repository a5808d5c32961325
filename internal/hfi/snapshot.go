package hfi

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/snapshot"
)

// EncodeState serializes the NIC's mutable device state: the SDMA-error
// RNG, every instrumentation counter, per-context ring release cursors
// and RcvArray programming (the head and tail cursors live in simulated
// host memory, which the node's PhysMem section covers), per-engine
// queue depths with their undrained transactions, the undelivered
// receive queue, and the coalescing IRQ latch. Registered by
// cluster.buildNode under "node<N>/hfi".
func (n *NIC) EncodeState(e *snapshot.Enc) {
	if n.frng != nil {
		st := n.frng.State()
		e.Printf("frng=%016x,%016x,%016x,%016x\n", st[0], st[1], st[2], st[3])
	}
	e.Printf("counters rx=%d sdmareq=%d sdmafull=%d irqs=%d rxdrop=%d rxcorrupt=%d rxstale=%d sdmaerr=%d tidprog=%d tidclear=%d\n",
		n.RxPackets, n.SDMARequests, n.SDMAFullSize, n.IRQsRaised,
		n.RxDropped, n.RxCorrupt, n.RxStaleTID, n.SDMAErrors,
		n.TIDProgramOps, n.TIDClearOps)
	// Rail lines: only a dual-rail NIC has a second port.
	if n.port1 != nil {
		e.Printf("rail dual=true tx0=%d tx1=%d\n", n.port.TxBytes, n.port1.TxBytes)
		dsts := make([]int, 0, len(n.railOf))
		for d := range n.railOf {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			e.Printf("rail dst=%d tx=%d\n", d, n.railOf[d])
		}
	}

	ids := make([]int, 0, len(n.contexts))
	for id := range n.contexts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ctx := n.contexts[id]
		e.Printf("ctx id=%d status=%d hdrq=%d/%d eager=%d/%d cq=%d/%d tids=%d programmed=%d waiters=%d released=%d/%d\n",
			id, uint64(ctx.StatusPA),
			uint64(ctx.HdrqPA), ctx.HdrqEntries,
			uint64(ctx.EagerPA), ctx.EagerSlots,
			uint64(ctx.CQPA), ctx.CQEntries,
			ctx.TIDCount, ctx.TIDsProgrammed, ctx.Notify.Waiting(),
			ctx.hdrqReleased, ctx.eagerReleased)
		for idx, t := range ctx.tids {
			// Generation survives a clear, so any touched entry is state
			// even when invalid.
			if t.valid || t.gen > 0 {
				e.Printf("ctx id=%d tid=%d valid=%v gen=%d addr=%d len=%d\n",
					id, idx, t.valid, t.gen, uint64(t.ext.Addr), t.ext.Len)
			}
		}
	}

	for _, eng := range n.engines {
		e.Printf("sdma engine=%d submitted=%d bytes=%d queued=%d drainwait=%d\n",
			eng.Index, eng.Submitted, eng.BytesSent, eng.q.Len(), eng.drain.Waiting())
		for _, txn := range eng.q.Items() {
			encodeTxnState(e, "sdma queued", txn)
		}
	}

	e.Printf("rxq len=%d\n", n.rxq.Len())
	for _, pkt := range n.rxq.Items() {
		e.Printf("rxq ")
		fabric.EncodePacketState(e, pkt)
		e.Printf("\n")
	}

	pending := 0
	for txn := n.irqHead; txn != nil; txn = txn.irqNext {
		pending++
	}
	e.Printf("irq scheduled=%v pending=%d\n", n.irqScheduled, pending)
	for txn := n.irqHead; txn != nil; txn = txn.irqNext {
		encodeTxnState(e, "irq pending", txn)
	}
}

// encodeTxnState emits one SDMA transaction's snapshot line.
func encodeTxnState(e *snapshot.Enc, prefix string, t *SDMATxn) {
	e.Printf("%s txn engine=%d dst=%d ctx=%d kind=%d msgid=%d reqs=%d bytes=%d synthetic=%v attempts=%d failedat=%d err=%v submitat=%d cb=%x/%x\n",
		prefix, t.Engine, t.DstNode, t.DstCtx, t.Kind, t.Hdr.MsgID,
		len(t.Requests), t.Bytes(), t.Synthetic, t.Attempts, t.FailedAt,
		t.Err != nil, int64(t.submitAt), t.CallbackVA, t.CallbackArg)
}
