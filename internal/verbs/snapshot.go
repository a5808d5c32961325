package verbs

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/snapshot"
)

// EncodeState serializes the HCA's device state: counters, every QP's
// ring cursors and outstanding work requests, the registered rkey
// table, the WQE scheduler queue and the undelivered receive queue.
// Ring/CQE contents live in Linux kernel memory, covered by the node's
// PhysMem section. Registered by cluster.buildNode under
// "node<N>/rnic".
func (r *RNIC) EncodeState(e *snapshot.Enc) {
	e.Printf("counters doorbells=%d wqes=%d dma=%d cqes=%d errcqes=%d rx=%d nextqpn=%d waiters=%d\n",
		r.Doorbells, r.WQEs, r.DMAChunks, r.CQEs, r.ErrCQEs, r.RxPackets, r.nextQPN, r.Notify.Waiting())

	qpns := make([]uint32, 0, len(r.qps))
	for q := range r.qps {
		qpns = append(qpns, q)
	}
	sort.Slice(qpns, func(i, j int) bool { return qpns[i] < qpns[j] })
	for _, qpn := range qpns {
		qp := r.qps[qpn]
		e.Printf("qp qpn=%d state=%d anysrc=%v remote=%d/%d sq=%d/%d cqprod=%d scheduled=%v doorbellat=%d nextmsg=%d pending=%d discard=%d\n",
			qpn, qp.state, qp.anySource, qp.remoteNode, qp.remoteQPN,
			qp.sqHead, qp.sqTail, qp.cqProd,
			qp.scheduled, int64(qp.doorbellAt), qp.nextMsg,
			len(qp.pending), len(qp.discard))
		msgs := make([]uint64, 0, len(qp.pending))
		for m := range qp.pending {
			msgs = append(msgs, m)
		}
		sort.Slice(msgs, func(i, j int) bool { return msgs[i] < msgs[j] })
		for _, m := range msgs {
			wr := qp.pending[m]
			e.Printf("qp qpn=%d pending msg=%d wrid=%d op=%d bytes=%d begin=%d\n",
				qpn, m, wr.wrid, wr.opcode, wr.bytes, int64(wr.begin))
		}
	}

	rkeys := make([]uint32, 0, len(r.keys))
	for k := range r.keys {
		rkeys = append(rkeys, k)
	}
	sort.Slice(rkeys, func(i, j int) bool { return rkeys[i] < rkeys[j] })
	for _, k := range rkeys {
		e.Printf("rkey key=%d\n", k)
	}

	e.Printf("sched len=%d rxq len=%d\n", r.sched.Len(), r.rxq.Len())
	for _, qp := range r.sched.Items() {
		e.Printf("sched qpn=%d\n", qp.qpn)
	}
	for _, pkt := range r.rxq.Items() {
		e.Printf("rxq ")
		fabric.EncodePacketState(e, pkt)
		e.Printf("\n")
	}
}
