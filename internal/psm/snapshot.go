package psm

import (
	"cmp"
	"crypto/sha256"
	"sort"

	"repro/internal/snapshot"
)

// EncodeState serializes the endpoint's protocol state: matched queues,
// send windows, rendezvous receive windows, and — on a lossy fabric —
// the go-back-N flows with their retained packets, retransmit timers
// and budgets. Registered by NewEndpoint under "psm/rank<N>" and
// unregistered by Close, so a snapshot taken after an endpoint teardown
// matches one taken by a replay that also tore it down.
func (ep *Endpoint) EncodeState(e *snapshot.Enc) {
	e.Printf("stats %+v\n", ep.Stats)
	e.Printf("cursors hdrq=%d eager=%d cq=%d nextmsg=%d nextcomp=%d closed=%v\n",
		ep.hdrqTail, ep.eagerTail, ep.cqTail, ep.nextMsgSeq, ep.nextCompSeq, ep.closed)

	for i, rr := range ep.posted {
		e.Printf("posted i=%d src=%d tag=%x buf=%x cap=%d\n", i, rr.src, rr.tag, uint64(rr.buf), rr.capacity)
	}
	for i, in := range ep.unexpected {
		encodeInbound(e, "unexpected", i, in)
	}
	for _, m := range sortedKeys(ep.inflight) {
		in := ep.inflight[m]
		encodeInbound(e, "inflight", int(in.src), in)
	}
	for i, r := range ep.pendingRTS {
		e.Printf("pendingrts i=%d src=%d tag=%x msgid=%d len=%d\n", i, r.src, r.tag, r.msgid, r.msglen)
	}

	for _, sq := range sortedKeys(ep.bySeq) {
		e.Printf("window seq=%d msgid=%d\n", sq, ep.bySeq[sq].msgid)
	}
	for _, m := range sortedKeys(ep.sends) {
		sr := ep.sends[m]
		e.Printf("send msgid=%d peer=%d tag=%x len=%d remaining=%d windows=%d ctsdone=%v needfin=%v findone=%v op=%q\n",
			m, sr.peer, sr.tag, sr.length, sr.remaining, sr.windows, sr.ctsDone, sr.needFin, sr.finDone, sr.op)
	}
	for _, m := range sortedKeys(ep.rdvRecvs) {
		rv := ep.rdvRecvs[m]
		e.Printf("rdv msgid=%d src=%d len=%d nextreg=%d completed=%d winsize=%d windows=%d\n",
			m, rv.src, rv.msglen, rv.nextReg, rv.completed, rv.winSize, len(rv.windows))
		for _, o := range sortedKeys(rv.windows) {
			w := rv.windows[o]
			e.Printf("rdv msgid=%d window off=%d len=%d tids=%d slot=%d covered=%d\n",
				m, o, w.len, len(w.tids), w.slot, w.covered)
		}
	}
	e.Printf("rdv active=%d backlog=%d freeslots=%d\n", ep.activeRdvs, len(ep.rdvBacklog), len(ep.freeRdvSlots))

	// Per-peer state, one walk in rank order. A sub-state prints only
	// once it exists (flows on a lossy fabric, a window after a CNP), so
	// loss-free congestion-off snapshots carry no peer lines at all.
	for _, rank := range sortedKeys(ep.peers) {
		pe := ep.peers[rank]
		if cc := pe.cong; cc != nil {
			e.Printf("peer=%d cong window=%d clean=%d burst=%d\n", rank, cc.window, cc.clean, cc.burst)
		}
		if fl := pe.tx; fl != nil {
			e.Printf("peer=%d txflow nextpsn=%d unacked=%d waiters=%d failed=%v gbnran=%v lastgbn=%d ",
				rank, fl.nextPSN, len(fl.unacked), len(fl.waiters), fl.failed != nil, fl.gbnRan, int64(fl.lastGBN))
			encodeTimer(e, &fl.retryTimer)
			for _, tp := range fl.unacked {
				e.Printf("peer=%d txflow pkt psn=%d op=%d msgid=%d bytes=%d", rank, tp.psn, tp.hdr.Op, tp.hdr.MsgID, tp.bytes)
				if tp.payload != nil {
					sum := sha256.Sum256(tp.payload)
					e.Printf(" payload=%x", sum[:8])
				}
				e.Printf("\n")
			}
		}
		if rf := pe.rx; rf != nil {
			e.Printf("peer=%d rxflow expected=%d naksentfor=%d\n", rank, rf.expected, rf.nakSentFor)
		}
		if pe.ackOwed || pe.cnpOwed {
			e.Printf("peer=%d owed ack=%v cnp=%v\n", rank, pe.ackOwed, pe.cnpOwed)
		}
	}

	tkeys := make([]mtKey, 0, len(ep.msgTimers))
	for k := range ep.msgTimers {
		tkeys = append(tkeys, k)
	}
	sortMTKeys(tkeys)
	for _, k := range tkeys {
		mt := ep.msgTimers[k]
		e.Printf("msgtimer msgid=%d win=%d kind=%d peer=%d ", k.msgid, k.win, k.kind, mt.peer)
		encodeTimer(e, &mt.retryTimer)
	}
	e.Printf("completed msgs=%d fifo=%d\n", len(ep.completedMsgs), len(ep.completedFIFO))
	// Only an endpoint on a lossy fabric has a health machine.
	if h := ep.health; h != nil {
		e.Printf("health state=%d cause=%d strikes=%d peer=%d ", h.state, h.cause, h.strikes, h.peer)
		encodeTimer(e, &h.retryTimer)
	}
}

// encodeTimer ends a line with a recovery timer's state.
func encodeTimer(e *snapshot.Enc, t *retryTimer) {
	e.Printf("armed=%v deadline=%d rto=%d retries=%d\n", t.armed, int64(t.deadline), int64(t.rto), t.retries)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func encodeInbound(e *snapshot.Enc, kind string, i int, in *inbound) {
	e.Printf("%s i=%d src=%d tag=%x msgid=%d len=%d got=%d bound=%v heap=%d\n",
		kind, i, in.src, in.tag, in.msgid, in.msglen, in.got, in.bound != nil, len(in.heap))
}
