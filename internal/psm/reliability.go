package psm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// This file implements PSM's reliability layer, active only when the
// fabric injects faults (Endpoint.reliable). It has two tiers:
//
//   - Flow sequencing: every PIO-sent protocol packet (eager data
//     chunks, RTS, CTS, FINs) carries a per-peer sequence number. The
//     receiver accepts strictly in order, NAKs gaps, and the sender
//     retransmits go-back-N under an exponentially backed-off timer
//     with a retry budget (surfaced as RetryBudgetError).
//   - Message-level recovery for transfers whose data bypasses flow
//     sequencing because the SDMA engine emits it: an eager-SDMA sender
//     replays the message as sequenced PIO chunks until the receiver's
//     FIN arrives; a rendezvous receiver re-CTSes a window whose
//     expected data stalls (the sender then re-submits that window).
//
// On a loss-free fabric none of this state exists and sendFlowPkt
// degenerates to a plain PIO send.

// ackWireBytes is the modeled wire size of ACK/NAK/FIN control packets.
const ackWireBytes = 8

// completedCap bounds the completed-message dedup set (stale duplicate
// suppression); a FIFO evicts the oldest entries.
const completedCap = 1024

// txPkt is one unacknowledged sequenced packet retained for go-back-N
// retransmission. chunk, when set, is the retained chunk payload lies
// in; the listing holds it.
type txPkt struct {
	psn     uint32
	hdr     fabric.Header
	payload []byte
	bytes   uint64
	chunk   *chunk `snap:"-"` // payload's holder, not state of its own
}

// txWaiter delivers the acknowledgment (or the flow's terminal error)
// for the packet with sequence number psn.
type txWaiter struct {
	psn uint32
	fn  func(error)
}

// retryTimer is the one recovery timer: every state machine that waits
// on a deadline (go-back-N flows, message-level recoveries, the health
// machine) embeds it, so "armed" has one encoding. The zero value is
// disarmed. armed gates deadline — an explicit flag, not a zero-value
// sentinel: virtual time starts at 0, so "deadline == 0" cannot
// distinguish disarmed from armed-at-time-zero.
type retryTimer struct {
	armed    bool
	deadline time.Duration
	rto      time.Duration
	retries  int
}

// arm schedules the next expiry d from now.
func (t *retryTimer) arm(now, d time.Duration) {
	t.armed = true
	t.deadline = now + d
}

// due reports whether the timer is armed and has expired by now.
func (t *retryTimer) due(now time.Duration) bool { return t.armed && t.deadline <= now }

// progress starts the backoff schedule afresh — full retry budget, base
// rto — when a machine is first armed and on every sign of forward
// progress; the timer stays armed only while work is outstanding.
func (t *retryTimer) progress(now, base time.Duration, outstanding bool) {
	t.retries = 0
	t.rto = base
	t.armed = outstanding
	t.deadline = now + base
}

// wait pushes the deadline one rto out from now. It does not arm: a
// timer disarmed while its own firing was on the wire (the ACK came
// back mid-retransmit) stays disarmed.
func (t *retryTimer) wait(now time.Duration) { t.deadline = now + t.rto }

// backoff doubles the timeout up to max and waits it out.
func (t *retryTimer) backoff(now, max time.Duration) {
	t.rto = min(2*t.rto, max)
	t.wait(now)
}

// recovery is one retry-budgeted state machine as the expiry policy
// (Endpoint.expire) sees it: the timer, the peer it talks to, the name
// a RetryBudgetError gives it, and the two hooks where the kinds
// genuinely differ. A flow binds its hooks once, when it is created; a
// message timer's are Endpoint methods, so arming one binds nothing.
type recovery struct {
	retryTimer
	peer int
	addr Addr
	what string
	// fire retransmits after a charged expiry or — switched — right after
	// the health machine moved the peer onto a live rail.
	fire func(ep *Endpoint, p *sim.Proc, r *recovery, switched bool) error
	// fail abandons the machine with its terminal error.
	fail func(ep *Endpoint, r *recovery, err error)

	// The rest is a message timer's own (zero for a flow). held is the
	// request the timer holds while it is armed; key files the timer in
	// Endpoint.msgTimers. The Slot counts the holders of the recovery
	// record itself: msgTimers while the timer is armed, and an expiry
	// while it runs (see expire). The last one returns it to
	// Endpoint.timerRecs.
	held      *Request `snap:"-"`
	key       mtKey    `snap:"-"`
	pool.Slot `snap:"-"`
}

// peer is everything the endpoint keeps about one remote rank. The
// sub-states stay nil until first used: tx/rx only on a lossy fabric,
// cong only after a CNP on a congested one.
type peer struct {
	addr    Addr
	hasAddr bool // addr holds the address book's answer
	tx      *txFlow
	rx      *rxFlow
	cong    *congCtl
	// ackOwed/cnpOwed: the next Progress drain owes this peer a
	// cumulative ACK / a CNP (its rank is on Endpoint.ackOwed/cnpOwed).
	ackOwed, cnpOwed bool
}

// peerOf returns (creating on first use) the record of a remote rank.
func (ep *Endpoint) peerOf(rank int) *peer {
	pe, ok := ep.peers[rank]
	if !ok {
		pe = &peer{}
		ep.peers[rank] = pe
	}
	return pe
}

// txFlow is the go-back-N sender state toward one peer.
type txFlow struct {
	recovery
	nextPSN uint32
	// unacked and waiters are compacted in place as ACKs retire their
	// heads, so a warm flow reuses their arrays. A go-back-N round's
	// resend set is fixed at its start, though: rounds counts the rounds
	// iterating unacked (each sleeps on the wire per packet), and an ACK
	// landing meanwhile moves the survivors to a new array instead and
	// parks the retired packets' chunks in detached, held until the last
	// round ends (see chunk).
	unacked  []txPkt
	waiters  []txWaiter
	rounds   int      `snap:"-"` // a process's stack state, not the flow's
	detached []*chunk `snap:"-"`
	failed   error
	// lastGBN rate-limits NAK-triggered resends: a burst of NAKs from
	// one loss event triggers one go-back-N round. gbnRan gates it for
	// the same reason armed gates deadline: a round fired at virtual
	// time 0 leaves lastGBN == 0, which must not read as "never fired".
	gbnRan  bool
	lastGBN time.Duration
}

// rxFlow is the receiver-side cumulative sequence state from one peer.
type rxFlow struct {
	expected   uint32 // next in-order PSN
	nakSentFor uint32 // last PSN a NAK was sent for (one NAK per gap)
}

// mtKind distinguishes message-level recovery timers.
type mtKind uint8

const (
	mtEagerFin mtKind = iota
	mtRdvWindow
)

// mtWhat names each kind in a RetryBudgetError.
var mtWhat = [...]string{mtEagerFin: "eager-fin", mtRdvWindow: "rdv-window"}

type mtKey struct {
	msgid uint64
	win   uint64
	kind  mtKind
}

// ivSet is a set of disjoint byte intervals [lo, hi), tracking coverage
// of a buffer when packets may duplicate or arrive out of order.
type ivSet struct{ ivs []iv }

type iv struct{ lo, hi uint64 }

// add inserts [lo, hi) and returns the number of newly covered bytes.
// The set stays sorted by lo and reuses its array.
func (s *ivSet) add(lo, hi uint64) uint64 {
	if hi <= lo {
		return 0
	}
	added := hi - lo
	nlo, nhi := lo, hi
	keep := s.ivs[:0]
	for _, v := range s.ivs {
		if v.hi < lo || v.lo > hi {
			keep = append(keep, v)
			continue
		}
		// Overlapping or adjacent: absorb into the merged interval and
		// discount the overlap from the newly covered count.
		if olo, ohi := max(v.lo, lo), min(v.hi, hi); ohi > olo {
			added -= ohi - olo
		}
		nlo, nhi = min(nlo, v.lo), max(nhi, v.hi)
	}
	// keep is still sorted: slide the merged interval down into place.
	keep = append(keep, iv{lo: nlo, hi: nhi})
	for i := len(keep) - 1; i > 0 && keep[i-1].lo > keep[i].lo; i-- {
		keep[i-1], keep[i] = keep[i], keep[i-1]
	}
	s.ivs = keep
	return added
}

// newTxFlow builds the send flow toward peer with its hooks.
func newTxFlow(peer int, a Addr) *txFlow {
	fl := &txFlow{}
	fl.recovery = recovery{peer: peer, addr: a, what: "flow",
		// A flow goes back N on every firing, a rail switch included.
		fire: func(ep *Endpoint, p *sim.Proc, _ *recovery, _ bool) error { return ep.goBackN(p, fl, true) },
		fail: func(_ *Endpoint, _ *recovery, err error) {
			fl.failed = err
			for _, w := range fl.waiters {
				w.fn(err)
			}
			fl.waiters = nil
			fl.letGo(fl.unacked)
			fl.unacked = nil
		},
	}
	return fl
}

// sendFlowPkt transmits one PSM protocol packet toward peer. On a
// loss-free fabric it is a plain PIO send and onAcked (if any) fires
// immediately; on a lossy fabric the packet is sequenced, retained for
// go-back-N retransmission, and onAcked fires when the cumulative ACK
// covers it — or with the flow's terminal error. c, when non-nil, is
// the unheld chunk payload lies in (readPayload): the flow's listing and
// the packet copy take their holds on it, and if the flow has already
// failed it goes straight back to the free list.
func (ep *Endpoint) sendFlowPkt(p *sim.Proc, peer int, a Addr, hdr fabric.Header,
	payload []byte, c *chunk, bytes uint64, onAcked func(error)) error {

	if !ep.reliable {
		if err := ep.pioCopy(p, a, hdr, payload, c, bytes); err != nil {
			return err
		}
		if onAcked != nil {
			onAcked(nil)
		}
		return nil
	}
	pe := ep.peerOf(peer)
	if pe.tx == nil {
		pe.tx = newTxFlow(peer, a)
	}
	fl := pe.tx
	if fl.failed != nil {
		if c != nil {
			ep.chunks.Put(c)
		}
		return fl.failed
	}
	fl.nextPSN++
	hdr.PSN = fl.nextPSN
	fl.retain(txPkt{psn: hdr.PSN, hdr: hdr, payload: payload, bytes: bytes, chunk: c})
	if onAcked != nil {
		fl.waiters = append(fl.waiters, txWaiter{psn: hdr.PSN, fn: onAcked})
	}
	if !fl.armed {
		fl.progress(ep.eng.Now(), ep.nic.Params().PSMRtoBase, true)
		ep.rtCond.Broadcast()
	}
	return ep.pioCopy(p, a, hdr, payload, c, bytes)
}

// pioCopy puts one copy of a flow packet on the wire; a retained chunk
// holds it until the fabric releases the copy. Packets without one
// (control packets, CTS lists) carry no owner.
func (ep *Endpoint) pioCopy(p *sim.Proc, a Addr, hdr fabric.Header, payload []byte, c *chunk, bytes uint64) error {
	var owner fabric.PayloadOwner
	if c != nil {
		c.HoldPayload()
		owner = c
	}
	return ep.nic.PIOSend(p, a.Node, a.Ctx, hdr, payload, bytes, owner)
}

// sendCtl emits an unsequenced control packet (ACK/NAK) to peer.
func (ep *Endpoint) sendCtl(p *sim.Proc, peer int, op uint32, aux uint64) error {
	a, err := ep.addrOf(peer)
	if err != nil {
		return err
	}
	// Control packets are unsequenced: no retransmit timer protects
	// them, so one aimed into a dark link silently starves the peer's
	// flow. The NIC can see its own link LEDs, so reroute through the
	// health machine before spending the packet. The sequenced data
	// path never does this — its detection signal is the go-back-N
	// timeout, which is what the blackout window measures.
	if ep.pathDown(a.Node) {
		ep.health.linkStrike(a.Node)
	}
	hdr := ep.header(op, 0, 0, 0, 0, aux)
	return ep.nic.PIOSend(p, a.Node, a.Ctx, hdr, nil, ackWireBytes, nil)
}

// ackUpTo pops acknowledged packets, lets go of their listing holds
// (txFlow.retire), fires their waiters and re-arms (or disarms) the
// flow's retransmit timer.
func (ep *Endpoint) ackUpTo(fl *txFlow, cum uint32) {
	if fl.rounds > 0 && len(fl.unacked) > 0 && fl.unacked[0].psn <= cum {
		ep.midRoundAcks++
	}
	if fl.retire(cum) == 0 {
		return
	}
	w := 0
	for w < len(fl.waiters) && fl.waiters[w].psn <= cum {
		fl.waiters[w].fn(nil)
		w++
	}
	fl.waiters = compact(fl.waiters, w)
	fl.progress(ep.eng.Now(), ep.nic.Params().PSMRtoBase, len(fl.unacked) > 0)
}

// compact drops the first n elements of s in place and zeroes the
// vacated tail, so the array keeps no retired payload or callback alive.
func compact[T any](s []T, n int) []T {
	k := copy(s, s[n:])
	clear(s[k:])
	return s[:k]
}

// onAck retires the packets a cumulative ACK covers. A NAK names the
// next expected PSN instead: everything before it is acknowledged and
// everything outstanding goes back N.
func (ep *Endpoint) onAck(p *sim.Proc, peer int, psn uint32, nak bool) error {
	pe, ok := ep.peers[peer]
	if !ok || pe.tx == nil {
		return nil
	}
	if !nak {
		ep.ackUpTo(pe.tx, psn)
		return nil
	}
	if psn > 0 {
		ep.ackUpTo(pe.tx, psn-1)
	}
	return ep.goBackN(p, pe.tx, false)
}

// gbnSuppressed reports whether a NAK-triggered go-back-N round should
// be suppressed by the rate limiter: a round already ran (gbnRan, an
// explicit flag — lastGBN alone cannot encode "never fired" because a
// legitimate round at virtual time 0 stamps lastGBN = 0) and it was
// recent. Extracted so the time-zero behavior is unit-testable.
func gbnSuppressed(gbnRan bool, lastGBN, now, rto time.Duration) bool {
	return gbnRan && now-lastGBN < rto/2
}

// goBackN resends every unacknowledged packet on the flow. NAK-driven
// rounds (force == false) are rate-limited so a burst of NAKs from one
// loss event triggers a single round; timer-driven rounds force.
func (ep *Endpoint) goBackN(p *sim.Proc, fl *txFlow, force bool) error {
	if len(fl.unacked) == 0 || fl.failed != nil {
		return nil
	}
	now := ep.eng.Now()
	if !force && gbnSuppressed(fl.gbnRan, fl.lastGBN, now, fl.rto) {
		return nil
	}
	fl.gbnRan = true
	fl.lastGBN = now
	fl.rounds++
	defer fl.endRound()
	var resent uint64
	for _, tp := range fl.unacked {
		ep.Stats.Retransmits++
		if tp.payload != nil {
			resent += uint64(len(tp.payload))
		} else {
			resent += tp.bytes
		}
		if err := ep.pioCopy(p, fl.addr, tp.hdr, tp.payload, tp.chunk, tp.bytes); err != nil {
			return err
		}
	}
	ep.span("retransmit", now, resent)
	fl.wait(ep.eng.Now())
	return nil
}

// armMsgTimer starts a message-level recovery toward peer. The timer
// holds held's record while it is armed, and again while a replay runs:
// a replay sleeps on the wire, and the timer can be cancelled meanwhile.
func (ep *Endpoint) armMsgTimer(key mtKey, peer int, a Addr, held *Request) {
	mt := ep.timerRecs.Get()
	mt.peer, mt.addr, mt.what = peer, a, mtWhat[key.kind]
	mt.fire, mt.fail = (*Endpoint).replayMsg, (*Endpoint).endMsgTimer
	mt.held, mt.key = held, key
	ep.timerRecs.Hold(mt)
	ep.hold(held)
	mt.progress(ep.eng.Now(), ep.nic.Params().PSMRtoBase, true)
	ep.msgTimers[key] = mt
	ep.rtCond.Broadcast()
}

// replayMsg is a message timer's fire hook: the eager-fin timer replays
// its send as sequenced PIO chunks, the rdv-window timer re-sends its
// window's CTS (the window is registered for as long as its timer is
// armed). Unlike a flow, a message timer does not replay on a rail
// switch: it fires normally on its next expiry.
func (ep *Endpoint) replayMsg(p *sim.Proc, mt *recovery, switched bool) error {
	if switched {
		return nil
	}
	ep.Stats.MsgResends++
	held := mt.held
	ep.hold(held)
	defer ep.drop(held)
	var err error
	switch mt.key.kind {
	case mtEagerFin:
		err = ep.resendEagerPIO(p, held.send)
	case mtRdvWindow:
		rdv := ep.rdvRecvs[mt.key.msgid]
		w := rdv.windows[mt.key.win]
		hdr := ep.header(OpCTS, rdv.rr.tag, rdv.msgid, w.len, 0, w.off)
		err = ep.sendFlowPkt(p, mt.peer, mt.addr, hdr, w.ctsPayload, nil, 0, nil)
	}
	if err != nil {
		// A recovery action against an already-dead flow fails the
		// request, not the simulation.
		var rbe *RetryBudgetError
		if errors.As(err, &rbe) {
			ep.endMsgTimer(mt, err)
			return nil
		}
	}
	return err
}

// endMsgTimer disarms a message timer, if still armed, and drops the
// holds its arming took. With a non-nil err (it is the fail hook) the
// request it recovers first fails with err; a timer cancelled while its
// replay ran only fails the request.
func (ep *Endpoint) endMsgTimer(mt *recovery, err error) {
	held := mt.held
	armed := ep.msgTimers[mt.key] == mt
	if armed {
		delete(ep.msgTimers, mt.key)
	}
	if err != nil {
		held.complete(err)
		if mt.key.kind == mtEagerFin {
			ep.untrackSend(held.send)
		}
	}
	if armed {
		ep.timerRecs.Release(mt)
		ep.drop(held)
	}
}

// touchMsgTimer records forward progress: the backoff schedule restarts.
func (ep *Endpoint) touchMsgTimer(key mtKey) {
	if mt, ok := ep.msgTimers[key]; ok {
		mt.progress(ep.eng.Now(), ep.nic.Params().PSMRtoBase, true)
	}
}

// cancelMsgTimer disarms a message timer, if armed, and drops its holds.
func (ep *Endpoint) cancelMsgTimer(key mtKey) {
	if mt, ok := ep.msgTimers[key]; ok {
		ep.endMsgTimer(mt, nil)
	}
}

// nextDeadline returns the earliest armed deadline across flows,
// message timers and the health machine. A deadline of 0 (virtual time
// starts at 0) is considered like any other: retryTimer.armed, never the
// deadline value, says whether a timer is set.
func (ep *Endpoint) nextDeadline() (time.Duration, bool) {
	var next time.Duration
	any := false
	consider := func(t *retryTimer) {
		if t.armed && (!any || t.deadline < next) {
			next = t.deadline
			any = true
		}
	}
	for _, pe := range ep.peers {
		if pe.tx != nil {
			consider(&pe.tx.retryTimer)
		}
	}
	for _, mt := range ep.msgTimers {
		consider(&mt.retryTimer)
	}
	if ep.health != nil {
		consider(&ep.health.retryTimer)
	}
	return next, any
}

// runRetransmit is the endpoint's retransmission driver: one daemon
// that parks until the earliest armed deadline and fires expired timers
// (go-back-N with exponential backoff for flows, replay/re-CTS for
// message timers). It blocks on rtCond while nothing is armed, so an
// idle simulation drains.
func (ep *Endpoint) runRetransmit(p *sim.Proc) {
	for {
		if ep.closed {
			return
		}
		if err := ep.fireTimers(p); err != nil {
			ep.eng.Fail(fmt.Errorf("psm: rank %d retransmit: %w", ep.Rank, err))
			return
		}
		ep.notify.Broadcast()
		if ep.closed {
			return
		}
		if next, any := ep.nextDeadline(); any {
			now := p.Now()
			if next <= now {
				continue
			}
			// Alarm: wake this daemon exactly at the deadline. Stale
			// alarms (for timers since retired) wake it spuriously and
			// it just re-parks.
			ep.eng.AfterArg(next-now, broadcast, ep.rtCond)
		}
		ep.rtCond.Wait(p)
	}
}

// broadcast is the retransmit alarm's event: it wakes the *sim.Cond it
// is given.
func broadcast(a any) { a.(*sim.Cond).Broadcast() }

// fireTimers fires every expired timer in deterministic order: flows by
// peer rank, then message timers by key, then the health machine. An
// earlier firing sleeps on the wire, so each timer is re-checked when
// its turn comes.
func (ep *Endpoint) fireTimers(p *sim.Proc) error {
	now := p.Now()

	// The due lists are endpoint scratch: this daemon is their only user.
	ranks := ep.dueRanks[:0]
	for rank, pe := range ep.peers {
		if pe.tx != nil && pe.tx.due(now) {
			ranks = append(ranks, rank)
		}
	}
	slices.Sort(ranks)
	ep.dueRanks = ranks
	for _, rank := range ranks {
		fl := ep.peers[rank].tx
		if !fl.due(now) {
			continue
		}
		if len(fl.unacked) == 0 {
			fl.armed = false
			continue
		}
		if err := ep.expire(p, now, &fl.recovery); err != nil {
			return err
		}
	}

	keys := ep.dueKeys[:0]
	for k, mt := range ep.msgTimers {
		if mt.due(now) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b mtKey) int {
		return cmp.Or(cmp.Compare(a.msgid, b.msgid), cmp.Compare(a.win, b.win), cmp.Compare(a.kind, b.kind))
	})
	ep.dueKeys = keys
	for _, k := range keys {
		if mt, ok := ep.msgTimers[k]; ok && mt.due(now) {
			if err := ep.expire(p, now, mt); err != nil {
				return err
			}
		}
	}

	ep.health.fire(now)
	return nil
}

// expire is the one expiry policy, run on a timer that came due at now.
// A down path freezes the retry budget; otherwise the expiry is charged
// against it, and the machine either dies with a RetryBudgetError or
// fires and backs off (rto doubling from PSMRtoBase to the PSMRtoMax
// cap: 100 µs … 2 ms, 15.1 ms over the default 11 expiries).
func (ep *Endpoint) expire(p *sim.Proc, now time.Duration, r *recovery) error {
	if r.held != nil {
		// A message timer's record outlives its expiry: a replay sleeps
		// on the wire, the timer can be cancelled meanwhile, and r is
		// still written after fire returns.
		ep.timerRecs.Hold(r)
		defer ep.timerRecs.Release(r)
	}
	pr := ep.nic.Params()
	if ep.pathDown(r.addr.Node) {
		// The link this machine transmits on is down: resending into it
		// is guaranteed loss, so don't burn the retry budget. Give the
		// health machine a chance to switch rails; if it can't (single
		// rail, or spare also down), freeze the budget and re-check
		// after rto.
		if ep.health.linkStrike(r.addr.Node) {
			if err := r.fire(ep, p, r, true); err != nil {
				return err
			}
		} else {
			ep.Stats.Freezes++
		}
		r.wait(p.Now())
		return nil
	}
	r.retries++
	ep.Stats.Timeouts++
	if r.retries > pr.PSMMaxRetries {
		r.armed = false
		r.fail(ep, r, &RetryBudgetError{Rank: ep.Rank, Peer: r.peer, Retries: r.retries - 1, What: r.what})
		return nil
	}
	// The backoff span covers the silent wait that just ended.
	ep.span("backoff", now-r.rto, 0)
	if err := r.fire(ep, p, r, false); err != nil {
		return err
	}
	r.backoff(p.Now(), pr.PSMRtoMax)
	return nil
}

// pathDown reports whether the rail currently selected toward peerNode
// is inside a link-down window, in either direction (an outage of the
// reverse path starves ACKs just the same).
func (ep *Endpoint) pathDown(peerNode int) bool {
	if ep.health == nil {
		return false
	}
	return ep.nic.RailDown(ep.nic.TxRail(peerNode), peerNode)
}

// maybeCompleteSend finishes a send request once every completion
// condition holds: all windows CTS'd and retired, and — on a lossy
// fabric — the receiver's FIN received for SDMA-borne transfers.
func (ep *Endpoint) maybeCompleteSend(sr *sendReq) {
	if sr.req.Done {
		return
	}
	if sr.remaining != 0 || sr.windows != 0 {
		return
	}
	if sr.needFin && !sr.finDone {
		return
	}
	sr.req.complete(nil)
	ep.span(sr.op, sr.req.begin, sr.length)
	ep.untrackSend(sr)
}

// resendEagerPIO replays a whole eager-SDMA message as sequenced PIO
// chunks: the SDMA original may have lost packets on the wire, and the
// flow-level go-back-N then guarantees the replay end to end.
func (ep *Endpoint) resendEagerPIO(p *sim.Proc, sr *sendReq) error {
	return ep.eagerChunks(sr.length, func(off, n uint64) error {
		payload, c, err := ep.readPayload(sr.buf+uproc.VirtAddr(off), n)
		if err != nil {
			return err
		}
		hdr := ep.header(hfi.OpEager, sr.tag, sr.msgid, sr.length, off, 0)
		if err := ep.sendFlowPkt(p, sr.peer, sr.dst, hdr, payload, c, n, nil); err != nil {
			return err
		}
		ep.congPace(p, sr.peer, n)
		return nil
	})
}

// rememberCompleted records a finished eager message so stale duplicate
// chunks (late SDMA packets racing the FIN) are discarded.
//
// completedFIFO is a window sliding along completedBuf, an array of
// twice completedCap: evicting advances the window, and when it reaches
// the array's end its completedCap entries move back to the front. The
// FIFO reads oldest first, as it always has, and needs no new array.
func (ep *Endpoint) rememberCompleted(key uint64) {
	if ep.completedMsgs[key] {
		return
	}
	ep.completedMsgs[key] = true
	if len(ep.completedFIFO) == cap(ep.completedFIFO) {
		if ep.completedBuf == nil {
			ep.completedBuf = make([]uint64, 2*completedCap)
		}
		ep.completedFIFO = ep.completedBuf[:copy(ep.completedBuf, ep.completedFIFO)]
	}
	ep.completedFIFO = append(ep.completedFIFO, key)
	if len(ep.completedFIFO) > completedCap {
		old := ep.completedFIFO[0]
		ep.completedFIFO = ep.completedFIFO[1:]
		delete(ep.completedMsgs, old)
	}
}

// FlowsIdle reports whether the endpoint has no unacknowledged
// sequenced packets and no armed message timers.
func (ep *Endpoint) FlowsIdle() bool {
	for _, pe := range ep.peers {
		if pe.tx != nil && len(pe.tx.unacked) > 0 {
			return false
		}
	}
	return len(ep.msgTimers) == 0
}

// Quiesce drives progress until this endpoint's flows are idle. Every
// peer must keep progressing concurrently (acknowledgments only flow
// while the peer polls), so this is a cooperative drain, not a barrier.
func (ep *Endpoint) Quiesce(p *sim.Proc) error {
	if !ep.reliable {
		return nil
	}
	return ep.WaitFor(p, func() bool { return ep.FlowsIdle() })
}
