package psm

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestGoBackNRoundKeepsItsResendSet: a go-back-N round sleeps in PIOSend
// once per packet, and an ACK can land meanwhile. The flow compacts its
// unacked queue in place, but never under a running round: the round
// must resend exactly the PSNs that were unacked when it started, each
// with its original bytes, and the transfer must still complete.
//
// The pair is one endpoint (node 0) sending a four-chunk message to a
// scripted receiver (node 1): the link loses the first copies of chunks
// 3 and 4, a forced round resends all four, and the receiver's
// cumulative ACK for chunks 1 and 2 lands as the round's resend of
// chunk 1 arrives, while the round is still on the wire.
func TestGoBackNRoundKeepsItsResendSet(t *testing.T) {
	const chunk, chunks = 1 << 10, 4
	ep, fab := bareEndpoint(t)
	eng := ep.eng

	msg := make([]byte, chunk*chunks)
	for i := range msg {
		msg[i] = byte(i*7 + i>>10)
	}
	var (
		got      = make([]byte, len(msg))
		seen     = map[uint32]int{} // copies of each PSN that arrived
		expected = uint32(1)        // the receiver's next in-order PSN
		resent   []uint32           // PSNs of the round's packets, in order
		roundsAt int                // fl.rounds when the mid-round ACK landed
		acked    int                // the last chunk's waiter firings
		fl       *txFlow
	)
	if _, err := fab.Attach(1, func(pkt *fabric.Packet) {
		psn := pkt.Hdr.PSN
		seen[psn]++
		if seen[psn] > 1 {
			resent = append(resent, psn)
		}
		if seen[psn] == 1 && psn > 2 {
			return // lost on the wire
		}
		if psn == expected {
			copy(got[pkt.Hdr.Offset:], pkt.Payload)
			expected++
		}
		if psn == 1 && seen[psn] == 2 {
			roundsAt = fl.rounds
			ep.ackUpTo(fl, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}

	eng.Go("tx", func(p *sim.Proc) {
		for i := 0; i < chunks; i++ {
			off := uint64(i * chunk)
			// Each chunk is its own retained array, as readPayload's are.
			payload := slices.Clone(msg[off : off+chunk])
			var onAcked func(error)
			if i == chunks-1 {
				onAcked = func(err error) {
					if err != nil {
						t.Errorf("last chunk failed: %v", err)
					}
					acked++
				}
			}
			hdr := ep.header(hfi.OpEager, 5, 1, uint64(len(msg)), off, 0)
			if err := ep.sendFlowPkt(p, 1, Addr{Node: 1}, hdr, payload, nil, chunk, onAcked); err != nil {
				t.Error(err)
				return
			}
		}
		fl = ep.peers[1].tx
		if err := ep.goBackN(p, fl, true); err != nil {
			t.Error(err)
			return
		}
		if fl.rounds != 0 {
			t.Errorf("%d rounds still counted after the round returned", fl.rounds)
		}
		if psns := unackedPSNs(fl); !slices.Equal(psns, []uint32{3, 4}) {
			t.Errorf("unacked after the round = %v, want [3 4]", psns)
		}
		// The receiver's ACK for the rest; the queue now compacts in place.
		ep.ackUpTo(fl, chunks)
		if len(fl.unacked) != 0 || len(fl.waiters) != 0 || fl.armed {
			t.Errorf("fully acknowledged flow: %d unacked, %d waiters, armed %v",
				len(fl.unacked), len(fl.waiters), fl.armed)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}

	if roundsAt != 1 {
		t.Fatalf("the ACK landed with %d rounds running, want 1: the test no longer exercises a mid-round ACK", roundsAt)
	}
	if !slices.Equal(resent, []uint32{1, 2, 3, 4}) {
		t.Errorf("round resent PSNs %v, want [1 2 3 4] (the unacked set at its start)", resent)
	}
	if expected != chunks+1 || !bytes.Equal(got, msg) {
		t.Errorf("transfer incomplete or corrupt: next expected PSN %d, bytes equal %v", expected, bytes.Equal(got, msg))
	}
	if acked != 1 {
		t.Errorf("last chunk's waiter fired %d times, want 1", acked)
	}
	if ep.Stats.Retransmits != chunks {
		t.Errorf("Retransmits = %d, want %d", ep.Stats.Retransmits, chunks)
	}
}

// TestCancelledTimerOutlivesItsReplay: a message timer cancelled while
// its own replay sleeps on the wire keeps its record until the expiry
// that runs the replay has made its last write (the backoff after the
// replay returns). A timer armed meanwhile gets another record, and the
// expiry's backoff does not touch it; the old record is recycled after.
func TestCancelledTimerOutlivesItsReplay(t *testing.T) {
	ep, fab := bareEndpoint(t)
	eng, pr := ep.eng, ep.nic.Params()
	if _, err := fab.Attach(1, fab.Release); err != nil {
		t.Fatal(err)
	}
	rr := &recvReq{}
	rr.req = Request{kind: reqRecv, holds: 1, recv: rr} // the caller's hold
	rdv := &rdvRecv{rr: rr, msgid: 9, windows: map[uint64]*rdvWindow{}}
	ep.rdvRecvs[rdv.msgid] = rdv
	for _, off := range []uint64{0, 4096} {
		rdv.windows[off] = &rdvWindow{off: off, len: 4096, ctsPayload: make([]byte, 16)}
	}
	a := Addr{Node: 1}
	oldKey := mtKey{msgid: 9, win: 0, kind: mtRdvWindow}
	newKey := mtKey{msgid: 9, win: 4096, kind: mtRdvWindow}
	ep.armMsgTimer(oldKey, 1, a, &rr.req)
	old := ep.msgTimers[oldKey]

	var armedAt time.Duration
	eng.Go("rt", func(p *sim.Proc) {
		if err := ep.expire(p, p.Now(), old); err != nil {
			t.Error(err)
		}
	})
	eng.Go("rank", func(p *sim.Proc) {
		p.Sleep(1) // the replay is asleep in PIOSend now
		ep.cancelMsgTimer(oldKey)
		armedAt = p.Now()
		ep.armMsgTimer(newKey, 1, a, &rr.req)
		if ep.msgTimers[newKey] == old {
			t.Error("a timer armed during a cancelled timer's replay reused its record")
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if ep.Stats.MsgResends != 1 {
		t.Fatalf("MsgResends = %d, want 1: the expiry did not replay", ep.Stats.MsgResends)
	}
	mt := ep.msgTimers[newKey]
	if mt.rto != pr.PSMRtoBase || mt.deadline != armedAt+pr.PSMRtoBase || mt.retries != 0 {
		t.Errorf("timer armed mid-replay = %+v, want a fresh schedule from %v", mt.retryTimer, armedAt)
	}
	if len(ep.freeTimers) != 1 || ep.freeTimers[0] != old || old.held != nil || old.fire != nil || old.armed {
		t.Errorf("cancelled timer's record not cleared and recycled after its expiry: %d free", len(ep.freeTimers))
	}
	if rr.req.holds != 2 { // the caller's and the new timer's
		t.Errorf("request holds = %d, want 2", rr.req.holds)
	}
}

// bareEndpoint is a reliable endpoint on node 0 of a new engine and
// fabric, holding only the state the recovery layer reads; node 1 is the
// caller's to attach. The engine closes when the test ends.
func bareEndpoint(t *testing.T) (*Endpoint, *fabric.Fabric) {
	t.Helper()
	eng := sim.NewEngine(1)
	t.Cleanup(eng.Close)
	pr := model.Default()
	phys, err := mem.NewPhysMem()
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(eng, &pr)
	nic, err := hfi.NewNIC(eng, &pr, 0, phys, fab)
	if err != nil {
		t.Fatal(err)
	}
	return &Endpoint{eng: eng, nic: nic, reliable: true, rtCond: sim.NewCond(eng),
		peers: map[int]*peer{}, msgTimers: map[mtKey]*recovery{}, rdvRecvs: map[uint64]*rdvRecv{}}, fab
}

func unackedPSNs(fl *txFlow) []uint32 {
	var psns []uint32
	for _, tp := range fl.unacked {
		psns = append(psns, tp.psn)
	}
	return psns
}
