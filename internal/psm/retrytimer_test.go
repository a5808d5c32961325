package psm

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestRetryTimerSchedule pins the schedule the one timer type walks:
// PSMRtoBase doubling to the PSMRtoMax cap, 15.1 ms over the default
// budget's eleven expiries — the fixed sum six soak cells die at.
func TestRetryTimerSchedule(t *testing.T) {
	pr := model.Default()
	var tm retryTimer
	now := time.Duration(0)
	tm.progress(now, pr.PSMRtoBase, true)
	var waits []time.Duration
	for i := 0; i <= pr.PSMMaxRetries; i++ {
		if !tm.due(tm.deadline) || tm.due(tm.deadline-1) {
			t.Fatalf("expiry %d: due() disagrees with deadline %v", i, tm.deadline)
		}
		waits = append(waits, tm.deadline-now)
		now = tm.deadline
		tm.backoff(now, pr.PSMRtoMax)
	}
	us := time.Microsecond
	want := []time.Duration{100 * us, 200 * us, 400 * us, 800 * us, 1600 * us,
		2000 * us, 2000 * us, 2000 * us, 2000 * us, 2000 * us, 2000 * us}
	if len(waits) != len(want) {
		t.Fatalf("%d expiries, want %d", len(waits), len(want))
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("wait %d = %v, want %v", i, waits[i], want[i])
		}
	}
	if now != 15100*us {
		t.Errorf("schedule sum = %v, want 15.1ms", now)
	}
	// A timer disarmed while its own firing was on the wire (the ACK
	// came back mid-retransmit) must not be re-armed by the backoff that
	// follows the firing: it would cost a spurious wake-up later.
	tm.armed = false
	tm.backoff(now, pr.PSMRtoMax)
	if tm.armed {
		t.Error("backoff re-armed a disarmed timer")
	}
}

// TestForwardProgressRestartsSchedule: both progress signals — a
// cumulative ACK on a flow (ackUpTo) and new window coverage on a
// message timer (touchMsgTimer) — hand back the full retry budget and
// the base rto; a flow with nothing left outstanding disarms.
func TestForwardProgressRestartsSchedule(t *testing.T) {
	ep, _ := bareEndpoint(t)
	eng, pr := ep.eng, ep.nic.Params()
	worn := retryTimer{armed: true, deadline: 7 * time.Millisecond, rto: pr.PSMRtoMax, retries: pr.PSMMaxRetries}
	fresh := retryTimer{armed: true, deadline: eng.Now() + pr.PSMRtoBase, rto: pr.PSMRtoBase}

	fl := newTxFlow(1, Addr{Node: 1})
	fl.unacked = []txPkt{{psn: 1}, {psn: 2}}
	fl.retryTimer = worn
	ep.ackUpTo(fl, 0) // acknowledges nothing: no progress, nothing changes
	if fl.retryTimer != worn {
		t.Errorf("empty ACK moved the timer: %+v", fl.retryTimer)
	}
	ep.ackUpTo(fl, 1)
	if fl.retryTimer != fresh {
		t.Errorf("flow after a partial ACK = %+v, want %+v", fl.retryTimer, fresh)
	}
	ep.ackUpTo(fl, 2)
	if fl.armed || len(fl.unacked) != 0 {
		t.Errorf("fully acknowledged flow still armed: %+v", fl.retryTimer)
	}

	key := mtKey{msgid: 9, kind: mtRdvWindow}
	held := &Request{holds: 1} // the caller's
	ep.armMsgTimer(key, 1, Addr{Node: 1}, held)
	if held.holds != 2 {
		t.Errorf("armed timer: %d holds on its request, want 2", held.holds)
	}
	mt := ep.msgTimers[key]
	if mt.retryTimer != fresh || mt.what != "rdv-window" {
		t.Errorf("newly armed message timer = %+v (%s), want %+v", mt.retryTimer, mt.what, fresh)
	}
	mt.retryTimer = worn
	ep.touchMsgTimer(key)
	if mt.retryTimer != fresh {
		t.Errorf("message timer after touch = %+v, want %+v", mt.retryTimer, fresh)
	}
	ep.cancelMsgTimer(key)
	ep.touchMsgTimer(key) // a cancelled timer is not resurrected
	if len(ep.msgTimers) != 0 {
		t.Error("touch resurrected a cancelled message timer")
	}
	ep.cancelMsgTimer(key) // cancelling twice drops one hold only
	if held.holds != 1 {
		t.Errorf("cancelled timer: %d holds on its request, want 1", held.holds)
	}
}
