package psm

import (
	"testing"
	"time"
)

// These white-box tests pin the time-zero semantics of the reliability
// timers. The engine's virtual clock starts at 0, so any state that
// encodes "never happened" as a zero time.Duration collides with events
// that legitimately fire at time zero. The deadline field had this bug
// historically (deadline == 0 meant disarmed, so a timer armed at t=0
// never fired); lastGBN had the mirror-image bug (a go-back-N round
// fired at t=0 read as "never fired", so a NAK arriving inside rto/2
// triggered a redundant full-window retransmit storm). Both are now
// gated on explicit armed/ran flags.

func TestGBNSuppressionAtTimeZero(t *testing.T) {
	rto := 100 * time.Microsecond
	// A round that never ran is never suppressed, even though
	// lastGBN == 0 and now == 0 make now-lastGBN < rto/2.
	if gbnSuppressed(false, 0, 0, rto) {
		t.Error("suppressed a go-back-N round that never ran")
	}
	// A round that DID run at virtual time 0 suppresses NAK-triggered
	// rounds inside rto/2, exactly like one that ran at any later time.
	if !gbnSuppressed(true, 0, 20*time.Microsecond, rto) {
		t.Error("round fired at t=0 not suppressed inside rto/2 (zero-sentinel regression)")
	}
	// Outside the suppression half-window the round goes ahead.
	if gbnSuppressed(true, 0, rto/2, rto) {
		t.Error("suppressed beyond the rto/2 window")
	}
	if gbnSuppressed(true, time.Millisecond, time.Millisecond+rto/2, rto) {
		t.Error("suppressed beyond the rto/2 window at a later clock")
	}
}

func TestFlowArmedFlagAtTimeZero(t *testing.T) {
	// A timer armed at exactly t=0 with deadline == 0 must still count as
	// armed, be the next deadline and fire: the armed flag, not the
	// deadline value, is the disarm sentinel. retryTimer is the one
	// encoding every embedder shares — flow, message timer and health
	// machine alike.
	tm := retryTimer{armed: true, deadline: 0}
	if !tm.due(0) {
		t.Fatal("timer armed at t=0 with deadline 0 does not fire")
	}
	ep := &Endpoint{
		peers:     map[int]*peer{1: {tx: &txFlow{recovery: recovery{retryTimer: tm}}}},
		msgTimers: map[mtKey]*recovery{},
		health:    &healthMachine{},
	}
	if d, ok := ep.nextDeadline(); !ok || d != 0 {
		t.Fatalf("flow armed at t=0: nextDeadline = %v, %v", d, ok)
	}
	ep.peers[1].tx.armed = false
	ep.msgTimers[mtKey{msgid: 1}] = &recovery{retryTimer: tm}
	if d, ok := ep.nextDeadline(); !ok || d != 0 {
		t.Fatalf("message timer armed at t=0: nextDeadline = %v, %v", d, ok)
	}
	ep.msgTimers = nil
	ep.health.retryTimer = tm
	if d, ok := ep.nextDeadline(); !ok || d != 0 {
		t.Fatalf("health machine armed at t=0: nextDeadline = %v, %v", d, ok)
	}
	// And the zero value is disarmed regardless of its deadline.
	var zero retryTimer
	if zero.armed || zero.due(0) {
		t.Fatal("zero-value timer claims to be armed")
	}
	ep.health.retryTimer = zero
	if _, ok := ep.nextDeadline(); ok {
		t.Fatal("nextDeadline reports a deadline with every timer disarmed")
	}
}
