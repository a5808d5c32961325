package psm

import "time"

// This file implements the per-endpoint path-health state machine that
// drives live fast-path/slow-path switching and dual-rail failover:
//
//	healthy → degraded → failed-over → recovering → healthy
//
// Strikes come from the reliability layer's existing failure signals —
// SDMA error completions (sdmaStrike) and retransmit timeouts that hit
// a link-down window (linkStrike). Two causes are tracked separately:
//
//   - causeSDMA: the local SDMA engine is erroring. Failover routes
//     eager traffic over sequenced PIO (Endpoint.avoidSDMA) and marks
//     the endpoint's own /dev/hfi1 descriptor NoFastPath, so McKernel
//     offloads its writev/ioctl instead of running the PicoDriver.
//     Descriptors of other devices (the verbs HCA) keep their fast
//     path. In-flight go-back-N flows are untouched: PSN state is
//     transport-independent.
//   - causeLink: the rail currently selected toward a peer is inside a
//     link-down window. If a spare rail is up, transmit traffic for
//     that peer switches rails (NIC.SetRail); flows keep their PSN
//     state and simply retransmit onto the new rail.
//
// Recovery is probe-driven: after healthProbeAfter the machine re-tries
// the fast path (re-enables SDMA / falls back to the preferred rail)
// and watches a healthTrialWindow; a clean trial returns to healthy, a
// new strike fails over again. All deadlines ride the endpoint's
// retransmit daemon — no extra processes, fully deterministic.
//
// Every method is nil-receiver safe: endpoints on a loss-free fabric
// have no health machine and none of this state exists.

// HealthState is the endpoint's path-health state.
type HealthState uint8

const (
	// HealthHealthy: fast path in use, no recent strikes.
	HealthHealthy HealthState = iota
	// HealthDegraded: strikes seen, still on the fast path.
	HealthDegraded
	// HealthFailedOver: traffic rerouted (slow path and/or spare rail).
	HealthFailedOver
	// HealthRecovering: fast path re-enabled on trial.
	HealthRecovering
)

func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthFailedOver:
		return "failed-over"
	case HealthRecovering:
		return "recovering"
	}
	return "unknown"
}

// failCause distinguishes what drove the failover, because the cure
// differs (slow path vs. rail switch) and so does the recovery probe.
type failCause uint8

const (
	causeNone failCause = iota
	causeSDMA
	causeLink
)

const (
	// healthStrikeLimit is the number of SDMA strikes that trips
	// degraded → failed-over.
	healthStrikeLimit = 2
	// healthProbeAfter is how long a failed-over endpoint waits before
	// probing the fast path.
	healthProbeAfter = 500 * time.Microsecond
	// healthTrialWindow is how long a recovering endpoint must stay
	// clean before it is healthy again.
	healthTrialWindow = 400 * time.Microsecond
)

// healthMachine is the state machine itself, owned by one endpoint.
type healthMachine struct {
	retryTimer // deadline of the next self-transition (no rto, no budget)
	ep         *Endpoint
	state      HealthState
	cause      failCause
	strikes    int
	peer       int // peer node of the last link failover
}

// avoidSDMA reports whether eager transfers should bypass the SDMA
// engine (failed over due to SDMA errors).
func (ep *Endpoint) avoidSDMA() bool {
	return ep.health != nil && ep.health.state == HealthFailedOver && ep.health.cause == causeSDMA
}

// arm schedules the machine's next self-transition and wakes the
// retransmit daemon, which services health deadlines.
func (h *healthMachine) arm(d time.Duration) {
	h.retryTimer.arm(h.ep.eng.Now(), d)
	h.ep.rtCond.Broadcast()
}

// sdmaStrike records one SDMA error completion.
func (h *healthMachine) sdmaStrike() {
	if h == nil {
		return
	}
	h.ep.Stats.SDMAStrikes++
	switch h.state {
	case HealthHealthy:
		h.state = HealthDegraded
		h.strikes = 1
		// Strikes decay: a clean trial window returns to healthy.
		h.arm(healthTrialWindow)
	case HealthDegraded:
		h.strikes++
		if h.strikes >= healthStrikeLimit {
			h.failOver(causeSDMA, h.peer)
		} else {
			h.arm(healthTrialWindow)
		}
	case HealthRecovering:
		// The trial failed: fail over again immediately.
		h.failOver(causeSDMA, h.peer)
	case HealthFailedOver:
		// Still failing (e.g. a rendezvous writev raced the failover);
		// push the probe out.
		h.arm(healthProbeAfter)
	}
}

// linkStrike records a retransmit timeout whose selected rail toward
// peerNode is down. It returns true when traffic was rerouted onto a
// spare rail (the caller should retransmit immediately); false means
// no spare is available and the caller should freeze the retry budget.
func (h *healthMachine) linkStrike(peerNode int) bool {
	if h == nil {
		return false
	}
	h.ep.Stats.LinkStrikes++
	nic := h.ep.nic
	if !nic.Dual() {
		return false
	}
	spare := 1 - nic.TxRail(peerNode)
	if nic.RailDown(spare, peerNode) {
		return false
	}
	nic.SetRail(peerNode, spare)
	h.ep.Stats.RailSwitches++
	h.failOver(causeLink, peerNode)
	return true
}

// failOver transitions to failed-over, applies the cure for the cause,
// and arms the recovery probe.
func (h *healthMachine) failOver(cause failCause, peerNode int) {
	if h.state != HealthFailedOver {
		h.ep.Stats.Failovers++
		h.ep.span("failover", h.ep.eng.Now(), 0)
	}
	h.state = HealthFailedOver
	h.cause = cause
	h.peer = peerNode
	h.strikes = 0
	if cause == causeSDMA {
		h.ep.fd.NoFastPath = true
	}
	h.arm(healthProbeAfter)
}

// fire services an expired health deadline (called from fireTimers).
func (h *healthMachine) fire(now time.Duration) {
	if h == nil || !h.due(now) {
		return
	}
	h.armed = false
	switch h.state {
	case HealthFailedOver:
		switch h.cause {
		case causeLink:
			// Probe: fall back to the preferred rail 0 once its link to
			// the striking peer is back up.
			if h.ep.nic.TxRail(h.peer) != 0 && !h.ep.nic.RailDown(0, h.peer) {
				h.ep.nic.SetRail(h.peer, 0)
				h.ep.Stats.RailSwitches++
				h.beginTrial()
			} else if h.ep.nic.TxRail(h.peer) == 0 {
				// Already back on the preferred rail (double failover).
				h.beginTrial()
			} else {
				h.arm(healthProbeAfter)
			}
		case causeSDMA:
			// Probe: re-enable the fast path on trial.
			h.ep.fd.NoFastPath = false
			h.beginTrial()
		default:
			// No cause recorded: nothing to probe, go straight back.
			h.beginTrial()
		}
	case HealthRecovering:
		// Clean trial window: recovered.
		h.state = HealthHealthy
		h.cause = causeNone
		h.ep.Stats.Fallbacks++
		h.ep.span("fallback", now, 0)
	case HealthDegraded:
		// Strike decay without reaching the limit.
		h.state = HealthHealthy
		h.strikes = 0
	}
}

func (h *healthMachine) beginTrial() {
	h.state = HealthRecovering
	h.arm(healthTrialWindow)
}
