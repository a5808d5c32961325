package fabric

import (
	"time"

	"repro/internal/sim"
)

// Credit/ECN-style congestion control for the OmniPath fabric. Each
// directed link (and each destination node, covering N→1 incast) has a
// budget of in-flight wire bytes; senders whose packet would overflow a
// budget block in Send until credits return at delivery. Packets
// admitted while occupancy sits above MarkFrac of a budget carry an ECN
// mark, which the receiving NIC surfaces to PSM through the header
// queue — PSM answers with a CNP and the sender backs its eager window
// off (see internal/psm/congestion.go). The zero profile is inert:
// congestion-off runs take none of these paths.

// CongProfile configures fabric congestion control. The zero value
// disables it.
type CongProfile struct {
	// LinkBudget caps the in-flight wire bytes of one directed link
	// (source port → destination port); zero leaves links unlimited.
	LinkBudget uint64
	// IngressBudget caps the summed in-flight wire bytes toward one
	// destination node across all of its rails and upstream links — the
	// incast (N→1) bottleneck; zero leaves ingress unlimited.
	IngressBudget uint64
	// MarkFrac is the fraction of a budget at or above which admitted
	// packets are ECN-marked (congestion signalled before hard
	// backpressure). Zero never marks.
	MarkFrac float64
}

// Active reports whether the profile constrains anything. Nil-safe.
func (cp *CongProfile) Active() bool {
	return cp != nil && (cp.LinkBudget > 0 || cp.IngressBudget > 0)
}

// CongStats counts congestion-control activity.
type CongStats struct {
	// Marks counts ECN-marked packets.
	Marks uint64
	// Stalls counts Send calls that blocked on exhausted credit.
	Stalls uint64
	// StallTime accumulates the virtual time senders spent blocked.
	StallTime time.Duration
}

// SetCongestion installs a congestion profile. Call before traffic
// flows; an inactive profile keeps the fabric on the credit-free path.
func (f *Fabric) SetCongestion(cp *CongProfile) {
	f.cong = cp
	if cp.Active() {
		f.inflight = make(map[LinkID]uint64)
		f.ingress = make(map[int]uint64)
		f.congCond = sim.NewCond(f.e)
	}
}

// Congested reports whether congestion control is active.
func (f *Fabric) Congested() bool { return f.cong.Active() }

// CongStats returns the congestion-control counters.
func (f *Fabric) CongStats() CongStats { return f.cstats }

// wireBytes is the credit charge of a packet: payload plus framing.
func (f *Fabric) wireBytes(pkt *Packet) uint64 {
	return pkt.Bytes + uint64(f.pr.PacketOverheadBytes)
}

// stall is one packet's credit wait: whether it has stalled yet, and
// since when.
type stall struct {
	on   bool
	from time.Duration
}

// gated reports whether pkt must pass the credit gate: congestion
// control is on, the packet flies on this fabric (dst non-nil), and it
// is not RDMA.
func (f *Fabric) gated(dst *Port, pkt *Packet) bool {
	return dst != nil && f.cong.Active() && pkt.Kind != KindRDMA
}

// admit is the credit gate before serialization. When pkt fits under
// every budget it crosses, admit charges the credits, ECN-marks the
// packet if occupancy is past the marking threshold and returns true.
// Otherwise it counts the stall (once per packet, timed from the first
// refusal) and returns false: the sender waits on congCond and calls
// again. A packet larger than a whole budget is admitted alone on an
// idle link (the `cur > 0` guards), so oversized transfers make
// progress instead of livelocking.
func (f *Fabric) admit(pkt *Packet, st *stall) bool {
	cp := f.cong
	lid := LinkID{Src: pkt.SrcNode, Dst: pkt.DstNode}
	ing := pkt.DstNode % RailBase
	n := f.wireBytes(pkt)
	over := false
	if cp.LinkBudget > 0 {
		if cur := f.inflight[lid]; cur > 0 && cur+n > cp.LinkBudget {
			over = true
		}
	}
	if !over && cp.IngressBudget > 0 {
		if cur := f.ingress[ing]; cur > 0 && cur+n > cp.IngressBudget {
			over = true
		}
	}
	if over {
		if !st.on {
			*st = stall{on: true, from: f.e.Now()}
			f.cstats.Stalls++
		}
		return false
	}
	if st.on {
		f.cstats.StallTime += f.e.Now() - st.from
	}
	f.inflight[lid] += n
	f.ingress[ing] += n
	if mf := cp.MarkFrac; mf > 0 {
		if (cp.LinkBudget > 0 && float64(f.inflight[lid]) >= mf*float64(cp.LinkBudget)) ||
			(cp.IngressBudget > 0 && float64(f.ingress[ing]) >= mf*float64(cp.IngressBudget)) {
			pkt.ECN = true
			f.cstats.Marks++
		}
	}
	return true
}

// congDone returns pkt's credits and wakes stalled senders. Called once
// per admitted packet at its terminal event — delivery or an in-flight
// drop — from event context, where Broadcast is safe. Duplicated
// copies carry congFree and return nothing: the original already
// charged (and returns) the credit exactly once.
func (f *Fabric) congDone(pkt *Packet) {
	if !f.cong.Active() || pkt.congFree {
		return
	}
	lid := LinkID{Src: pkt.SrcNode, Dst: pkt.DstNode}
	ing := pkt.DstNode % RailBase
	n := f.wireBytes(pkt)
	if cur := f.inflight[lid]; cur > n {
		f.inflight[lid] = cur - n
	} else {
		delete(f.inflight, lid)
	}
	if cur := f.ingress[ing]; cur > n {
		f.ingress[ing] = cur - n
	} else {
		delete(f.ingress, ing)
	}
	f.congCond.Broadcast()
}
