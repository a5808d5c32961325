package psm

import (
	"time"

	"repro/internal/sim"
)

// Deterministic AIMD-style backoff against fabric ECN marks. The fabric
// marks packets admitted above its congestion thresholds; the receiving
// NIC surfaces the mark through the header-queue entry; the receiver
// answers with a coalesced CNP (one per peer per Progress call,
// mirroring ACK coalescing); and the sender's per-peer eager window
// halves on each CNP. Senders with a shrunken window pace their eager
// chunk trains — after every `window` chunks they idle one inter-burst
// gap — and earn the window back additively after congCleanChunks paced
// chunks without a CNP. All state is per-peer and exists only when the
// NIC reports a congested fabric, so congestion-off runs are untouched.

const (
	// congMaxWindow is the uncongested eager window: chunk trains run
	// back-to-back and no pacing gaps are inserted.
	congMaxWindow = 8
	// congCleanChunks is the additive-increase threshold: paced chunks
	// sent without a CNP before the window grows by one.
	congCleanChunks = 16
)

// congCtl is the per-peer AIMD window.
type congCtl struct {
	window int // chunks per burst, in [1, congMaxWindow]
	clean  int // paced chunks since the last CNP
	burst  int // chunks sent in the current burst
}

// backedOff returns the window toward peer if it is below the maximum,
// nil when congestion control is off or the peer is clean (one branch
// and, when on, one lookup per chunk).
func (ep *Endpoint) backedOff(peer int) *congCtl {
	if !ep.congEnabled {
		return nil
	}
	if pe, ok := ep.peers[peer]; ok && pe.cong != nil && pe.cong.window < congMaxWindow {
		return pe.cong
	}
	return nil
}

// congObserve records one inbound header entry's ECN mark: the next
// Progress call owes the source a CNP. CNP entries themselves are
// exempt, so two congested peers can never feed each other a
// notification loop.
func (ep *Endpoint) congObserve(src int, op uint32, ecn bool) {
	if !ep.congEnabled || !ecn || op == OpCnp {
		return
	}
	ep.Stats.EcnSeen++
	if pe := ep.peerOf(src); !pe.cnpOwed {
		pe.cnpOwed = true
		ep.cnpOwed = append(ep.cnpOwed, src)
	}
}

// congBackoff is the multiplicative decrease: a CNP from peer halves
// the eager window toward it (floor 1).
func (ep *Endpoint) congBackoff(peer int) {
	if !ep.congEnabled {
		return
	}
	ep.Stats.CnpsRcvd++
	pe := ep.peerOf(peer)
	if pe.cong == nil {
		pe.cong = &congCtl{window: congMaxWindow}
	}
	cc := pe.cong
	if cc.window > 1 {
		cc.window /= 2
		ep.Stats.Backoffs++
	}
	cc.clean = 0
	cc.burst = 0
}

// congPace is called after each eager chunk toward peer: once a backed-
// off window's burst is exhausted, the sender idles one inter-burst gap
// — (congMaxWindow - window) chunk wire times, so a halved window
// roughly halves the offered load — and banks the clean chunks toward
// additive increase. A full window inserts no gaps.
func (ep *Endpoint) congPace(p *sim.Proc, peer int, chunkBytes uint64) {
	cc := ep.backedOff(peer)
	if cc == nil {
		return
	}
	cc.burst++
	cc.clean++
	if cc.clean >= congCleanChunks {
		cc.clean = 0
		cc.window++
		ep.Stats.Increases++
		if cc.window >= congMaxWindow {
			cc.burst = 0
			return
		}
	}
	if cc.burst < cc.window {
		return
	}
	cc.burst = 0
	gap := time.Duration(congMaxWindow-cc.window) * ep.nic.Params().WireTime(chunkBytes)
	if gap > 0 {
		ep.Stats.PaceSleeps++
		p.Sleep(gap)
	}
}

// congPreSDMA delays a bulk SDMA submission toward a backed-off peer in
// proportion to the missing window fraction: a window at the floor
// stretches the transfer to roughly (2 - 1/congMaxWindow)× its wire
// time, matching the paced-PIO slowdown without touching the engine's
// descriptor pipeline.
func (ep *Endpoint) congPreSDMA(p *sim.Proc, peer int, bytes uint64) {
	cc := ep.backedOff(peer)
	if cc == nil {
		return
	}
	wire := ep.nic.Params().WireTime(bytes)
	gap := wire * time.Duration(congMaxWindow-cc.window) / congMaxWindow
	if gap > 0 {
		ep.Stats.PaceSleeps++
		p.Sleep(gap)
		cc.clean += int(bytes / ep.nic.Params().EagerChunk)
		if cc.clean >= congCleanChunks {
			cc.clean = 0
			cc.window++
			ep.Stats.Increases++
		}
	}
}
