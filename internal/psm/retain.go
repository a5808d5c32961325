package psm

import "fmt"

// chunk is one retained payload: the bytes a lossy-fabric PIO send or
// eager replay reads out of user memory (readPayload) and keeps for
// go-back-N retransmission. holds counts its holders:
//
//   - the flow's unacked listing, from sendFlowPkt until an ACK retires
//     the packet or the flow fails;
//   - a running go-back-N round that still reads an array ackUpTo
//     detached: a packet retired under a round passes its listing's
//     hold to txFlow.detached, which the last round to end lets go;
//   - every packet copy in flight: the sender holds the chunk once per
//     packet it sends, the fabric once more per duplicate it makes, and
//     fabric.Release lets go once per copy delivered, dropped or
//     discarded (chunk is the packets' fabric.PayloadOwner).
//
// The last holder to let go returns the chunk to Endpoint.freeChunks.
//
// Reliable mode exists only on lossy fabrics, which newShardSet
// (internal/cluster) refuses, so every release runs on the owner's
// engine and the count needs no lock. When ROADMAP item 2(b) lifts that
// refusal, a copy delivered on another shard must route its release
// through the window barrier back to the sending shard.
type chunk struct {
	ep    *Endpoint
	buf   []byte
	holds int
}

// takeChunk returns an unheld chunk: a free one if any, else a new one.
// Every chunk holds a whole eager chunk, the most one read takes
// (eagerChunks).
func (ep *Endpoint) takeChunk() *chunk {
	if k := len(ep.freeChunks); k > 0 {
		c := ep.freeChunks[k-1]
		ep.freeChunks[k-1] = nil
		ep.freeChunks = ep.freeChunks[:k-1]
		return c
	}
	ep.chunksMade++
	return &chunk{ep: ep, buf: make([]byte, ep.nic.Params().EagerChunk)}
}

// HoldPayload takes one hold: a packet copy the sender or the fabric
// puts in flight.
func (c *chunk) HoldPayload() { c.holds++ }

// ReleasePayload lets go of one hold; the last one returns the chunk to
// its endpoint's free list.
func (c *chunk) ReleasePayload() {
	c.holds--
	switch {
	case c.holds == 0:
		c.ep.freeChunks = append(c.ep.freeChunks, c)
	case c.holds < 0:
		panic(fmt.Sprintf("psm: rank %d retained chunk released more often than held", c.ep.Rank))
	}
}

// retain lists tp on the flow until an ACK retires it; the listing
// holds its chunk.
func (fl *txFlow) retain(tp txPkt) {
	if tp.chunk != nil {
		tp.chunk.HoldPayload()
	}
	fl.unacked = append(fl.unacked, tp)
}

// retire drops the unacked listing of every packet up to cum and
// returns how many it dropped. A running round may still be reading the
// listing's array, so it keeps that array, carries the survivors on in
// a new one, and passes the retired chunks' holds to fl.detached; with
// no round running the array is compacted in place and the holds go.
func (fl *txFlow) retire(cum uint32) int {
	n := 0
	for n < len(fl.unacked) && fl.unacked[n].psn <= cum {
		n++
	}
	if n == 0 {
		return 0
	}
	fl.letGo(fl.unacked[:n])
	if fl.rounds > 0 {
		fl.unacked = append(make([]txPkt, 0, cap(fl.unacked)), fl.unacked[n:]...)
	} else {
		fl.unacked = compact(fl.unacked, n)
	}
	return n
}

// letGo drops the listing holds of pkts, or passes them to fl.detached
// while a round runs.
func (fl *txFlow) letGo(pkts []txPkt) {
	for _, tp := range pkts {
		switch {
		case tp.chunk == nil:
		case fl.rounds > 0:
			fl.detached = append(fl.detached, tp.chunk)
		default:
			tp.chunk.ReleasePayload()
		}
	}
}

// endRound ends one go-back-N round; the last running one lets go of
// the chunks retired under the rounds.
func (fl *txFlow) endRound() {
	if fl.rounds--; fl.rounds > 0 {
		return
	}
	for i, c := range fl.detached {
		c.ReleasePayload()
		fl.detached[i] = nil
	}
	fl.detached = fl.detached[:0]
}

// CheckRetained reports a retained chunk whose count disagrees with its
// holders once no packet is in flight (the machine has drained): each
// chunk the endpoint made is either on its free list with no holds, or
// held exactly once per listing of it on a flow (unacked or detached).
// A flow whose endpoint closed before its last ACK keeps its listings.
func (ep *Endpoint) CheckRetained() error {
	listed := map[*chunk]int{}
	for _, pe := range ep.peers {
		if fl := pe.tx; fl != nil {
			for _, tp := range fl.unacked {
				if tp.chunk != nil {
					listed[tp.chunk]++
				}
			}
			for _, c := range fl.detached {
				listed[c]++
			}
		}
	}
	for c, n := range listed {
		if c.holds != n {
			return fmt.Errorf("psm: rank %d: retained chunk with %d holds has %d listings and no copy in flight", ep.Rank, c.holds, n)
		}
	}
	for _, c := range ep.freeChunks {
		if c.holds != 0 {
			return fmt.Errorf("psm: rank %d: free retained chunk with %d holds", ep.Rank, c.holds)
		}
	}
	if n := len(ep.freeChunks) + len(listed); n != ep.chunksMade {
		return fmt.Errorf("psm: rank %d: %d of %d retained chunks neither free nor listed", ep.Rank, ep.chunksMade-n, ep.chunksMade)
	}
	return nil
}
