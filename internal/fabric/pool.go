package fabric

// Freelists for the per-packet hot path. A Fabric owns one payload-
// buffer pool (size-class keyed) and one Packet pool, shared by every
// NIC attached to it. All pool methods run in simulation context
// (an event callback or a running process), so no locking is needed.
//
// Ownership protocol:
//
//   - The sender obtains a buffer with GetBuf and a packet with
//     GetPacket, fills both and calls Send. From that point the fabric
//     owns them.
//   - The receiving NIC calls Release exactly once per delivered
//     packet, after its rx handler has consumed the payload (payloads
//     are copied into simulated host memory synchronously, never
//     retained).
//   - The fabric itself Releases packets it drops in flight, and takes
//     duplicated packets out of the pooled regime entirely (both copies
//     fall to the garbage collector) so the two in-flight aliases can
//     never recycle the shared payload.
//   - Buffers are zeroed when they return to the pool, so a consumer
//     that illegally holds on to a delivered payload reads zeroes, not
//     another message's bytes — aliasing bugs fail loudly in tests
//     instead of silently corrupting data.
//
// Senders that retain payloads after Send (the PSM reliability layer
// keeps them for retransmission) must not use pooled buffers. They
// recycle their own, by hold count: a packet carrying one names its
// holder in Owner, the sender holds the payload once per packet it
// sends, the fabric adds a hold when it duplicates the packet, and
// Release lets go of one hold per copy. The payload is the owner's
// again once the count it keeps reaches zero; this pool never sees it,
// so its counters are the same whether a sender recycles or not.

// PoolStats counts freelist traffic (instrumentation for tests and the
// EXPERIMENTS.md performance section).
type PoolStats struct {
	BufGets uint64 // GetBuf calls
	BufHits uint64 // GetBuf calls satisfied from the freelist
	BufPuts uint64 // PutBuf calls
	PktGets uint64 // GetPacket calls
	PktHits uint64 // GetPacket calls satisfied from the freelist
	PktPuts uint64 // packets returned via Release
}

// GetBuf returns a zeroed payload buffer of length n from the pool,
// allocating only when no buffer of that size class is free.
func (f *Fabric) GetBuf(n int) []byte {
	f.pstats.BufGets++
	class := f.bufs[n]
	if len(class) > 0 {
		b := class[len(class)-1]
		class[len(class)-1] = nil
		f.bufs[n] = class[:len(class)-1]
		f.pstats.BufHits++
		return b
	}
	return make([]byte, n)
}

// PutBuf zeroes b and returns it to its size class. Only buffers that
// came from GetBuf (or share an exact size class with them) should be
// returned.
func (f *Fabric) PutBuf(b []byte) {
	if b == nil {
		return
	}
	f.pstats.BufPuts++
	clear(b)
	if f.bufs == nil {
		f.bufs = make(map[int][][]byte)
	}
	f.bufs[len(b)] = append(f.bufs[len(b)], b)
}

// GetPacket returns a zeroed Packet with Pooled set; Release returns it
// after delivery.
func (f *Fabric) GetPacket() *Packet {
	f.pstats.PktGets++
	if n := len(f.pkts); n > 0 {
		p := f.pkts[n-1]
		f.pkts[n-1] = nil
		f.pkts = f.pkts[:n-1]
		f.pstats.PktHits++
		p.Pooled = true
		return p
	}
	return &Packet{Pooled: true}
}

// Release recycles a delivered (or dropped) packet: the payload goes
// back to the buffer pool when pool-owned, or its owner is told that
// this copy is done, and the Packet itself goes back when it came from
// GetPacket. Receiving NICs call this exactly once per packet after
// their rx handler returns; calling it on a packet with neither is a
// harmless no-op.
func (f *Fabric) Release(pkt *Packet) {
	if pkt == nil {
		return
	}
	if o := pkt.Owner; o != nil {
		pkt.Owner = nil
		o.ReleasePayload()
	}
	if pkt.PooledPayload && pkt.Payload != nil {
		f.PutBuf(pkt.Payload)
		pkt.Payload = nil
		pkt.PooledPayload = false
	}
	if pkt.Pooled {
		f.pstats.PktPuts++
		*pkt = Packet{}
		f.pkts = append(f.pkts, pkt)
	}
}

// PoolStats returns the freelist counters.
func (f *Fabric) PoolStats() PoolStats { return f.pstats }
