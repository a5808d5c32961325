package fabric

import "repro/internal/pool"

// Pools for the per-packet hot path. A Fabric owns one payload-buffer
// pool per exact size class and one Packet pool, internal/pool free
// lists shared by every NIC attached to it. A packet in flight needs no
// record of its own: it is the argument of its arrival event. They run in simulation context (an event callback or a running
// process), so no locking is needed.
//
// Ownership protocol:
//
//   - The sender obtains a buffer with GetBuf and a packet with
//     GetPacket, fills both and calls Send. From that point the fabric
//     owns them.
//   - The receiving NIC calls Release exactly once per delivered
//     packet, after its rx handler has consumed the payload (payloads
//     are copied into simulated host memory synchronously, never
//     retained). Release puts the packet, and a pooled payload, back.
//   - The fabric itself Releases packets it drops in flight. A packet
//     it duplicates leaves the pooled regime: both in-flight copies
//     alias the same payload, so the packet and a pooled payload are
//     dropped from their pools (pool.Pool.Drop) and both copies fall to
//     the garbage collector. The pools' live counts stay exact on lossy
//     fabrics, and their put counts are what PoolStats has always
//     reported.
//   - Buffers are zeroed when they go back, so a consumer that illegally
//     holds on to a delivered payload reads zeroes, not another
//     message's bytes — aliasing bugs fail loudly in tests instead of
//     silently corrupting data.
//
// Senders that retain payloads after Send (the PSM reliability layer
// keeps them for retransmission) must not use pooled buffers. They
// recycle their own, by hold count: a packet carrying one names its
// holder in Owner, the sender holds the payload once per packet it
// sends, the fabric adds a hold when it duplicates the packet, and
// Release lets go of one hold per copy. The payload is the owner's
// again once the count it keeps reaches zero; these pools never see it,
// so their counters are the same whether a sender recycles or not.

// PoolStats counts pool traffic (instrumentation for tests and the
// benchmark's hit rates), read from the buffer and packet pools.
type PoolStats struct {
	BufGets uint64 // GetBuf calls
	BufHits uint64 // GetBuf calls satisfied from the freelist
	BufPuts uint64 // PutBuf calls
	PktGets uint64 // GetPacket calls
	PktHits uint64 // GetPacket calls satisfied from the freelist
	PktPuts uint64 // packets returned via Release
}

// initPools builds the packet pool and points pstats at the counts.
func (f *Fabric) initPools() {
	f.bufs = make(map[int]*pool.Pool[[]byte])
	f.pkts = pool.New("fabric: packet", &f.pktCounts, func() *Packet { return new(Packet) },
		func(p *Packet) { *p = Packet{} })
	b, p := &f.bufCounts, &f.pktCounts
	f.pstats.BufGets, f.pstats.BufHits, f.pstats.BufPuts = &b.Gets, &b.Hits, &b.Puts
	f.pstats.PktGets, f.pstats.PktHits, f.pstats.PktPuts = &p.Gets, &p.Hits, &p.Puts
}

// bufClass returns the pool of n-byte buffers; every class counts in
// bufCounts. An empty class hands out nil, and GetBuf makes the buffer.
func (f *Fabric) bufClass(n int) *pool.Pool[[]byte] {
	p := f.bufs[n]
	if p == nil {
		p = new(pool.Pool[[]byte])
		*p = pool.New("fabric: buffer", &f.bufCounts, nil, zero)
		f.bufs[n] = p
	}
	return p
}

func zero(b []byte) { clear(b) }

// GetBuf returns a zeroed payload buffer of length n from the pool,
// allocating only when no buffer of that size class is free.
func (f *Fabric) GetBuf(n int) []byte {
	if b := f.bufClass(n).Get(); b != nil {
		return b
	}
	return make([]byte, n)
}

// PutBuf zeroes b and returns it to its size class. Only buffers that
// came from GetBuf (or share an exact size class with them) should be
// returned.
func (f *Fabric) PutBuf(b []byte) {
	if b != nil {
		f.bufClass(len(b)).Put(b)
	}
}

// GetPacket returns a zeroed Packet with Pooled set; Release returns it
// after delivery.
func (f *Fabric) GetPacket() *Packet {
	p := f.pkts.Get()
	p.Pooled = true
	return p
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
		f.pkts.Put(pkt)
	}
}

// unpool takes pkt and a pooled payload out of their pools for good.
func (f *Fabric) unpool(pkt *Packet) {
	if pkt.Pooled {
		f.pkts.Drop(pkt)
	}
	if pkt.PooledPayload && pkt.Payload != nil {
		f.bufClass(len(pkt.Payload)).Drop(pkt.Payload)
	}
	pkt.Pooled, pkt.PooledPayload = false, false
}

// PoolStats returns the buffer and packet pools' counters.
func (f *Fabric) PoolStats() PoolStats {
	b, p := f.bufCounts, f.pktCounts
	return PoolStats{BufGets: b.Gets, BufHits: b.Hits, BufPuts: b.Puts,
		PktGets: p.Gets, PktHits: p.Hits, PktPuts: p.Puts}
}

// Pools returns the counts of the fabric's buffer and packet pools; the
// buffer size classes count as one.
func (f *Fabric) Pools() []pool.Stats {
	return []pool.Stats{{Name: "fabric: buffer", Counts: f.bufCounts}, f.pkts.Stats()}
}
