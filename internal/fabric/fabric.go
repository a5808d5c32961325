// Package fabric models the OmniPath interconnect between nodes: per-node
// egress serialization at link bandwidth and a fixed one-way latency.
// Packets carry either real payload bytes (copied between the nodes'
// simulated physical memories by the NIC models) or synthetic lengths for
// large-scale runs.
package fabric

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// PacketKind distinguishes receive-side handling.
type PacketKind uint8

const (
	// KindEager is delivered into the destination context's eager ring.
	KindEager PacketKind = iota
	// KindExpected is delivered through a programmed RcvArray (TID)
	// entry directly into user memory.
	KindExpected
	// KindRDMA is delivered to the destination's RDMA HCA (the verbs
	// engine): DstCtx is a QP number, not a receive context.
	KindRDMA
)

// Header carries the PSM-protocol fields of a packet. The NIC copies
// these into receive-header-queue entries; PSM never sees Go pointers,
// only what was serialized into host memory.
type Header struct {
	Op      uint32 // psm-level opcode
	SrcRank uint32
	Tag     uint64
	MsgID   uint64
	MsgLen  uint64
	Offset  uint64 // payload offset within the message
	Aux     uint64 // opcode-specific (e.g. TID count in a CTS)
	// PSN is the reliability-protocol sequence number on the sender's
	// flow to this destination; zero means the packet is not sequenced
	// (loss-free mode, SDMA data, or ACK/NAK control traffic).
	PSN uint32
}

// Packet is one wire transfer unit.
type Packet struct {
	SrcNode int
	DstNode int
	DstCtx  int // receive context id at the destination
	Kind    PacketKind
	Hdr     Header
	// Payload is the real data (nil in synthetic mode).
	Payload []byte
	// Bytes is the payload length on the wire (also set when Payload
	// is nil).
	Bytes uint64
	// TIDIdx/TIDOff place expected packets within a programmed
	// RcvArray entry.
	TIDIdx int
	TIDOff uint64
	// Last marks the final packet of a message (triggers a completion
	// header entry for expected receives).
	Last bool
	// Corrupt marks a packet damaged in flight (injected fault); the
	// receiving NIC's CRC check discards it without touching a context.
	Corrupt bool
	// ECN marks a packet admitted while its link or ingress occupancy
	// sat above the congestion profile's marking threshold; the
	// receiving NIC copies it into the header-queue entry so PSM can
	// answer with a CNP. Never set when congestion control is off.
	ECN bool
	// congFree exempts a packet from credit return: set on the extra
	// copy of a duplicated packet, whose original carries the (single)
	// credit charge. Zero on every caller-constructed packet.
	congFree bool
	// Pooled marks a Packet obtained from the fabric's packet pool: the
	// receiving NIC hands it back via Release after rx processing.
	Pooled bool
	// PooledPayload marks Payload as pool-owned: Release zeroes it and
	// returns it to the buffer pool. Never set on payloads the sender
	// retains (reliability-mode retransmit buffers).
	PooledPayload bool
	// Owner, when set, is the holder of a payload its sender retains:
	// Release tells it once per copy (see PayloadOwner). Never set
	// together with PooledPayload.
	Owner PayloadOwner `snap:"-"`
}

// PayloadOwner counts the in-flight copies of a retained payload. The
// sender takes one hold per packet it sends with the payload, the
// fabric takes one more for each duplicate it makes, and Release lets
// go of one per copy delivered, dropped or discarded. The owner may
// reuse the payload once its own holders and every copy have let go.
// Release runs on the engine of the fabric that delivers the copy, so a
// routed (cross-shard) packet must not carry an owner; the only owner,
// psm's retained chunk, travels on lossy fabrics alone, which a shard
// set refuses.
type PayloadOwner interface {
	HoldPayload()
	ReleasePayload()
}

// Port is one node's attachment to the fabric.
type Port struct {
	Node    int
	egress  *sim.Resource
	deliver func(*Packet)
	// TxBytes/TxPackets count egress traffic.
	TxBytes   uint64
	TxPackets uint64
	// lastArrival tracks, per destination node, the latest scheduled
	// delivery time, so that jittered latencies never reorder packets
	// on a src→dst route.
	lastArrival map[int]time.Duration
	// lastRxAt/lastRxSrc remember the previous arrival so the fabric
	// can count simultaneity ties (see Fabric.Ties).
	lastRxAt  time.Duration
	lastRxSrc int
	// routes caches the per-destination flight-span track name so the
	// hot path never rebuilds the "wire:src->dst" string.
	routes map[int]string `snap:"-"`
}

// routeTo returns the cached flight-span track name for this port's
// route to dst.
func (p *Port) routeTo(dst int) string {
	s, ok := p.routes[dst]
	if !ok {
		if p.routes == nil {
			p.routes = make(map[int]string)
		}
		s = fmt.Sprintf("wire:%d->%d", p.Node, dst)
		p.routes[dst] = s
	}
	return s
}

// Fabric connects node ports.
type Fabric struct {
	e     *sim.Engine
	pr    *model.Params
	ports map[int]*Port

	// route, when set, carries packets whose destination port is not
	// attached to this instance: sharded clusters build one Fabric per
	// shard and route cross-shard traffic through it. It is handed the
	// packet after egress serialization, together with the link latency
	// still to be applied; the receiving side completes the flight with
	// Deliver. Cross-fabric routing composes only with the loss-free,
	// jitter-free, congestion-free profile (the cluster validates this),
	// so the routed path never consults the fault or congestion state.
	route func(pkt *Packet, lat time.Duration) error

	faults *FaultProfile
	frng   *xrand.Rand
	fstats FaultStats

	// Congestion control (see congestion.go): budgets, in-flight credit
	// occupancy per directed link and per destination node, and the
	// condition stalled senders block on. All nil/empty when congestion
	// is off.
	cong     *CongProfile
	cstats   CongStats
	inflight map[LinkID]uint64
	ingress  map[int]uint64
	congCond *sim.Cond

	// Hot-path pools (see pool.go): payload buffers by exact size, all
	// classes counting in bufCounts, packets, and the delivery records
	// that replace a per-packet closure in deliverAt. Not state: records
	// are cleared on return. pstats prints the buffer and packet counts
	// in checkpoints, where they have always been.
	bufs      map[int]*pool.Pool[[]byte] `snap:"-"`
	pkts      pool.Pool[*Packet]         `snap:"-"`
	dels      pool.Pool[*delivery]       `snap:"-"`
	bufCounts pool.Counts                `snap:"-"`
	pktCounts pool.Counts                `snap:"-"`
	pstats    struct{ BufGets, BufHits, BufPuts, PktGets, PktHits, PktPuts *uint64 }

	// ties counts simultaneity ties: packets from different source
	// nodes arriving at the same destination at the same virtual
	// instant. Their relative order is a history artifact of the event
	// schedule, so a sharded run is digest-identical to the unsharded
	// one exactly when the workload produces zero ties (the bigscale
	// experiment asserts this).
	ties uint64
}

// New creates an empty fabric.
func New(e *sim.Engine, pr *model.Params) *Fabric {
	f := &Fabric{e: e, pr: pr, ports: make(map[int]*Port)}
	f.initPools()
	return f
}

// SetFaults installs a fault profile. Call before traffic flows; a nil
// profile (or an inactive one) restores loss-free behavior.
func (f *Fabric) SetFaults(fp *FaultProfile) {
	f.faults = fp
	if fp.Active() {
		seed := fp.Seed
		if seed == 0 {
			seed = 1
		}
		f.frng = xrand.New(seed)
	}
}

// Faults returns the installed fault profile (nil if none).
func (f *Fabric) Faults() *FaultProfile { return f.faults }

// Lossy reports whether fault injection is active.
func (f *Fabric) Lossy() bool { return f.faults.Active() }

// FaultStats returns the injected-fault counters.
func (f *Fabric) FaultStats() FaultStats { return f.fstats }

// RailBase offsets the port IDs of secondary rails: rail r of node n
// attaches its port at RailID(n, r). Each rail is an independent set of
// directed links, so FaultProfile Down windows and PerLink overrides
// select a rail by using rail IDs as Src/Dst.
const RailBase = 1 << 16

// RailID returns the port ID of node's rail (rail 0 is the plain node
// ID, keeping single-rail configurations unchanged).
func RailID(node, rail int) int { return node + rail*RailBase }

// LinkDown reports whether the directed link src→dst (port IDs, so
// rail-qualified) is currently inside a configured outage window. This
// is the health machine's link-state oracle: the sender-side NIC can
// observe its own link LEDs, it just can't see in-flight loss.
func (f *Fabric) LinkDown(src, dst int) bool {
	return f.faults.Active() && f.faults.downAt(src, dst, f.e.Now())
}

// Attach registers a node's port. deliver is invoked (in event context,
// zero duration) when a packet arrives; the NIC model queues it for its
// receive pipeline.
func (f *Fabric) Attach(node int, deliver func(*Packet)) (*Port, error) {
	if _, dup := f.ports[node]; dup {
		return nil, fmt.Errorf("fabric: node %d already attached", node)
	}
	p := &Port{Node: node, egress: sim.NewResource(f.e, 1), deliver: deliver, lastRxSrc: -1}
	f.ports[node] = p
	return p, nil
}

// Ties returns the simultaneity-tie count: arrivals that landed at a
// destination at the same virtual instant as the previous arrival from
// a different source node. Zero ties certifies the run's delivery order
// is free of same-instant ordering artifacts.
func (f *Fabric) Ties() uint64 { return f.ties }

// TxTotals sums egress traffic over every attached port. The totals are
// part of the bigscale experiment's cross-shard-identity digest.
func (f *Fabric) TxTotals() (bytes, packets uint64) {
	for _, p := range f.ports {
		bytes += p.TxBytes
		packets += p.TxPackets
	}
	return bytes, packets
}

// noteRx updates dst's arrival bookkeeping and the tie counter.
func (f *Fabric) noteRx(dst *Port, pkt *Packet) {
	now := f.e.Now()
	if now == dst.lastRxAt && pkt.SrcNode != dst.lastRxSrc && dst.lastRxSrc >= 0 {
		f.ties++
	}
	dst.lastRxAt, dst.lastRxSrc = now, pkt.SrcNode
}

// Engine returns the engine this fabric schedules on.
func (f *Fabric) Engine() *sim.Engine { return f.e }

// SetRouter installs the cross-fabric routing hook (see the route
// field). Passing nil restores the single-fabric behavior where an
// unattached destination is a send error.
func (f *Fabric) SetRouter(fn func(pkt *Packet, lat time.Duration) error) { f.route = fn }

// Deliver hands an arriving packet to its destination port. It is the
// receive half of a routed cross-fabric send and must run in this
// fabric's engine at the packet's arrival time; it mirrors the tail of
// a local delivery (minus flight-span emission and congestion credit
// return, both inactive whenever routing is configured).
func (f *Fabric) Deliver(pkt *Packet) error {
	dst, ok := f.ports[pkt.DstNode]
	if !ok {
		return fmt.Errorf("fabric: destination node %d not attached", pkt.DstNode)
	}
	f.noteRx(dst, pkt)
	dst.deliver(pkt)
	return nil
}

// kindName labels flight spans by receive-side handling.
func kindName(k PacketKind) string {
	switch k {
	case KindExpected:
		return "expected"
	case KindRDMA:
		return "rdma"
	}
	return "eager"
}

// Send transmits pkt from the caller's node, blocking proc for the wire
// serialization time (the sender's egress link is a shared resource; SDMA
// engines of one NIC contend here). Delivery happens LinkLatency later
// without blocking the sender. Transmit is the same send for event
// context.
func (f *Fabric) Send(proc *sim.Proc, pkt *Packet) error {
	begin := proc.Now()
	src, dst, err := f.ends(pkt)
	if err != nil {
		return err
	}
	if f.gated(dst, pkt) {
		var st stall
		for !f.admit(pkt, &st) {
			f.congCond.Wait(proc)
		}
	}
	src.egress.Use(proc, f.pr.WireTime(pkt.Bytes))
	return f.sent(src, dst, pkt, begin)
}

// Transmit is a send in flight from event context: the state a process
// keeps on its stack through Send, for a device pipeline that has none
// (the NIC's SDMA engines). Its owner sets Done and Arg once and reuses
// it for one send at a time.
type Transmit struct {
	// Done(Arg) runs in the event in which Send would have returned,
	// with Err holding what Send would have returned. Arg names the
	// sender in a snapshot of a pending Transmit event.
	Done func(any) `snap:"-"`
	Arg  any
	Err  error

	f        *Fabric `snap:"-"`
	src, dst *Port   `snap:"-"`
	pkt      *Packet
	begin    time.Duration
	stall    stall
}

// Transmit sends pkt as Send does, event for event, without a process:
// a credit stall waits on the congestion condition and a busy egress
// port on its Resource as callbacks in the blocked senders' FIFO, and
// serialization is one AfterArg. x.Done runs when the send is over.
func (f *Fabric) Transmit(x *Transmit, pkt *Packet) {
	x.f, x.pkt, x.begin, x.stall = f, pkt, f.e.Now(), stall{}
	x.src, x.dst, x.Err = f.ends(pkt)
	if x.Err != nil {
		x.pkt = nil
		x.Done(x.Arg)
		return
	}
	xmitAdmit(x)
}

// xmitAdmit is a Transmit's credit gate, retried at each wake.
func xmitAdmit(a any) {
	x := a.(*Transmit)
	if x.f.gated(x.dst, x.pkt) && !x.f.admit(x.pkt, &x.stall) {
		x.f.congCond.WaitFunc(xmitAdmit, x)
		return
	}
	xmitEgress(x)
}

// xmitEgress claims the egress port, retried at each grant, and starts
// serialization.
func xmitEgress(a any) {
	x := a.(*Transmit)
	if !x.src.egress.TryAcquire(xmitEgress, x) {
		return
	}
	x.f.e.AfterArg(x.f.pr.WireTime(x.pkt.Bytes), xmitWire, x)
}

// xmitWire ends serialization: it frees the egress port as Resource.Use
// does, hands the packet on and runs Done.
func xmitWire(a any) {
	x := a.(*Transmit)
	f, pkt := x.f, x.pkt
	x.src.egress.Busy += f.pr.WireTime(pkt.Bytes)
	x.src.egress.Release()
	x.pkt = nil
	x.Err = f.sent(x.src, x.dst, pkt, x.begin)
	x.Done(x.Arg)
}

// ends looks up pkt's source port and its destination port (nil for a
// destination attached to another fabric, when a router is installed),
// and sets pkt.Bytes from a real payload.
func (f *Fabric) ends(pkt *Packet) (src, dst *Port, err error) {
	src, ok := f.ports[pkt.SrcNode]
	if !ok {
		return nil, nil, fmt.Errorf("fabric: source node %d not attached", pkt.SrcNode)
	}
	dst, ok = f.ports[pkt.DstNode]
	if !ok && f.route == nil {
		return nil, nil, fmt.Errorf("fabric: destination node %d not attached", pkt.DstNode)
	}
	if pkt.Payload != nil {
		pkt.Bytes = uint64(len(pkt.Payload))
	}
	return src, dst, nil
}

// sent finishes a send once pkt is serialized: it counts the egress
// traffic and hands the packet on, either to the router with the link
// latency still to fly (dst nil: a cross-fabric send) or into its
// flight toward dst, jittered and, on a lossy fabric, through the fault
// profile.
func (f *Fabric) sent(src, dst *Port, pkt *Packet, begin time.Duration) error {
	src.TxBytes += pkt.Bytes
	src.TxPackets++
	if dst == nil {
		return f.route(pkt, f.pr.LinkLatency)
	}
	lat := f.pr.LinkLatency
	if f.pr.LinkJitter > 0 {
		lat += time.Duration(f.e.Rng().Int63n(int64(f.pr.LinkJitter)))
		// Clamp to the route's previous arrival: the fabric is ordered,
		// jitter must not reorder packets between a node pair.
		if src.lastArrival == nil {
			src.lastArrival = make(map[int]time.Duration)
		}
		at := f.e.Now() + lat
		if prev := src.lastArrival[pkt.DstNode]; at < prev {
			at = prev
		}
		src.lastArrival[pkt.DstNode] = at
		lat = at - f.e.Now()
	}
	if f.frng != nil && f.faults.Active() && pkt.Kind != KindRDMA {
		f.sendFaulty(dst, pkt, begin, lat)
		return nil
	}
	f.deliverAt(dst, pkt, begin, lat)
	return nil
}

// delivery is the pooled argument record of one scheduled packet
// delivery: deliverAt fills one and hands it to sim.Engine.AfterArg, so
// the per-packet path allocates neither a closure nor captured state.
type delivery struct {
	f     *Fabric
	dst   *Port `snap:"-"` // pkt.DstNode's port, in the fabric section
	pkt   *Packet
	begin time.Duration
	route string
}

// runDelivery fires one scheduled delivery. It is a package function
// (not a closure) so AfterArg can reuse the same func value for every
// packet.
func runDelivery(a any) {
	d := a.(*delivery)
	f, dst, pkt, begin, route := d.f, d.dst, d.pkt, d.begin, d.route
	// Recycle the record before delivering: deliver can synchronously
	// trigger further sends that need fresh records.
	f.dels.Put(d)
	if rec := f.e.Recorder(); rec != nil {
		rec.SpanBytes(trace.CatFabric, kindName(pkt.Kind), route,
			begin, f.e.Now(), pkt.Bytes)
	}
	f.congDone(pkt)
	f.noteRx(dst, pkt)
	dst.deliver(pkt)
}

// deliverAt schedules delivery of pkt after lat and emits the flight
// span. The span covers egress serialization plus link latency: begin
// at Send entry, end at delivery.
func (f *Fabric) deliverAt(dst *Port, pkt *Packet, begin time.Duration, lat time.Duration) {
	d := f.dels.Get()
	src := f.ports[pkt.SrcNode]
	*d = delivery{f: f, dst: dst, pkt: pkt, begin: begin, route: src.routeTo(pkt.DstNode)}
	f.e.AfterArg(lat, runDelivery, d)
}

// sendFaulty applies the fault profile to one already-serialized packet.
// The sender has paid egress either way — faults happen in flight, so
// the sender never learns a packet was lost. Drop/corrupt/dup/reorder
// decisions come from the dedicated fault RNG in a fixed order so that
// the fault pattern replays exactly for a given seed: drop, dup, then
// for the original and after it the duplicate, corrupt before reorder.
//
// The packet that flies is the caller's own (every sender's comes from
// GetPacket), so a faulty send allocates nothing; only a duplicate is a
// fresh copy, taken before the original's corrupt draw marks it.
func (f *Fabric) sendFaulty(dst *Port, pkt *Packet, begin time.Duration, lat time.Duration) {
	if f.faults.downAt(pkt.SrcNode, pkt.DstNode, f.e.Now()) {
		f.fstats.DownDrops++
		f.congDone(pkt)
		f.Release(pkt)
		return
	}
	lf := f.faults.linkFor(pkt.SrcNode, pkt.DstNode)
	if lf.Drop > 0 && f.frng.Float64() < lf.Drop {
		f.fstats.Dropped++
		f.congDone(pkt)
		f.Release(pkt)
		return
	}
	var dup *Packet
	if lf.Dup > 0 && f.frng.Float64() < lf.Dup {
		f.fstats.Duplicated++
		// Both in-flight copies alias the same payload, so neither may
		// recycle a pooled one: take the packet out of the pooled regime
		// and let the garbage collector reclaim both (duplication is
		// rare). An owned payload counts the copy instead, and goes back
		// to its owner when both have been released.
		f.unpool(pkt)
		if pkt.Owner != nil {
			pkt.Owner.HoldPayload()
		}
		dup = new(Packet)
		*dup = *pkt
		// The duplicate trails the original by one extra hop. The
		// original alone carries the congestion credit charge.
		dup.congFree = true
	}
	f.flyFaulty(dst, pkt, lf, begin, lat)
	if dup != nil {
		f.flyFaulty(dst, dup, lf, begin, lat+f.pr.LinkLatency)
	}
}

// flyFaulty draws one in-flight copy's corruption and reordering, in
// that order, and schedules its delivery.
func (f *Fabric) flyFaulty(dst *Port, pkt *Packet, lf LinkFaults, begin, lat time.Duration) {
	if lf.Corrupt > 0 && f.frng.Float64() < lf.Corrupt {
		f.fstats.Corrupted++
		pkt.Corrupt = true
	}
	if lf.Reorder > 0 && lf.ReorderDelay > 0 && f.frng.Float64() < lf.Reorder {
		f.fstats.Reordered++
		// Extra delay past the jitter FIFO clamp: packets sent later
		// on this route may overtake this one.
		lat += time.Duration(1 + f.frng.Int63n(int64(lf.ReorderDelay)))
	}
	f.deliverAt(dst, pkt, begin, lat)
}
