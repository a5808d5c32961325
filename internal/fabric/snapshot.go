package fabric

import (
	"crypto/sha256"
	"sort"

	"repro/internal/snapshot"
)

// EncodeState serializes the fabric's mutable state for a snapshot:
// fault RNG position, fault, pool and congestion counters, congestion
// credits in flight, per-port egress counters and route-ordering clamps,
// and freelist depths. In-flight packets are
// not here — they live in the engine event heap as pooled delivery
// records, which contribute their own state via SnapshotState below.
//
// Registered by cluster.New under "fabric" (and "fabric#1" for the
// verbs fabric); costs nothing until Engine.Snapshot invokes it.
func (f *Fabric) EncodeState(e *snapshot.Enc) {
	if f.frng != nil {
		st := f.frng.State()
		e.Printf("frng=%016x,%016x,%016x,%016x\n", st[0], st[1], st[2], st[3])
	}
	e.Printf("fstats drop=%d corrupt=%d dup=%d reorder=%d down=%d\n",
		f.fstats.Dropped, f.fstats.Corrupted, f.fstats.Duplicated,
		f.fstats.Reordered, f.fstats.DownDrops)
	e.Printf("pstats bufget=%d bufhit=%d bufput=%d pktget=%d pkthit=%d pktput=%d\n",
		f.pstats.BufGets, f.pstats.BufHits, f.pstats.BufPuts,
		f.pstats.PktGets, f.pstats.PktHits, f.pstats.PktPuts)
	e.Printf("cstats marks=%d stalls=%d stalltime=%d\n",
		f.cstats.Marks, f.cstats.Stalls, int64(f.cstats.StallTime))
	links := make([]LinkID, 0, len(f.inflight))
	for l := range f.inflight {
		links = append(links, l)
	}
	sortLinkIDs(links)
	for _, l := range links {
		e.Printf("cong inflight src=%d dst=%d bytes=%d\n", l.Src, l.Dst, f.inflight[l])
	}
	ings := make([]int, 0, len(f.ingress))
	for n := range f.ingress {
		ings = append(ings, n)
	}
	sort.Ints(ings)
	for _, n := range ings {
		e.Printf("cong ingress node=%d bytes=%d\n", n, f.ingress[n])
	}
	// Freelist depths: pooled buffers are zeroed and packets cleared on
	// return, so depth per class is the complete pool state.
	e.Printf("pool pkts=%d dels=%d\n", len(f.pkts), len(f.dels))
	sizes := make([]int, 0, len(f.bufs))
	for n := range f.bufs {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	for _, n := range sizes {
		if len(f.bufs[n]) > 0 {
			e.Printf("pool bufclass=%d free=%d\n", n, len(f.bufs[n]))
		}
	}
	nodes := make([]int, 0, len(f.ports))
	for n := range f.ports {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		p := f.ports[n]
		e.Printf("port node=%d txbytes=%d txpkts=%d busy=%d inuse=%d waiters=%d\n",
			n, p.TxBytes, p.TxPackets, int64(p.egress.Busy), p.egress.InUse(), p.egress.QueueLen())
		dsts := make([]int, 0, len(p.lastArrival))
		for d := range p.lastArrival {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			e.Printf("port node=%d lastarrival dst=%d at=%d\n", n, d, int64(p.lastArrival[d]))
		}
	}
}

// EncodePacketState emits one packet's identity for a snapshot: every
// wire-visible field, with payload bytes folded to a digest — equality
// is all the byte-compare verification needs, and dumping payloads
// would bloat snapshots of large-message runs. Shared by in-flight
// deliveries and by NIC receive queues holding undelivered packets.
func EncodePacketState(e *snapshot.Enc, p *Packet) {
	e.Printf("pkt src=%d dst=%d ctx=%d kind=%d op=%d rank=%d tag=%x msgid=%d len=%d off=%d aux=%d psn=%d bytes=%d tid=%d/%d last=%v corrupt=%v",
		p.SrcNode, p.DstNode, p.DstCtx, p.Kind,
		p.Hdr.Op, p.Hdr.SrcRank, p.Hdr.Tag, p.Hdr.MsgID, p.Hdr.MsgLen, p.Hdr.Offset, p.Hdr.Aux, p.Hdr.PSN,
		p.Bytes, p.TIDIdx, p.TIDOff, p.Last, p.Corrupt)
	if p.Payload != nil {
		sum := sha256.Sum256(p.Payload)
		e.Printf(" payload=%x", sum[:8])
	}
	if p.ECN {
		e.Printf(" ecn=true")
	}
}

func sortLinkIDs(links []LinkID) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].Src != links[j].Src {
			return links[i].Src < links[j].Src
		}
		return links[i].Dst < links[j].Dst
	})
}

// SnapshotState lets an in-flight delivery — a pooled record sitting in
// the engine event heap — contribute the packet it carries to the
// snapshot.
func (d *delivery) SnapshotState(e *snapshot.Enc) {
	EncodePacketState(e, d.pkt)
	e.Printf(" begin=%d route=%q", int64(d.begin), d.route)
}

var _ snapshot.Stater = (*delivery)(nil)
