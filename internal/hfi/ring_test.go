package hfi

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// ringGeometry is one receive-context shape the release rule must hold
// for.
type ringGeometry struct {
	name              string
	eagerSlots, hdrqN int
	chunk             uint64
}

var ringGeometries = []ringGeometry{
	{"default", EagerSlots, HdrqEntries, 8 << 10},
	{"eager16", 16, 100, 8 << 10},
	// The whole header queue fits in one frame.
	{"hdrq17", 64, 17, 8 << 10},
	// Eager slots straddle frames, and the ring ends mid-frame.
	{"chunk7372", 16, 100, 7372},
}

// ringModel is the test's own account of one ring.
type ringModel struct {
	base             mem.PhysAddr
	entries, size    uint64
	head, tail       uint64
	floor            uint64 // the tail when the NIC last wrote the ring
	headOff, tailOff int    // status-page words
}

func (m *ringModel) full() bool { return m.head-m.tail >= m.entries }

// pendingEntry is an unconsumed header-queue entry and, for an eager
// arrival, the payload of its slot.
type pendingEntry struct {
	raw   [HdrqEntrySize]byte
	seq   uint64
	bytes uint64
	eager bool
}

// ringRig drives one context's rings through the NIC's receive handlers
// directly and plays the consumer itself. Each consumption checks that
// nothing unconsumed was lost, each arrival step that nothing consumed
// before the NIC's last write is still backed.
type ringRig struct {
	t           testing.TB
	pm          *mem.PhysMem
	nic         *NIC
	ctx         *Context
	status      mem.PhysAddr
	eager, hdrq ringModel
	pending     []pendingEntry
	seq         uint64
	// scratch receives an eager slot's bytes; pattern backs payload.
	scratch, pattern []byte
}

func newRingRig(t testing.TB, g ringGeometry, eagerStart, hdrqStart uint64) *ringRig {
	pr := model.Default()
	pr.EagerChunk = g.chunk
	e := sim.NewEngine(1)
	t.Cleanup(e.Close)
	pm, err := mem.NewPhysMem(mem.Region{Size: 64 << 20, Kind: mem.DDR4})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := NewNIC(e, &pr, 0, pm, fabric.New(e, &pr))
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(size uint64) mem.PhysAddr {
		ext, err := pm.AllocContig(size, mem.DDROnly)
		if err != nil {
			t.Fatal(err)
		}
		return ext.Addr
	}
	r := &ringRig{t: t, pm: pm, nic: nic, status: alloc(mem.PageSize4K)}
	r.hdrq = ringModel{base: alloc(uint64(g.hdrqN) * HdrqEntrySize), entries: uint64(g.hdrqN), size: HdrqEntrySize,
		headOff: StatusHdrqHead, tailOff: StatusHdrqTail}
	r.eager = ringModel{base: alloc(uint64(g.eagerSlots) * g.chunk), entries: uint64(g.eagerSlots), size: g.chunk,
		headOff: StatusEagerHead, tailOff: StatusEagerTail}
	r.ctx, err = nic.AllocContext(0, r.status, r.hdrq.base, r.eager.base, alloc(mem.PageSize4K),
		g.hdrqN, g.eagerSlots, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Start mid-run: every entry before the start was written, consumed
	// and handed back.
	for _, s := range []struct {
		m        *ringModel
		start    uint64
		released *uint64
	}{{&r.eager, eagerStart, &r.ctx.eagerReleased}, {&r.hdrq, hdrqStart, &r.ctx.hdrqReleased}} {
		s.m.head, s.m.tail, s.m.floor, *s.released = s.start, s.start, s.start, s.start
		r.setStatus(s.m.headOff, s.start)
		r.setStatus(s.m.tailOff, s.start)
	}
	return r
}

func (r *ringRig) setStatus(off int, v uint64) {
	if err := r.pm.WriteU64(r.status+mem.PhysAddr(off), v); err != nil {
		r.t.Fatal(err)
	}
}

// payload is the n-byte payload of arrival seq: a window into a pattern
// with no zero byte, so a dropped frame shows, starting at an offset
// that differs between neighbouring arrivals.
func (r *ringRig) payload(seq, n uint64) []byte {
	off := seq % 251
	return r.pattern[off : off+n]
}

// written records the arrival the NIC just posted to the header queue,
// after checking the NIC's head against the model's.
func (r *ringRig) written(seq, bytes uint64, eager bool) {
	r.t.Helper()
	rings := []*ringModel{&r.hdrq}
	if eager {
		rings = append(rings, &r.eager)
	}
	for _, m := range rings {
		m.floor = m.tail
		m.head++
		if got := r.nic.readStatus(r.ctx, m.headOff); got != m.head {
			r.t.Fatalf("status head %d, want %d", got, m.head)
		}
	}
	pe := pendingEntry{seq: seq, bytes: bytes, eager: eager}
	if err := r.pm.ReadAt(r.slotPA(&r.hdrq, r.hdrq.head-1), pe.raw[:]); err != nil {
		r.t.Fatal(err)
	}
	r.pending = append(r.pending, pe)
}

func (r *ringRig) slotPA(m *ringModel, i uint64) mem.PhysAddr {
	return m.base + mem.PhysAddr(i%m.entries*m.size)
}

func (r *ringRig) arriveEager(n uint64) {
	r.t.Helper()
	r.seq++
	pkt := &fabric.Packet{
		Kind: fabric.KindEager,
		Hdr: fabric.Header{Op: OpEager, SrcRank: 3, Tag: ^r.seq, MsgID: r.seq, MsgLen: n,
			Offset: r.seq * 5, Aux: r.seq * 7, PSN: uint32(r.seq) | 1},
		Payload: r.payload(r.seq, n), Bytes: n, ECN: true,
	}
	if err := r.nic.rxEager(r.ctx, pkt); err != nil {
		r.t.Fatal(err)
	}
	r.written(r.seq, n, true)
}

func (r *ringRig) arriveHdrq() {
	r.t.Helper()
	r.seq++
	e := HdrqEntry{Type: HdrqTypeExpectedDone, SrcRank: 5, Tag: ^r.seq, MsgID: r.seq, MsgLen: r.seq * 3,
		Aux: r.seq * 11, Op: OpExpected, Bytes: r.seq, PSN: uint32(r.seq) | 1, ECN: true}
	if err := r.nic.postHdrq(r.ctx, &e); err != nil {
		r.t.Fatal(err)
	}
	r.written(r.seq, 0, false)
}

// consume plays PSM for the oldest pending entry: read the header-queue
// entry and the eager slot it names, then move past both.
func (r *ringRig) consume() {
	r.t.Helper()
	pe := r.pending[0]
	r.pending = r.pending[1:]
	var raw [HdrqEntrySize]byte
	if err := r.pm.ReadAt(r.slotPA(&r.hdrq, r.hdrq.tail), raw[:]); err != nil {
		r.t.Fatal(err)
	}
	if raw != pe.raw {
		r.t.Fatalf("hdrq entry %d (arrival %d) changed while unconsumed", r.hdrq.tail, pe.seq)
	}
	r.hdrq.tail++
	r.setStatus(StatusHdrqTail, r.hdrq.tail)
	if !pe.eager {
		return
	}
	got := r.scratch[:pe.bytes]
	if err := r.pm.ReadAt(r.slotPA(&r.eager, r.eager.tail), got); err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(got, r.payload(pe.seq, pe.bytes)) {
		r.t.Fatalf("eager slot %d (arrival %d, %d bytes) changed while unconsumed",
			r.eager.tail%r.eager.entries, pe.seq, pe.bytes)
	}
	r.eager.tail++
	r.setStatus(StatusEagerTail, r.eager.tail)
}

// checkBound: every backed frame of a ring overlaps an entry in
// [floor, head) — one not yet consumed, or consumed since the NIC last
// wrote the ring. The ring's frames run to the end of its last one.
func (r *ringRig) checkBound(backed map[mem.PhysAddr]bool, name string, m *ringModel) {
	r.t.Helper()
	ring := m.entries * m.size
	allowed := map[uint64]bool{}
	for i := m.floor; i < m.head; i++ {
		lo := i % m.entries * m.size
		for f := lo / mem.PageSize4K; f <= (lo+m.size-1)/mem.PageSize4K; f++ {
			allowed[f] = true
		}
	}
	for f := uint64(0); f*mem.PageSize4K < ring; f++ {
		if backed[m.base+mem.PhysAddr(f*mem.PageSize4K)] && !allowed[f] {
			r.t.Fatalf("%s ring: frame %d is backed but holds no entry in [%d, %d) (tail %d)",
				name, f, m.floor, m.head, m.tail)
		}
	}
}

// backedFrames reads the backed frames off the node's snapshot section.
func (r *ringRig) backedFrames() map[mem.PhysAddr]bool {
	var buf bytes.Buffer
	if err := snapshot.Walk(&buf, "", r.pm, nil); err != nil {
		r.t.Fatal(err)
	}
	return backedFrames(r.t, buf.String())
}

// frameLine matches a backed frame's buffer or one of its sectors in
// the mem section: regions[R].chunks[G][C].frames[F].buf or
// .sectors[S], chunk C of 64-chunk directory group G.
var frameLine = regexp.MustCompile(`^regions\[(\d+)\]\.chunks\[(\d+)\]\[(\d+)\]\.frames\[(\d+)\]\.(?:buf|sectors\[\d+\])=`)

// backedFrames lists the frame addresses a node<N>/mem snapshot
// section holds bytes for.
func backedFrames(t testing.TB, section string) map[mem.PhysAddr]bool {
	t.Helper()
	bases := map[uint64]uint64{}
	backed := map[mem.PhysAddr]bool{}
	for _, line := range strings.Split(section, "\n") {
		var reg, base uint64
		if _, err := fmt.Sscanf(line, "regions[%d].Region.Base=%d", &reg, &base); err == nil {
			bases[reg] = base
		}
		if m := frameLine.FindStringSubmatch(line); m != nil {
			var n [4]uint64
			for i := range n {
				n[i], _ = strconv.ParseUint(m[i+1], 10, 64)
			}
			frame := (n[1]*64+n[2])*(mem.PageSize2M/mem.PageSize4K) + n[3]
			backed[mem.PhysAddr(bases[n[0]]+frame*mem.PageSize4K)] = true
		}
	}
	return backed
}

// ringProgram decodes a byte string as operands; reads past the end
// yield zero and mark the program done.
type ringProgram struct {
	data []byte
	done bool
}

func (p *ringProgram) u8() uint64 {
	if len(p.data) == 0 {
		p.done = true
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return uint64(b)
}

func (p *ringProgram) u16() uint64 { return p.u8() | p.u8()<<8 }

// Operation bytes of a ring program, by threshold.
const (
	ringOpEager   = 0   // [0, 96): one eager arrival; then a length byte
	ringOpHdrq    = 96  // [96, 150): one header-queue-only arrival
	ringOpConsume = 150 // [150, 220): consume 1–64 entries
	ringOpJump    = 220 // [220, 250): consume all but 0–2 entries
	ringOpFill    = 250 // [250, 256): arrive until a ring is full
)

// runRingRelease interprets prog over one geometry (prog's first byte
// picks it): arrivals and consumption interleave at random, starting
// anywhere on the rings' laps, and the rig checks the rule after every
// arrival step. The final drain reads back every entry still pending.
func runRingRelease(t testing.TB, prog []byte) {
	p := &ringProgram{data: prog}
	g := ringGeometries[p.u8()%uint64(len(ringGeometries))]
	start := func(n int) uint64 {
		laps := p.u8()%4 + 1
		return laps*uint64(n) - p.u16()%uint64(n)
	}
	eagerStart := start(g.eagerSlots)
	r := newRingRig(t, g, eagerStart, start(g.hdrqN))
	r.scratch = make([]byte, g.chunk)
	r.pattern = make([]byte, g.chunk+251)
	for i := range r.pattern {
		r.pattern[i] = byte(i*7) | 1
	}
	eagerRoom := func() bool { return !r.eager.full() && !r.hdrq.full() }
	arriveEager := func() {
		n := g.chunk
		if p.u8()&1 == 0 {
			n = p.u16() % (g.chunk + 1)
		}
		if eagerRoom() {
			r.arriveEager(n)
		}
	}
	for !p.done {
		switch op := p.u8(); {
		case op < ringOpHdrq:
			arriveEager()
		case op < ringOpConsume:
			if !r.hdrq.full() {
				r.arriveHdrq()
			}
		case op < ringOpJump:
			for k := p.u8()%64 + 1; k > 0 && len(r.pending) > 0; k-- {
				r.consume()
			}
			continue // the NIC releases nothing until it next writes
		case op < ringOpFill:
			for keep := int(p.u8() % 3); len(r.pending) > keep; {
				r.consume()
			}
			continue
		default:
			if p.u8()&1 == 0 {
				for eagerRoom() {
					r.arriveEager(g.chunk)
				}
			} else {
				for !r.hdrq.full() {
					r.arriveHdrq()
				}
			}
		}
		backed := r.backedFrames()
		r.checkBound(backed, "eager", &r.eager)
		r.checkBound(backed, "hdrq", &r.hdrq)
	}
	for len(r.pending) > 0 {
		r.consume()
	}
}

// ringReleaseSeeds are TestRingRelease's programs and FuzzRingRelease's
// corpus. Each geometry runs a fixed script first: fill the eager ring,
// consume three and arrive (the head reuses the slot of the oldest entry
// released, on the next lap), refill and consume all but one (a tail
// jump of almost a lap), then the same on the header queue. The eager
// start leaves 11 slots before the lap ends and the header-queue start
// 1 070 entries, so the live entries wrap past the ring's end. A random
// program follows.
func ringReleaseSeeds() [][]byte {
	var progs [][]byte
	for gi := range ringGeometries {
		script := []byte{
			byte(gi),
			1, 11, 0, // eager start
			2, 0x2e, 0x04, // header-queue start: 1 070
			ringOpFill, 0,
			ringOpConsume, 2,
			ringOpEager, 1,
			ringOpFill, 0,
			ringOpJump, 1,
			ringOpEager, 0, 0x34, 0x12,
			ringOpFill, 1,
			ringOpConsume, 59,
			ringOpHdrq,
			ringOpJump, 0,
			ringOpHdrq,
		}
		tail := make([]byte, 400)
		rand.New(rand.NewSource(int64(gi) + 1)).Read(tail)
		progs = append(progs, append(script, tail...))
	}
	return progs
}

// TestRingRelease: the NIC hands back exactly the ring frames the
// consumer has passed. Every unconsumed entry reads back byte-exact, and
// no frame stays backed unless it holds an entry not yet consumed, or
// one consumed since the NIC last wrote the ring.
func TestRingRelease(t *testing.T) {
	for gi, prog := range ringReleaseSeeds() {
		t.Run(ringGeometries[gi].name, func(t *testing.T) { runRingRelease(t, prog) })
	}
}

func FuzzRingRelease(f *testing.F) {
	for _, prog := range ringReleaseSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runRingRelease(t, prog) })
}
