package mem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/pool"
)

// refMem is the map-backed frame and pin state PhysMem kept before the
// chunk table, reduced to what the differential driver needs, plus the
// sectors each frame has backed: the table must be indistinguishable
// from it through the public API and in its snapshot section.
type refMem struct {
	frames map[PhysAddr]*[PageSize4K]byte
	// backed has bit s set when the frame has backed sector s; all bits
	// once more than half are.
	backed map[PhysAddr]uint16
	pins   map[PhysAddr]int
}

func newRefMem() *refMem {
	return &refMem{frames: map[PhysAddr]*[PageSize4K]byte{}, backed: map[PhysAddr]uint16{}, pins: map[PhysAddr]int{}}
}

func (r *refMem) write(pa PhysAddr, buf []byte) {
	for len(buf) > 0 {
		base := frameFloor(pa)
		f := r.frames[base]
		if f == nil {
			f = new([PageSize4K]byte)
			r.frames[base] = f
		}
		n := copy(f[pa-base:], buf)
		mask := r.backed[base]
		for s := int(pa-base) >> sectorShift; s <= int(pa-base+PhysAddr(n)-1)>>sectorShift; s++ {
			mask |= 1 << s
		}
		if bits.OnesCount16(mask) > frameSectors/2 {
			mask = 1<<frameSectors - 1
		}
		r.backed[base] = mask
		buf, pa = buf[n:], pa+PhysAddr(n)
	}
}

func (r *refMem) read(pa PhysAddr, buf []byte) {
	for len(buf) > 0 {
		base := frameFloor(pa)
		n := PageSize4K - int(pa-base)
		if n > len(buf) {
			n = len(buf)
		}
		if f := r.frames[base]; f != nil {
			copy(buf[:n], f[pa-base:])
		} else {
			clear(buf[:n])
		}
		buf, pa = buf[n:], pa+PhysAddr(n)
	}
}

func (r *refMem) pin(e Extent, delta int) {
	for pa := frameFloor(e.Addr); pa < frameCeil(e.End()); pa += PageSize4K {
		if r.pins[pa] += delta; r.pins[pa] == 0 {
			delete(r.pins, pa)
		}
	}
}

func (r *refMem) forget(pa PhysAddr) {
	delete(r.frames, pa)
	delete(r.backed, pa)
}

func (r *refMem) drop(exts []Extent) {
	for _, e := range exts {
		for pa := e.Addr; pa < e.End(); pa += PageSize4K {
			r.forget(pa)
		}
	}
}

// discard forgets the frames lying wholly inside e.
func (r *refMem) discard(e Extent) {
	for pa := frameCeil(e.Addr); pa+PageSize4K <= e.End(); pa += PageSize4K {
		r.forget(pa)
	}
}

// backing counts the reference's whole frames, sparse frames and
// sparse frames' sectors: what PhysMem's three pools should have out.
func (r *refMem) backing() (wholes, sparse, sectors int) {
	for _, mask := range r.backed {
		if mask == 1<<frameSectors-1 {
			wholes++
		} else {
			sparse++
			sectors += bits.OnesCount16(mask)
		}
	}
	return wholes, sparse, sectors
}

// encode renders the reference's backing and pin counts as
// renderFramesPins does.
func (r *refMem) encode() string {
	contents := map[PhysAddr]string{}
	for a, f := range r.frames {
		if mask := r.backed[a]; mask == 1<<frameSectors-1 {
			contents[a] = "buf " + bytesHash(f[:])
		} else {
			for s := 0; s < frameSectors; s++ {
				if mask&(1<<s) != 0 {
					contents[a+PhysAddr(s)<<sectorShift] = "sector " + bytesHash(f[s<<sectorShift:(s+1)<<sectorShift])
				}
			}
		}
	}
	return renderFramesPins(contents, r.pins)
}

// bytesHash is the snapshot walk's text of a buffer.
func bytesHash(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d:%x", len(b), sum[:8])
}

// renderFramesPins prints one line per whole frame's buffer or sparse
// frame's sector, then one "pin" line per pinned frame, each in address
// order.
func renderFramesPins(contents map[PhysAddr]string, pins map[PhysAddr]int) string {
	var b strings.Builder
	for _, a := range slices.Sorted(maps.Keys(contents)) {
		fmt.Fprintf(&b, "addr=%x %s\n", uint64(a), contents[a])
	}
	for _, a := range slices.Sorted(maps.Keys(pins)) {
		fmt.Fprintf(&b, "pin addr=%x count=%d\n", uint64(a), pins[a])
	}
	return b.String()
}

// chunkLine matches a line the mem section prints under a chunk record:
// a whole frame's buffer, a sparse frame's sector, the shared pin count
// or a per-frame pin count.
var chunkLine = regexp.MustCompile(`^regions\[(\d+)\]\.chunks\[(\d+)\]\[(\d+)\]\.(?:frames\[(\d+)\]\.(?:buf=(\S+)|sectors\[(\d+)\]=(\S+))|pin=(\d+)|pins\[(\d+)\]=(\d+))$`)

// sectionFramesPins reads pm's frame backing and pin counts out of its
// snapshot section and renders them as renderFramesPins does. A shared
// count stands for each frame of its chunk; a chunk that prints one
// beside per-frame counts, a frame that prints a buffer beside sectors,
// or any other line under a chunk, fails t.
func sectionFramesPins(t testing.TB, pm *PhysMem) string {
	t.Helper()
	contents := map[PhysAddr]string{}
	pins := map[PhysAddr]int{}
	shared, split := map[PhysAddr]bool{}, map[PhysAddr]bool{}
	whole, sparse := map[PhysAddr]bool{}, map[PhysAddr]bool{}
	for _, l := range strings.Split(string(encodeState(t, pm)), "\n") {
		if !strings.Contains(l, ".chunks[") {
			continue
		}
		m := chunkLine.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("unexpected line under a chunk record: %q", l)
		}
		num := func(i int) int {
			n, err := strconv.Atoi(m[i])
			if err != nil {
				t.Fatalf("%q: %v", l, err)
			}
			return n
		}
		rs := pm.regions[num(1)]
		base := rs.Base + PhysAddr((num(2)*groupChunks+num(3))*chunkFrames)<<PageShift4K
		switch {
		case m[5] != "":
			a := base + PhysAddr(num(4))<<PageShift4K
			whole[a] = true
			contents[a] = "buf " + m[5]
		case m[6] != "":
			a := base + PhysAddr(num(4))<<PageShift4K
			sparse[a] = true
			contents[a+PhysAddr(num(6))<<sectorShift] = "sector " + m[7]
		case m[8] != "":
			shared[base] = true
			for i := 0; i < chunkFrames; i++ {
				pins[base+PhysAddr(i)<<PageShift4K] = num(8)
			}
		default:
			split[base] = true
			pins[base+PhysAddr(num(9))<<PageShift4K] = num(10)
		}
	}
	for base := range shared {
		if split[base] {
			t.Fatalf("chunk %#x prints a shared pin count beside per-frame counts", uint64(base))
		}
	}
	for a := range whole {
		if sparse[a] {
			t.Fatalf("frame %#x prints a buffer beside sectors", uint64(a))
		}
	}
	return renderFramesPins(contents, pins)
}

// Allocation kinds of the op driver; each is freed by its own call.
const (
	allocContig = iota
	allocRun
	allocScattered
)

type liveAlloc struct {
	kind int
	exts []Extent
}

// opProgram decodes a byte string as operands; every byte string is a
// valid program, so the fuzzer can mutate freely. Reads past the end
// yield zero and mark the program done.
type opProgram struct {
	data []byte
	done bool
}

func (p *opProgram) u8() int {
	if len(p.data) == 0 {
		p.done = true
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b)
}

func (p *opProgram) u16() int { return p.u8() | p.u8()<<8 }
func (p *opProgram) u24() int { return p.u16() | p.u8()<<16 }

// runPhysMemOps interprets prog as a sequence of allocations, unaligned
// reads and writes, runs of small writes around sector and frame edges,
// small reads, nested pins, pins and unpins of whole allocations,
// discards and frees over a two-region node, and checks PhysMem step by
// step against refMem.
//
// The MCDRAM region is 15 MB, so it ends in the middle of a chunk and the
// adjoining DDR4 region's chunks are offset from absolute 2 MB alignment.
// Byte access and pins stay inside live allocations (a failed
// AllocRun/AllocScattered rolls back through the free path, which drops
// frame contents the reference could not know about otherwise). A fixed
// span — the top 1 MB of MCDRAM plus the first 4 MB of DDR4 — is held for
// the whole run so that accesses can straddle the region boundary.
func runPhysMemOps(t testing.TB, prog []byte) {
	const mcSize, ddrSize = 15 << 20, 32 << 20
	const mcBase, ddrBase = PhysAddr(1 << 30), PhysAddr(1<<30 + mcSize)
	pm, err := NewPhysMem(
		Region{Base: mcBase, Size: mcSize, Kind: MCDRAM},
		Region{Base: ddrBase, Size: ddrSize, Kind: DDR4},
	)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []Extent
	for i := 0; i < mcSize>>20; i++ {
		e, err := pm.AllocContig(1<<20, MCDRAMOnly)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, e)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Addr < blocks[j].Addr })
	top := blocks[len(blocks)-1]
	for _, e := range blocks[:len(blocks)-1] {
		pm.FreeContig(e)
	}
	low, err := pm.AllocContig(4<<20, DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	if top.End() != ddrBase || low.Addr != ddrBase {
		t.Fatalf("fixture not contiguous across the region boundary: %#x+%#x, %#x", top.Addr, top.Len, low.Addr)
	}
	fixture := Extent{Addr: top.Addr, Len: top.Len + low.Len}

	ref := newRefMem()
	var live []liveAlloc
	var pinned []Extent
	p := &opProgram{data: prog}
	buf := make([]byte, 20000)
	got := make([]byte, len(buf))
	want := make([]byte, len(buf))

	// target picks a byte range inside the fixture (a quarter of the
	// picks) or a live extent. Half the picks are centred on a boundary
	// the range contains: the first chunk edge, or for the fixture also
	// the MCDRAM/DDR4 edge.
	target := func() Extent {
		ext := fixture
		if k := p.u8(); k >= 64 && len(live) > 0 {
			exts := live[k%len(live)].exts
			ext = exts[p.u16()%len(exts)]
		}
		n := uint64(1 + p.u16()%len(buf))
		if n > ext.Len {
			n = ext.Len
		}
		off := uint64(p.u24()) % (ext.Len - n + 1)
		if bias := p.u8(); bias&1 == 1 {
			base := mcBase
			if ext.Addr >= ddrBase {
				base = ddrBase
			}
			edge := base + (ext.Addr-base+PageSize2M)&^(PageSize2M-1)
			if ext == fixture && bias&2 == 2 {
				edge = ddrBase
			}
			if mid := uint64(edge - ext.Addr); mid >= n/2 && mid-n/2+n <= ext.Len {
				off = mid - n/2
			}
		}
		return Extent{Addr: ext.Addr + PhysAddr(off), Len: n}
	}
	checkPins := func(e Extent) {
		t.Helper()
		if got, want := pm.PinnedFrames(), len(ref.pins); got != want {
			t.Fatalf("PinnedFrames = %d, reference %d", got, want)
		}
		for _, pa := range []PhysAddr{e.Addr, e.End() - 1} {
			if got, want := pinnedAt(pm, pa), ref.pins[frameFloor(pa)] > 0; got != want {
				t.Fatalf("pinned at %#x = %v, reference %v", pa, got, want)
			}
		}
	}
	checkRead := func(e Extent) {
		t.Helper()
		if err := pm.ReadAt(e.Addr, got[:e.Len]); err != nil {
			t.Fatal(err)
		}
		ref.read(e.Addr, want[:e.Len])
		if !bytes.Equal(got[:e.Len], want[:e.Len]) {
			t.Fatalf("ReadAt(%#x, %d) differs from the reference", e.Addr, e.Len)
		}
	}
	// small picks up to two sectors inside e: starting at or centred on
	// one of the sector edges of e's first two frames (so also on a frame
	// edge), or at e's start.
	small := func(e Extent) Extent {
		n := min(uint64(1+p.u16()%(2*sectorSize)), e.Len)
		a := e.Addr
		if k := p.u8(); k < 2*frameSectors*4 {
			a = (e.Addr+sectorMask)&^sectorMask + PhysAddr(k/4)<<sectorShift
			if k&1 == 1 && a-e.Addr >= PhysAddr(n/2) {
				a -= PhysAddr(n / 2)
			}
		}
		a = min(a, e.End()-PhysAddr(n))
		return Extent{Addr: a, Len: n}
	}

	for step := 0; !p.done; step++ {
		switch op := p.u8() % 12; op {
		case 0, 1, 2:
			var exts []Extent
			var err error
			policy := AllocPolicy(p.u8() % 3)
			switch op {
			case allocContig:
				var e Extent
				e, err = pm.AllocContig(PageSize4K<<(p.u8()%11), policy)
				exts = []Extent{e}
			case allocRun:
				exts, err = pm.Partition("").AllocRun(1+p.u16()%700, policy)
			case allocScattered:
				exts, err = pm.AllocScattered(1+p.u16()%600, policy)
			}
			if errors.Is(err, ErrNoMemory) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, liveAlloc{kind: op, exts: exts})
			// Whatever a previous owner wrote is gone.
			checkRead(Extent{Addr: exts[0].Addr, Len: min(exts[0].Len, uint64(len(buf)))})
		case 3:
			if len(live) == 0 {
				continue
			}
			k := p.u8() % len(live)
			a := live[k]
			live = append(live[:k], live[k+1:]...)
			switch a.kind {
			case allocContig:
				pm.FreeContig(a.exts[0])
			case allocRun:
				pm.FreeRun(a.exts)
			case allocScattered:
				pm.FreeScattered(a.exts)
			}
			ref.drop(a.exts)
		case 4:
			e := target()
			fill := p.u8()
			for i := range buf[:e.Len] {
				buf[i] = byte(fill+i*7) | 1 // never zero: stale bytes must show
			}
			if err := pm.WriteAt(e.Addr, buf[:e.Len]); err != nil {
				t.Fatal(err)
			}
			ref.write(e.Addr, buf[:e.Len])
			// Read back frame by frame: each read resolves its region and
			// chunk afresh, not the way the write's walk reached them.
			for pa := frameFloor(e.Addr); pa < e.End(); pa += PageSize4K {
				checkRead(Extent{Addr: pa, Len: PageSize4K})
			}
		case 5:
			checkRead(target())
		case 6:
			e := target()
			pm.Pin(e)
			ref.pin(e, +1)
			pinned = append(pinned, e)
			checkPins(e)
		case 7:
			if len(pinned) == 0 {
				continue
			}
			k := p.u8() % len(pinned)
			e := pinned[k]
			pinned = append(pinned[:k], pinned[k+1:]...)
			pm.Unpin(e)
			ref.pin(e, -1)
			checkPins(e)
		case 8:
			e := target()
			pm.Discard(e)
			ref.discard(e)
			// Inner frames read zero, the partly covered edge frames keep
			// their bytes, and the pins stay as they were.
			for pa := frameFloor(e.Addr); pa < e.End(); pa += PageSize4K {
				checkRead(Extent{Addr: pa, Len: PageSize4K})
			}
			checkPins(e)
		case 9:
			// Pin or unpin a whole live allocation. Over 2 MB-aligned
			// blocks the pin takes the chunk records' shared count, which
			// a later partial pin splits. The unpin releases the
			// allocation's extents if each is an outstanding pin;
			// otherwise it must panic at the first frame the reference
			// holds unpinned, and what it released before is pinned back.
			if len(live) == 0 {
				continue
			}
			exts := live[p.u8()%len(live)].exts
			if p.u8()&1 == 0 {
				for _, e := range exts {
					pm.Pin(e)
					ref.pin(e, +1)
					checkPins(e)
				}
				pinned = append(pinned, exts...)
				continue
			}
			if rest, ok := withoutEach(pinned, exts); ok {
				pinned = rest
				for _, e := range exts {
					pm.Unpin(e)
					ref.pin(e, -1)
					checkPins(e)
				}
				continue
			}
			var released []Extent
			for _, e := range exts {
				hole := e.End()
				for pa := e.Addr; pa < e.End(); pa += PageSize4K {
					if ref.pins[pa] == 0 {
						hole = pa
						break
					}
				}
				if hole == e.End() {
					pm.Unpin(e)
					released = append(released, e)
					continue
				}
				wantPanic(t, fmt.Sprintf("mem: unpin of unpinned frame %#x", hole), func() { pm.Unpin(e) })
				released = append(released, Extent{Addr: e.Addr, Len: uint64(hole - e.Addr)})
				break
			}
			for _, e := range released {
				if e.Len > 0 {
					pm.Pin(e)
				}
			}
			checkPins(exts[0])
		case 10:
			// Small writes inside one range: sub-sector ones, ones
			// straddling a sector or a frame edge, and enough of them on
			// one frame to back more than half its sectors.
			e := target()
			fill := p.u8()
			for k := 1 + p.u8()%12; k > 0; k-- {
				w := small(e)
				for i := range buf[:w.Len] {
					buf[i] = byte(fill+k+i*7) | 1
				}
				if err := pm.WriteAt(w.Addr, buf[:w.Len]); err != nil {
					t.Fatal(err)
				}
				ref.write(w.Addr, buf[:w.Len])
			}
			for pa := frameFloor(e.Addr); pa < e.End() && pa < e.Addr+2*PageSize4K; pa += PageSize4K {
				checkRead(Extent{Addr: pa, Len: PageSize4K})
			}
		case 11:
			// A small read, often of sectors a backed frame lacks.
			checkRead(small(target()))
		}
	}

	// The snapshot section's backed frames and pin counts are the
	// reference's.
	if got, want := sectionFramesPins(t, pm), ref.encode(); got != want {
		t.Fatalf("snapshot frame/pin lines differ from the reference:\n%s\nvs\n%s", got, want)
	}
	// Every frame record and sector out of its pool backs one of those
	// frames.
	wholes, sparse, sectors := ref.backing()
	for _, c := range []struct {
		name string
		live int64
		want int
	}{
		{"whole frames", pm.wholes.Stats().Live(), wholes},
		{"sparse frames", pm.sparse.Stats().Live(), sparse},
		{"sectors", pm.sectors.Stats().Live(), sectors},
	} {
		if c.live != int64(c.want) {
			t.Fatalf("%d %s out of their pool, the reference backs %d", c.live, c.name, c.want)
		}
	}
	for _, e := range pinned {
		pm.Unpin(e)
	}
	if pm.PinnedFrames() != 0 {
		t.Fatalf("PinnedFrames = %d after every pin was dropped", pm.PinnedFrames())
	}
}

// wantPanic calls fn and fails t unless fn panics with want.
func wantPanic(t testing.TB, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	fn()
}

// withoutEach returns list less one occurrence of each of exts, and
// whether every one was there.
func withoutEach(list, exts []Extent) ([]Extent, bool) {
	rest := slices.Clone(list)
	for _, e := range exts {
		i := slices.Index(rest, e)
		if i < 0 {
			return list, false
		}
		rest = slices.Delete(rest, i, i+1)
	}
	return rest, true
}

// physMemOpSeeds generates the differential test's programs, which are
// also the fuzz target's corpus.
func physMemOpSeeds() [][]byte {
	var progs [][]byte
	for seed := int64(1); seed <= 4; seed++ {
		prog := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(prog)
		progs = append(progs, prog)
	}
	// A discard across a 2 MB chunk boundary: allocate a 4 MB DDR4 block
	// (its middle is a chunk edge), write 12 000 bytes centred on that
	// edge, discard the middle 9 000 and read the write's range back.
	const live, onEdge = 64, 1 // target(): pick live[0], centre on its chunk edge
	progs = append(progs, []byte{
		allocContig, byte(DDROnly), 10,
		4, live, 0, 0, 0xdf, 0x2e, 0, 0, 0, onEdge, 0x11, // n = 12 000
		8, live, 0, 0, 0x27, 0x23, 0, 0, 0, onEdge, // n = 9 000
		5, live, 0, 0, 0xdf, 0x2e, 0, 0, 0, onEdge,
	})
	// A whole-chunk pin count through its four states, on a 4 MB DDR4
	// block (two whole chunks): unpinning it while nothing is pinned
	// panics at a frame with no record; a whole pin takes both chunks'
	// shared count; a 4 KB pin at the start of the second chunk splits
	// its count; the whole unpin drops the first chunk's shared count
	// and the second's per-frame counts; a second whole unpin panics at
	// the first chunk's unpinned shared count.
	const whole, pin, unpin = 9, 0, 1
	progs = append(progs, []byte{
		allocContig, byte(DDROnly), 10,
		whole, 0, unpin,
		whole, 0, pin,
		6, live, 0, 0, 0xff, 0x0f, 0, 0, 0x20, 0, // n = 4096 at offset 2 MB
		whole, 0, unpin,
		whole, 0, unpin,
	})
	// A sparse frame's life on an 8 KB DDR4 block: sub-sector, sector-
	// and frame-straddling small writes back single sectors; 1-byte
	// writes to more than half the second frame's sectors promote it; a
	// small read of a sector the first frame lacks; a discard over the
	// sparse frame and the promoted one; the block read back.
	block := []byte{live, 0, 0, 0xff, 0x1f, 0, 0, 0, 0} // target(): all of live[0]
	// smallAt is small()'s operands for n bytes at sector s of the block,
	// or centred on that sector's start.
	smallAt := func(n, s int, centred bool) []byte {
		k := byte(s * 4)
		if centred {
			k++
		}
		return []byte{byte(n - 1), byte((n - 1) >> 8), k}
	}
	prog := []byte{allocContig, byte(DDROnly), 1}
	prog = append(append(prog, 10), block...)
	prog = append(prog, 0x30, 4) // five writes:
	prog = append(prog, smallAt(1, 0, false)...)
	prog = append(prog, smallAt(100, 0, false)...)
	prog = append(prog, smallAt(200, frameSectors, true)...)   // across the frame edge
	prog = append(prog, smallAt(100, frameSectors+1, true)...) // across a sector edge
	prog = append(prog, smallAt(sectorSize, 0, false)...)
	prog = append(append(prog, 10), block...)
	prog = append(prog, 0x40, frameSectors/2) // one 1-byte write per sector of frame 1 up to more than half
	for s := frameSectors; s <= frameSectors+frameSectors/2; s++ {
		prog = append(prog, smallAt(1, s, false)...)
	}
	prog = append(append(prog, 11), block...)
	prog = append(prog, smallAt(10, frameSectors-2, false)...) // a sector frame 0 lacks
	prog = append(append(prog, 8), block...)
	prog = append(append(prog, 5), block...)
	return append(progs, prog)
}

func TestPhysMemDifferential(t *testing.T) {
	for i, prog := range physMemOpSeeds() {
		t.Run(fmt.Sprintf("seed%d", i+1), func(t *testing.T) { runPhysMemOps(t, prog) })
	}
}

func FuzzPhysMemOps(f *testing.F) {
	for _, prog := range physMemOpSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runPhysMemOps(t, prog) })
}

// TestFrameReuseClears pins the reuse pools' contract: a freed frame's
// sectors and buffer come back on the next first writes that need them,
// and neither a partial first write into a reused sector nor a promotion
// into a reused buffer exposes the previous owner's bytes around it.
func TestFrameReuseClears(t *testing.T) {
	pm := testMem(t)
	alloc := func() Extent {
		t.Helper()
		e, err := pm.AllocContig(PageSize4K, PreferMCDRAM)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	readsAs := func(e Extent, want []byte, what string) {
		t.Helper()
		got := make([]byte, PageSize4K)
		if err := pm.ReadAt(e.Addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal(what)
		}
	}
	write := func(pa PhysAddr, b []byte) {
		t.Helper()
		if err := pm.WriteAt(pa, b); err != nil {
			t.Fatal(err)
		}
	}
	stale := bytes.Repeat([]byte{0xaa}, PageSize4K)

	// A sector: one whole stale sector freed, three bytes written into
	// the reused one.
	e := alloc()
	write(e.Addr, stale[:sectorSize])
	pm.FreeContig(e)
	if freeSectors(pm) != 1 || freeBufs(pm) != 0 {
		t.Fatalf("freed sparse frame pooled %d sectors and %d buffers, want 1 and 0", freeSectors(pm), freeBufs(pm))
	}
	e = alloc()
	readsAs(e, make([]byte, PageSize4K), "reallocated, unwritten frame does not read zero")
	write(e.Addr+100, []byte{1, 2, 3})
	if freeSectors(pm) != 0 {
		t.Fatal("first write did not take the pooled sector")
	}
	want := make([]byte, PageSize4K)
	copy(want[100:], []byte{1, 2, 3})
	readsAs(e, want, "partial first write into a reused sector exposes stale bytes")
	pm.FreeContig(e)

	// A buffer: one whole stale frame freed, then a frame promoted by
	// its ninth backed sector.
	e = alloc()
	write(e.Addr, stale)
	pm.FreeContig(e)
	if freeBufs(pm) != 1 {
		t.Fatalf("freed whole frame not pooled: %d buffers", freeBufs(pm))
	}
	e = alloc()
	want = make([]byte, PageSize4K)
	for s := 0; s <= frameSectors/2; s++ {
		off := s<<sectorShift + 7
		write(e.Addr+PhysAddr(off), []byte{byte(s + 1)})
		want[off] = byte(s + 1)
	}
	if freeBufs(pm) != 0 {
		t.Fatal("promotion did not take the pooled buffer")
	}
	readsAs(e, want, "promotion into a reused buffer exposes stale bytes or loses sectors")
}

// TestDiscardReusesFrames: a discarded frame reads zero while its
// allocation stays live, its buffer comes back on the next write
// anywhere on the node that needs one, and a partial write into it
// exposes no stale bytes. Frames the range covers only in part keep
// theirs, and pins are untouched.
func TestDiscardReusesFrames(t *testing.T) {
	pm := testMem(t)
	e, err := pm.AllocContig(4*PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0xaa}, int(e.Len))
	if err := pm.WriteAt(e.Addr, full); err != nil {
		t.Fatal(err)
	}
	pm.Pin(e)
	// Frames 1 and 2 lie wholly inside; 0 and 3 only in part.
	pm.Discard(Extent{Addr: e.Addr + 100, Len: 3*PageSize4K + 50})
	if freeBufs(pm) != 2 {
		t.Fatalf("Discard pooled %d buffers, want 2", freeBufs(pm))
	}
	if n := pm.PinnedFrames(); n != 4 {
		t.Fatalf("PinnedFrames = %d after Discard, want 4", n)
	}
	got := make([]byte, e.Len)
	if err := pm.ReadAt(e.Addr, got); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(full)
	clear(want[PageSize4K : 3*PageSize4K])
	if !bytes.Equal(got, want) {
		t.Fatal("after Discard: inner frames do not read zero or edge frames lost bytes")
	}
	other, err := pm.AllocContig(PageSize4K, DDROnly)
	if err != nil {
		t.Fatal(err)
	}
	// 2 049 bytes from offset 10 touch more than half the sectors: a
	// buffer.
	part := bytes.Repeat([]byte{1, 2, 3}, 683)
	if err := pm.WriteAt(other.Addr+10, part); err != nil {
		t.Fatal(err)
	}
	if freeBufs(pm) != 1 {
		t.Fatal("first write elsewhere on the node did not take a discarded buffer")
	}
	page, wantPage := make([]byte, PageSize4K), make([]byte, PageSize4K)
	copy(wantPage[10:], part)
	if err := pm.ReadAt(other.Addr, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, wantPage) {
		t.Fatal("partial first write into a discarded buffer exposes stale bytes")
	}
	pm.Unpin(e)
}

// TestAllocScatteredOutOfMemory: the rollback used to hand scatter-pool
// frames to FreeContig, which panics because they are not buddy blocks.
func TestAllocScatteredOutOfMemory(t *testing.T) {
	pm, err := NewPhysMem(Region{Size: 4 << 20, Kind: DDR4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocScattered(2000, PreferMCDRAM); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("AllocScattered beyond the region: err = %v, want ErrNoMemory", err)
	}
	if n := pm.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after the rollback", n)
	}
	if s := sectionFramesPins(t, pm); strings.Contains(s, "frame addr=") {
		t.Fatalf("frames left backed after the rollback:\n%s", s)
	}
	exts, err := pm.AllocScattered(512, PreferMCDRAM)
	if err != nil {
		t.Fatalf("AllocScattered(512) after the rollback: %v", err)
	}
	pm.FreeScattered(exts)
}

func TestPinOutsideRegionsPanics(t *testing.T) {
	pm := testMem(t)
	const hole = PhysAddr(1<<30 + 8<<20) // one past the MCDRAM region
	wantPanic(t, fmt.Sprintf("mem: pin of frame %#x outside every region", hole), func() {
		pm.Pin(Extent{Addr: hole - PageSize4K, Len: 2 * PageSize4K})
	})
}

// TestFrameTableSteadyStateAllocs gates the data path's allocations once
// the chunk records and the frame pool are warm.
func TestFrameTableSteadyStateAllocs(t *testing.T) {
	const size = 4 << 20
	pm, err := NewPhysMem(Region{Size: 64 << 20, Kind: MCDRAM})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := pm.AllocContig(size, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	page := bytes.Repeat([]byte{0x5a}, PageSize4K)
	rows := []struct {
		name string
		want float64
		f    func()
	}{
		{"Pin+Unpin 4 MB", 0, func() {
			pm.Pin(ext)
			pm.Unpin(ext)
		}},
		{"WriteAt+ReadAt 64 KB resident", 0, func() {
			if pm.WriteAt(ext.Addr+100, buf) != nil || pm.ReadAt(ext.Addr+100, buf) != nil {
				t.Fatal("access failed")
			}
		}},
		// Sectors and frame records come back to their pools on Discard.
		{"device ring: status words, 1 KB slot, discard", 0, func() { deviceRing(pm, ext.Addr, ext.Addr+PageSize2M, buf[:1<<10]) }},
		// One allocation is AllocScattered's extent list; the 1024 frame
		// buffers come out of the reuse pool.
		{"scattered 4 MB: alloc, write, free", 1, func() {
			exts, err := pm.AllocScattered(size/PageSize4K, PreferMCDRAM)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range exts {
				if pm.WriteAt(e.Addr, page) != nil {
					t.Fatal("write failed")
				}
			}
			pm.FreeScattered(exts)
		}},
	}
	for _, r := range rows {
		r.f() // first round: chunk records, frames, pool growth
		if got := testing.AllocsPerRun(10, r.f); got != r.want {
			t.Errorf("%s: %v allocs per round, want %v", r.name, got, r.want)
		}
	}
}

// TestFrameTableFootprint pins what a chunk record and a frame cost for
// what a run does to them. Allocations are counted per 2 MB chunk of an
// 8 MB extent, one fresh chunk per run: pinning a chunk whole at mmap,
// as McKernel does, allocates the chunk record and no per-frame array;
// its first write one frame-slot array; a 4 KB pin inside it one
// per-frame pin array. Frame backing comes out of pools that are warm by
// then, and is counted there: a 1-byte first write takes one sparse
// frame record and one sector, a write of a whole frame one whole
// frame's record with its 4 KB buffer. Both are PhysMem's own counts,
// which nothing else in the process moves, and each form's bytes are
// its records' sizes.
func TestFrameTableFootprint(t *testing.T) {
	pm, err := NewPhysMem(Region{Size: 64 << 20, Kind: MCDRAM})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := pm.AllocContig(8<<20, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Addr%PageSize2M != 0 {
		t.Fatalf("extent %#x not 2 MB-aligned", ext.Addr)
	}
	const chunks = 8 << 20 / PageSize2M
	write := func(pa PhysAddr, b []byte) {
		if pm.WriteAt(pa, b) != nil {
			t.Fatal("write failed")
		}
	}
	// Warm the pools with chunks frames' worth of records, buffers and
	// sectors, from a scratch extent.
	scratch, err := pm.AllocContig(chunks*PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize4K)
	for i := range chunks {
		write(scratch.Addr+PhysAddr(i)*PageSize4K, page[:1])
	}
	pm.Discard(scratch)
	for i := range chunks {
		write(scratch.Addr+PhysAddr(i)*PageSize4K, page)
	}
	pm.Discard(scratch)

	// perChunk runs fn on each chunk of ext in turn (AllocsPerRun's
	// warm-up call included) and returns the allocations per chunk.
	perChunk := func(fn func(base PhysAddr)) float64 {
		i := 0
		return testing.AllocsPerRun(chunks-1, func() {
			fn(ext.Addr + PhysAddr(i)*PageSize2M)
			i++
		})
	}
	gets := func() [3]uint64 {
		return [3]uint64{pm.wholes.Stats().Gets, pm.sparse.Stats().Gets, pm.sectors.Stats().Gets}
	}
	for _, r := range []struct {
		name   string
		allocs float64
		gets   [3]uint64 // whole frames, sparse frames, sectors per chunk
		fn     func(base PhysAddr)
	}{
		{"whole pin", 1, [3]uint64{}, func(base PhysAddr) {
			pm.Pin(Extent{Addr: base, Len: PageSize2M})
		}},
		{"first 1-byte write", 1, [3]uint64{0, 1, 1}, func(base PhysAddr) {
			write(base+PageSize4K+5, page[:1])
		}},
		{"4 KB pin inside", 1, [3]uint64{}, func(base PhysAddr) {
			pm.Pin(Extent{Addr: base + 7*PageSize4K, Len: PageSize4K})
		}},
		{"whole-frame write", 0, [3]uint64{1, 0, 0}, func(base PhysAddr) {
			write(base+3*PageSize4K, page)
		}},
	} {
		before := gets()
		if got := perChunk(r.fn); got != r.allocs {
			t.Errorf("%s: %v allocations per chunk, want %v", r.name, got, r.allocs)
		}
		after := gets()
		for k := range after {
			if got := (after[k] - before[k]) / chunks; got != r.gets[k] || (after[k]-before[k])%chunks != 0 {
				t.Errorf("%s: %d %s per chunk, want %d", r.name, got, []string{"whole frames", "sparse frames", "sectors"}[k], r.gets[k])
			}
		}
	}
	// The two forms' bytes, and the record blocks they are carved from.
	if got := sectorSize + unsafe.Sizeof(frame{}); got != 1064 {
		t.Errorf("a frame written in one sector backs %d bytes, want 1064", got)
	}
	if got := PageSize4K + unsafe.Sizeof(frame{}); got != 4136 {
		t.Errorf("a whole frame backs %d bytes, want 4136", got)
	}
	if b := uintptr(frameBlock) * unsafe.Sizeof(frame{}); b+8 > PageSize4K || b+unsafe.Sizeof(frame{})+8 <= PageSize4K {
		t.Errorf("a block of %d frame records is %d bytes; it should fill 4 KB less the 8-byte malloc header", frameBlock, b)
	}
	if n := pm.PinnedFrames(); n != int(ext.Len/PageSize4K) {
		t.Errorf("PinnedFrames = %d, want %d", n, ext.Len/PageSize4K)
	}
	for i := range chunks {
		base := ext.Addr + PhysAddr(i)*PageSize2M
		pm.Unpin(Extent{Addr: base + 7*PageSize4K, Len: PageSize4K})
		pm.Unpin(Extent{Addr: base, Len: PageSize2M})
	}
	if n := pm.PinnedFrames(); n != 0 {
		t.Errorf("PinnedFrames = %d after every pin was dropped", n)
	}
}

func BenchmarkPinUnpin4M(b *testing.B) {
	pm, _ := NewPhysMem(Region{Size: 64 << 20, Kind: MCDRAM})
	ext, err := pm.AllocContig(4<<20, PreferMCDRAM)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Pin(ext)
		pm.Unpin(ext)
	}
}

func BenchmarkAccess64K(b *testing.B) {
	pm, _ := NewPhysMem(Region{Size: 64 << 20, Kind: MCDRAM})
	ext, err := pm.AllocContig(4<<20, PreferMCDRAM)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	b.SetBytes(2 * int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pm.WriteAt(ext.Addr, buf) != nil || pm.ReadAt(ext.Addr, buf) != nil {
			b.Fatal("access failed")
		}
	}
}

// deviceRing is one round of a NIC's ring traffic: six 8-byte status
// words written and read back, as header-queue and completion entries
// are, then payload written into an 8 KB slot at slot, read back, and
// the slot handed back with Discard.
func deviceRing(pm *PhysMem, status, slot PhysAddr, payload []byte) {
	for w := PhysAddr(0); w < 6; w++ {
		if pm.WriteU64(status+8*w, uint64(w)) != nil {
			panic("status write failed")
		}
		if _, err := pm.ReadU64(status + 8*w); err != nil {
			panic(err)
		}
	}
	if pm.WriteAt(slot, payload) != nil || pm.ReadAt(slot, payload) != nil {
		panic("slot access failed")
	}
	pm.Discard(Extent{Addr: slot, Len: 8 << 10})
}

// BenchmarkDeviceRing times deviceRing: the small-access pattern of the
// NIC's eager slots and status words, where frames stay sparse.
func BenchmarkDeviceRing(b *testing.B) {
	pm, _ := NewPhysMem(Region{Size: 64 << 20, Kind: MCDRAM})
	ext, err := pm.AllocContig(16<<10, PreferMCDRAM)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deviceRing(pm, ext.Addr, ext.Addr+8<<10, payload)
	}
}

// pinnedAt reports whether the 4K frame containing pa is pinned.
func pinnedAt(pm *PhysMem, pa PhysAddr) bool {
	w := pm.walk(Extent{Addr: pa, Len: 1})
	var r frameRun
	return w.next(&r) && r.c.pinCount(r.lo) > 0
}

// freeBufs and freeSectors return the number of whole frames' buffers
// and of sectors on pm's free lists.
func freeBufs(pm *PhysMem) int    { return free(pm.wholes.Stats()) }
func freeSectors(pm *PhysMem) int { return free(pm.sectors.Stats()) }

func free(st pool.Stats) int { return int(st.Puts - st.Hits) }
