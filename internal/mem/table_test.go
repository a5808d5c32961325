package mem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refMem is the map-backed frame and pin state PhysMem kept before the
// chunk table, reduced to what the differential driver needs: the table
// must be indistinguishable from it through the public API.
type refMem struct {
	frames map[PhysAddr]*[PageSize4K]byte
	pins   map[PhysAddr]int
}

func newRefMem() *refMem {
	return &refMem{frames: map[PhysAddr]*[PageSize4K]byte{}, pins: map[PhysAddr]int{}}
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

func (r *refMem) drop(exts []Extent) {
	for _, e := range exts {
		for pa := e.Addr; pa < e.End(); pa += PageSize4K {
			delete(r.frames, pa)
		}
	}
}

// discard forgets the frames lying wholly inside e.
func (r *refMem) discard(e Extent) {
	for pa := frameCeil(e.Addr); pa+PageSize4K <= e.End(); pa += PageSize4K {
		delete(r.frames, pa)
	}
}

// encode renders the reference's backed frames and pin counts as
// renderFramesPins does.
func (r *refMem) encode() string {
	contents := make(map[PhysAddr]string, len(r.frames))
	for a, f := range r.frames {
		sum := sha256.Sum256(f[:])
		contents[a] = fmt.Sprintf("%d:%x", PageSize4K, sum[:8])
	}
	return renderFramesPins(contents, r.pins)
}

// renderFramesPins prints one "frame" line per backed frame, then one
// "pin" line per pinned frame, each in address order.
func renderFramesPins(contents map[PhysAddr]string, pins map[PhysAddr]int) string {
	var b strings.Builder
	for _, a := range slices.Sorted(maps.Keys(contents)) {
		fmt.Fprintf(&b, "frame addr=%x content=%s\n", uint64(a), contents[a])
	}
	for _, a := range slices.Sorted(maps.Keys(pins)) {
		fmt.Fprintf(&b, "pin addr=%x count=%d\n", uint64(a), pins[a])
	}
	return b.String()
}

// chunkLine matches a line the mem section prints under a chunk record:
// a backed frame, the shared pin count or a per-frame pin count.
var chunkLine = regexp.MustCompile(`^regions\[(\d+)\]\.chunks\[(\d+)\]\[(\d+)\]\.(?:frames\[(\d+)\]=(\S+)|pin=(\d+)|pins\[(\d+)\]=(\d+))$`)

// sectionFramesPins reads pm's backed frames and pin counts out of its
// snapshot section and renders them as renderFramesPins does. A shared
// count stands for each frame of its chunk; a chunk that prints one
// beside per-frame counts, or any other line under a chunk, fails t.
func sectionFramesPins(t testing.TB, pm *PhysMem) string {
	t.Helper()
	contents := map[PhysAddr]string{}
	pins := map[PhysAddr]int{}
	shared, split := map[PhysAddr]bool{}, map[PhysAddr]bool{}
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
		case m[4] != "":
			contents[base+PhysAddr(num(4))<<PageShift4K] = m[5]
		case m[6] != "":
			shared[base] = true
			for i := 0; i < chunkFrames; i++ {
				pins[base+PhysAddr(i)<<PageShift4K] = num(6)
			}
		default:
			split[base] = true
			pins[base+PhysAddr(num(7))<<PageShift4K] = num(8)
		}
	}
	for base := range shared {
		if split[base] {
			t.Fatalf("chunk %#x prints a shared pin count beside per-frame counts", uint64(base))
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
// reads and writes, nested pins, pins and unpins of whole allocations,
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

	for step := 0; !p.done; step++ {
		switch op := p.u8() % 10; op {
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
		}
	}

	// The snapshot section's backed frames and pin counts are the
	// reference's.
	if got, want := sectionFramesPins(t, pm), ref.encode(); got != want {
		t.Fatalf("snapshot frame/pin lines differ from the reference:\n%s\nvs\n%s", got, want)
	}
	// Every buffer out of the frame pool backs one of those frames.
	if live := pm.frames.Stats().Live(); live != int64(len(ref.frames)) {
		t.Fatalf("%d frame buffers out of the pool, %d frames backed", live, len(ref.frames))
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
	return progs
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

// TestFrameReuseClears pins the reuse pool's contract: a freed frame's
// buffer comes back on the next first write, and a partial first write
// must not expose the previous owner's bytes around it.
func TestFrameReuseClears(t *testing.T) {
	pm := testMem(t)
	e, err := pm.AllocContig(PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.WriteAt(e.Addr, bytes.Repeat([]byte{0xaa}, PageSize4K)); err != nil {
		t.Fatal(err)
	}
	pm.FreeContig(e)
	if freeFrames(pm) != 1 {
		t.Fatalf("freed frame not pooled: %d buffers", freeFrames(pm))
	}
	e, err = pm.AllocContig(PageSize4K, PreferMCDRAM)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize4K)
	if err := pm.ReadAt(e.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize4K)) {
		t.Fatal("reallocated, unwritten frame does not read zero")
	}
	if err := pm.WriteAt(e.Addr+100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if freeFrames(pm) != 0 {
		t.Fatal("first write did not take the pooled buffer")
	}
	want := make([]byte, PageSize4K)
	copy(want[100:], []byte{1, 2, 3})
	if err := pm.ReadAt(e.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("partial first write into a reused buffer exposes stale bytes")
	}
}

// TestDiscardReusesFrames: a discarded frame reads zero while its
// allocation stays live, its buffer comes back on the next first write
// anywhere on the node, and a partial write into it exposes no stale
// bytes. Frames the range covers only in part keep theirs, and pins are
// untouched.
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
	if freeFrames(pm) != 2 {
		t.Fatalf("Discard pooled %d buffers, want 2", freeFrames(pm))
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
	if err := pm.WriteAt(other.Addr+10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if freeFrames(pm) != 1 {
		t.Fatal("first write elsewhere on the node did not take a discarded buffer")
	}
	page, wantPage := make([]byte, PageSize4K), make([]byte, PageSize4K)
	copy(wantPage[10:], []byte{1, 2, 3})
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

var footprintSink any

// TestFrameTableFootprint pins what a chunk record costs for what a run
// does to it, counted in heap bytes: pinning a whole 2 MB-aligned extent
// at mmap, as McKernel does, allocates no per-frame array; the first
// write allocates one frame-pointer array and one frame; a 4 KB pin
// inside the extent allocates one per-frame pin array.
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
	heapBytes := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// What the runtime charges for each array, malloc header and size
	// class included.
	pinArray := heapBytes(func() { footprintSink = new([chunkFrames]uint32) })
	frameArray := heapBytes(func() { footprintSink = new([chunkFrames]*frame) })
	oneFrame := heapBytes(func() { footprintSink = new(frame) })

	if got := heapBytes(func() { pm.Pin(ext) }); got >= pinArray {
		t.Errorf("pinning 8 MB whole: %d heap bytes, want fewer than one %d-byte pin array", got, pinArray)
	}
	b := []byte{1}
	if got := heapBytes(func() {
		if pm.WriteAt(ext.Addr+PageSize2M+5, b) != nil {
			t.Fatal("write failed")
		}
	}); got != frameArray+oneFrame {
		t.Errorf("first 1-byte write: %d heap bytes, want %d (one frame-pointer array and one frame)", got, frameArray+oneFrame)
	}
	inner := Extent{Addr: ext.Addr + 3*PageSize2M + 7*PageSize4K, Len: PageSize4K}
	if got := heapBytes(func() { pm.Pin(inner) }); got != pinArray {
		t.Errorf("4 KB pin inside the extent: %d heap bytes, want %d (one pin array)", got, pinArray)
	}
	if n := pm.PinnedFrames(); n != int(ext.Len/PageSize4K) {
		t.Errorf("PinnedFrames = %d, want %d", n, ext.Len/PageSize4K)
	}
	pm.Unpin(inner)
	pm.Unpin(ext)
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

// pinnedAt reports whether the 4K frame containing pa is pinned.
func pinnedAt(pm *PhysMem, pa PhysAddr) bool {
	w := pm.walk(Extent{Addr: pa, Len: 1})
	var r frameRun
	return w.next(&r) && r.c.pinCount(r.lo) > 0
}

// freeFrames returns the number of buffers in pm's frame pool.
func freeFrames(pm *PhysMem) int {
	st := pm.frames.Stats()
	return int(st.Puts - st.Hits)
}
