package mem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// encode renders the frame and pin lines the way the map-backed
// EncodeState did: collect the keys, sort, print.
func (r *refMem) encode() string {
	var b strings.Builder
	addrs := make([]PhysAddr, 0, len(r.frames))
	for a := range r.frames {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		sum := sha256.Sum256(r.frames[a][:])
		fmt.Fprintf(&b, "frame addr=%x content=%x\n", uint64(a), sum[:8])
	}
	addrs = addrs[:0]
	for a := range r.pins {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&b, "pin addr=%x count=%d\n", uint64(a), r.pins[a])
	}
	return b.String()
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
// reads and writes, nested pins and frees over a two-region node, and
// checks PhysMem step by step against refMem.
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
			if got, want := pm.Pinned(pa), ref.pins[frameFloor(pa)] > 0; got != want {
				t.Fatalf("Pinned(%#x) = %v, reference %v", pa, got, want)
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
		switch op := p.u8() % 8; op {
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
				exts, err = pm.AllocRun(1+p.u16()%700, policy)
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
		}
	}

	// The snapshot section's frame and pin lines are the reference's.
	var lines strings.Builder
	for _, l := range strings.SplitAfter(string(encodeState(pm)), "\n") {
		if strings.HasPrefix(l, "frame ") || strings.HasPrefix(l, "pin ") {
			lines.WriteString(l)
		}
	}
	if got, want := lines.String(), ref.encode(); got != want {
		t.Fatalf("EncodeState frame/pin lines differ from the reference:\n%s\nvs\n%s", got, want)
	}
	for _, e := range pinned {
		pm.Unpin(e)
	}
	if pm.PinnedFrames() != 0 {
		t.Fatalf("PinnedFrames = %d after every pin was dropped", pm.PinnedFrames())
	}
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
	if len(pm.freeFrames) != 1 {
		t.Fatalf("freed frame not pooled: %d buffers", len(pm.freeFrames))
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
	if len(pm.freeFrames) != 0 {
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
	if s := string(encodeState(pm)); strings.Contains(s, "frame addr=") {
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
	defer func() {
		want := fmt.Sprintf("mem: pin of frame %#x outside every region", hole)
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	pm.Pin(Extent{Addr: hole - PageSize4K, Len: 2 * PageSize4K})
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
