package mem

import "unsafe"

// Frame contents and pin counts live in a lazily populated table per
// region: a directory with one entry per 128 MB of the region, sized at
// construction, whose groups of 64 chunk records are allocated on
// demand. A chunk record covers 2 MB and holds one pin count shared by
// the chunk's 512 frames (pinning a whole chunk, as McKernel does to its
// large-page runs at mmap, needs no more), its frame slots from its
// first write, and per-frame pin counts from the first pin or unpin
// covering it in part. A written frame keeps only the 1 KB sectors
// written so far until more than half of them are, and then one 4 KB
// buffer (see frame). Host memory therefore follows what a run writes,
// down to the sector: most frames of a run's control structures
// (eager-slot payloads, header-queue entries, TID lists, kernel
// objects) hold one small record. A flat per-frame array is not an
// option: a node is 16 GiB + 96 GiB, 28 M frames, and the scaling
// experiments build up to 1024 nodes in one process.

// chunkFrames is the number of 4K frames one chunk record covers.
const chunkFrames = PageSize2M / PageSize4K

// groupChunks is the number of chunk records in one directory group,
// groupBytes the bytes of region they cover. The directory's length
// depends on the region alone, so two histories that leave the same
// contents leave the same table shape.
const (
	groupChunks = 64
	groupBytes  = groupChunks * PageSize2M
)

type chunkGroup [groupChunks]*chunk

// A frame's sectors: sectorSize bytes each, frameSectors of them. At
// 1 KB, a status word, a header-queue entry and an eager slot's payload
// of up to 1 KB each fall in one sector, the straight path of access
// (frame.span); smaller sectors would hold one-line frames in less
// memory but split those accesses into several copies and pool trips.
const (
	sectorShift  = 10
	sectorSize   = 1 << sectorShift
	sectorMask   = sectorSize - 1
	frameSectors = PageSize4K / sectorSize
)

type (
	frameBuf = [PageSize4K]byte
	sector   = [sectorSize]byte
)

// frame is the backing of one written frame. A whole frame keeps its
// bytes in buf; a sparse one keeps each sector it has written in
// sectors, backed on that sector's first write, and its other sectors
// read as zero. A frame is whole exactly when more than half its
// sectors have been backed (a write of the whole frame backs them all),
// so which form it takes depends on the set of sectors written, never
// on the order or the split of the writes.
type frame struct {
	buf     *frameBuf
	sectors [frameSectors]*sector
}

type chunk struct {
	pin    uint32               // every frame's pin count while pins is nil, then 0
	frames *[chunkFrames]*frame // nil until the chunk is first written
	pins   *[chunkFrames]uint32 // nil until a pin or unpin covers part of the chunk
}

// pinArray returns the chunk's per-frame pin counts, splitting the shared
// count into them on first use. The shared count is cleared, so the
// snapshot does not print a count nothing reads any more.
func (c *chunk) pinArray() *[chunkFrames]uint32 {
	if c.pins == nil {
		c.pins = new([chunkFrames]uint32)
		for i := range c.pins {
			c.pins[i] = c.pin
		}
		c.pin = 0
	}
	return c.pins
}

// pinCount returns the pin count of a slot; a nil record has none.
func (c *chunk) pinCount(slot int) uint32 {
	if c == nil {
		return 0
	}
	if c.pins != nil {
		return c.pins[slot]
	}
	return c.pin
}

// frameRun is a run of consecutive frames that share a chunk record.
type frameRun struct {
	rs *regionState
	ci int    // chunk number within rs
	c  *chunk // nil while nothing in the chunk was ever written or pinned
	// lo and hi bound the run's slots within the chunk.
	lo, hi int
}

// whole reports whether the run covers every frame of its chunk.
func (r *frameRun) whole() bool { return r.lo == 0 && r.hi == chunkFrames }

// chunk returns the run's chunk record, creating it on first use.
func (r *frameRun) chunk() *chunk {
	if r.c == nil {
		r.c = r.rs.newChunk(r.ci)
	}
	return r.c
}

// chunkAt returns chunk ci's record, nil while it has none.
func (rs *regionState) chunkAt(ci int) *chunk {
	if g := rs.chunks[ci/groupChunks]; g != nil {
		return g[ci%groupChunks]
	}
	return nil
}

// newChunk creates chunk ci's record, and its directory group if the
// group has none yet.
func (rs *regionState) newChunk(ci int) *chunk {
	g := rs.chunks[ci/groupChunks]
	if g == nil {
		g = new(chunkGroup)
		rs.chunks[ci/groupChunks] = g
	}
	c := new(chunk)
	g[ci%groupChunks] = c
	return c
}

// frameWalk yields the frames of [pa, end), both 4K-aligned, as runs in
// ascending order. The region is resolved once per region crossed and
// the chunk once per 2 MB, so per-frame work is index arithmetic.
type frameWalk struct {
	pm      *PhysMem
	pa, end PhysAddr
	rs      *regionState
}

// walk covers every frame the extent overlaps.
func (pm *PhysMem) walk(e Extent) frameWalk {
	return frameWalk{pm: pm, pa: frameFloor(e.Addr), end: frameCeil(e.End())}
}

// next fills r with the following run and reports whether there is one.
// It stops early, leaving w.pa < w.end, at the first frame no region
// contains. Pin, Unpin and dropFrames walk this way; byte access
// resolves frame by frame instead (PhysMem.access).
func (w *frameWalk) next(r *frameRun) bool {
	if w.pa >= w.end {
		return false
	}
	rs := w.rs
	if rs == nil || w.pa >= rs.End() {
		if rs = w.pm.regionOf(w.pa); rs == nil {
			return false
		}
		w.rs = rs
	}
	stop := w.end
	if stop > rs.End() {
		stop = frameCeil(rs.End()) // an MMIO window need not end on a frame
	}
	idx := uint64(w.pa-rs.Base) >> PageShift4K
	*r = frameRun{rs: rs, ci: int(idx / chunkFrames), lo: int(idx % chunkFrames)}
	r.hi = r.lo + int((stop-w.pa)>>PageShift4K)
	if r.hi > chunkFrames {
		r.hi = chunkFrames
	}
	r.c = rs.chunkAt(r.ci)
	w.pa += PhysAddr(r.hi-r.lo) << PageShift4K
	return true
}

// carve returns a pool's newRec that hands out records n at a time from
// one allocation, so a pool of small records grows by one malloc per n.
func carve[T any](n int) func() *T {
	var block []T
	return func() *T {
		if len(block) == 0 {
			block = make([]T, n)
		}
		x := &block[0]
		block = block[1:]
		return x
	}
}

// Records per carved block: 4 KB of sectors, and as many frame records
// as fit 4 KB beside the runtime's 8-byte malloc header.
const (
	sectorBlock = PageSize4K / sectorSize
	frameBlock  = int((PageSize4K - 8) / unsafe.Sizeof(frame{}))
)

// back backs what a write of bytes [lo, hi) of sparse frame f needs:
// each sector it touches that f lacks, or, once more than half of f's
// sectors would be backed, one buffer that takes over the sectors'
// bytes (taken from a whole frame's record, which goes to the sparse
// pool). A freed sector or buffer still holds its previous owner's
// bytes; it is cleared unless the write covers all of it.
func (pm *PhysMem) back(f *frame, lo, hi int) {
	s0, s1 := lo>>sectorShift, (hi-1)>>sectorShift
	n := s1 - s0 + 1
	for s, sec := range &f.sectors {
		if sec != nil && (s < s0 || s > s1) {
			n++
		}
	}
	if n <= frameSectors/2 {
		for s := s0; s <= s1; s++ {
			if f.sectors[s] == nil {
				sec := pm.sectors.Get()
				if lo > s<<sectorShift || hi < (s+1)<<sectorShift {
					clear(sec[:])
				}
				f.sectors[s] = sec
			}
		}
		return
	}
	whole := lo == 0 && hi == PageSize4K
	w := pm.wholes.Get()
	f.buf, w.buf = w.buf, nil
	pm.sparse.Put(w)
	if !whole {
		clear(f.buf[:])
	}
	for s, sec := range &f.sectors {
		if sec != nil {
			if !whole {
				copy(f.buf[s<<sectorShift:], sec[:])
			}
			pm.sectors.Put(sec)
			f.sectors[s] = nil
		}
	}
}

// dropFrames releases the backing of every frame of a freed extent.
func (pm *PhysMem) dropFrames(e Extent) {
	w := pm.walk(e)
	var r frameRun
	for w.next(&r) {
		if r.c == nil || r.c.frames == nil {
			continue
		}
		for i := r.lo; i < r.hi; i++ {
			if f := r.c.frames[i]; f != nil {
				r.c.frames[i] = nil
				pm.dropFrame(f)
			}
		}
	}
}

// dropFrame hands f back to its pool: a whole frame with its buffer, a
// sparse one emptied, its sectors to theirs.
func (pm *PhysMem) dropFrame(f *frame) {
	if f.buf != nil {
		pm.wholes.Put(f)
		return
	}
	for s, sec := range &f.sectors {
		if sec != nil {
			pm.sectors.Put(sec)
			f.sectors[s] = nil
		}
	}
	pm.sparse.Put(f)
}
