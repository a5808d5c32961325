package mem

// Frame contents and pin counts live in a lazily populated two-level
// table per region: a directory indexed by region-relative 2 MB chunk
// number, grown on demand, whose records hold the chunk's 512 frame
// pointers and 512 pin counts side by side. Host memory is therefore
// proportional to the chunks a run touches. A flat per-frame array is
// not an option: a node is 16 GiB + 96 GiB, 28 M frames, and the scaling
// experiments build up to 1024 nodes in one process.

// chunkFrames is the number of 4K frames one chunk record covers.
const chunkFrames = PageSize2M / PageSize4K

type frame = [PageSize4K]byte

type chunk struct {
	frames [chunkFrames]*frame // nil until first written
	pins   [chunkFrames]uint32
}

// frameRun is a run of consecutive frames that share a chunk record.
type frameRun struct {
	rs *regionState
	ci int    // chunk number within rs
	c  *chunk // nil while nothing in the chunk was ever written or pinned
	// lo and hi bound the run's slots within the chunk.
	lo, hi int
}

// chunk returns the run's chunk record, creating it on first use.
func (r *frameRun) chunk() *chunk {
	if r.c == nil {
		rs := r.rs
		if r.ci >= len(rs.chunks) {
			rs.chunks = append(rs.chunks, make([]*chunk, r.ci+1-len(rs.chunks))...)
		}
		r.c = new(chunk)
		rs.chunks[r.ci] = r.c
	}
	return r.c
}

// frameAddr returns the address of a chunk's slot.
func (rs *regionState) frameAddr(ci, slot int) PhysAddr {
	return rs.Base + PhysAddr(ci*chunkFrames+slot)<<PageShift4K
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
// contains. The run is filled in place because returning it by value
// doubled the cost of a single-frame access (PIO-sized messages).
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
	if r.ci < len(rs.chunks) {
		r.c = rs.chunks[r.ci]
	}
	w.pa += PhysAddr(r.hi-r.lo) << PageShift4K
	return true
}

// takeFrame returns backing for a frame about to be written, reusing a
// freed buffer when one is available. A reused buffer still holds its
// previous owner's bytes; it is cleared unless the first write covers
// the whole frame.
func (pm *PhysMem) takeFrame(whole bool) *frame {
	n := len(pm.freeFrames)
	if n == 0 {
		return new(frame)
	}
	f := pm.freeFrames[n-1]
	pm.freeFrames[n-1] = nil
	pm.freeFrames = pm.freeFrames[:n-1]
	if !whole {
		clear(f[:])
	}
	return f
}

// dropFrames releases the backing of every frame of a freed extent.
func (pm *PhysMem) dropFrames(e Extent) {
	w := pm.walk(e)
	var r frameRun
	for w.next(&r) {
		if r.c == nil {
			continue
		}
		for i := r.lo; i < r.hi; i++ {
			if f := r.c.frames[i]; f != nil {
				r.c.frames[i] = nil
				pm.freeFrames = append(pm.freeFrames, f)
			}
		}
	}
}
