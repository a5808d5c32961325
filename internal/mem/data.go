package mem

import (
	"encoding/binary"
	"fmt"
)

// ReadAt copies len(buf) bytes starting at physical address pa into buf.
// Unwritten frames read as zero. Reading MMIO or unmapped addresses is an
// error: device windows are handled by their device models.
func (pm *PhysMem) ReadAt(pa PhysAddr, buf []byte) error {
	return pm.access(pa, buf, false)
}

// WriteAt copies buf into physical memory starting at pa, backing frames
// on first write.
func (pm *PhysMem) WriteAt(pa PhysAddr, buf []byte) error {
	return pm.access(pa, buf, true)
}

// access copies frame by frame. The region is resolved once per region
// crossed and each frame by index (directory group, chunk, slot), with
// no run bookkeeping between them.
func (pm *PhysMem) access(pa PhysAddr, buf []byte, write bool) error {
	var rs *regionState
	for len(buf) > 0 {
		if rs == nil || pa >= rs.End() {
			if rs = pm.regionOf(pa); rs == nil {
				return fmt.Errorf("mem: access to unmapped physical address %#x", pa)
			}
			if rs.Kind == MMIO {
				return fmt.Errorf("mem: byte access to MMIO window %#x", pa)
			}
		}
		idx := uint64(pa-rs.Base) >> PageShift4K
		ci, slot := int(idx/chunkFrames), int(idx%chunkFrames)
		c := rs.chunkAt(ci)
		var f *frame
		if c != nil && c.frames != nil {
			f = c.frames[slot]
		}
		inFrame := int(pa & (PageSize4K - 1))
		n := min(PageSize4K-inFrame, len(buf))
		switch {
		case write:
			if f == nil {
				if c == nil {
					c = rs.newChunk(ci)
				}
				if c.frames == nil {
					c.frames = new([chunkFrames]*frame)
				}
				f = pm.takeFrame(n == PageSize4K)
				c.frames[slot] = f
			}
			copy(f[inFrame:inFrame+n], buf[:n])
		case f == nil:
			clear(buf[:n])
		default:
			copy(buf[:n], f[inFrame:inFrame+n])
		}
		buf = buf[n:]
		pa += PhysAddr(n)
	}
	return nil
}

// ReadU64 reads a little-endian uint64 at pa.
func (pm *PhysMem) ReadU64(pa PhysAddr) (uint64, error) {
	var b [8]byte
	if err := pm.ReadAt(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 at pa.
func (pm *PhysMem) WriteU64(pa PhysAddr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return pm.WriteAt(pa, b[:])
}

// Pin increments the pin count of every 4K frame overlapping the extent,
// as get_user_pages does. Pinned frames must not be freed. Pin panics
// when a frame lies in no region: every caller pins extents that came
// out of a page walk over allocated memory, so that is a bug, and there
// is no table to hold such a count.
func (pm *PhysMem) Pin(e Extent) {
	w := pm.walk(e)
	var r frameRun
	for w.next(&r) {
		c := r.chunk()
		if r.whole() && c.pins == nil {
			if c.pin++; c.pin == 1 {
				pm.pinned += chunkFrames
			}
			continue
		}
		pins := c.pinArray()
		for i := r.lo; i < r.hi; i++ {
			if pins[i]++; pins[i] == 1 {
				pm.pinned++
			}
		}
	}
	if w.pa < w.end {
		panic(fmt.Sprintf("mem: pin of frame %#x outside every region", w.pa))
	}
}

// Unpin decrements pin counts; it panics on unbalanced unpins.
func (pm *PhysMem) Unpin(e Extent) {
	w := pm.walk(e)
	var r frameRun
	for w.next(&r) {
		if r.c.pinCount(r.lo) == 0 {
			panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", r.rs.Base+PhysAddr(r.ci*chunkFrames+r.lo)<<PageShift4K))
		}
		if r.whole() && r.c.pins == nil {
			if r.c.pin--; r.c.pin == 0 {
				pm.pinned -= chunkFrames
			}
			continue
		}
		pins := r.c.pinArray()
		for i := r.lo; i < r.hi; i++ {
			if pins[i] == 0 {
				panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", r.rs.Base+PhysAddr(r.ci*chunkFrames+i)<<PageShift4K))
			}
			if pins[i]--; pins[i] == 0 {
				pm.pinned--
			}
		}
	}
	if w.pa < w.end {
		panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", w.pa))
	}
}

// PinnedFrames returns the number of distinct pinned frames.
func (pm *PhysMem) PinnedFrames() int { return pm.pinned }

// Discard drops the backing of every 4K frame lying wholly inside e, as
// a device does with buffer slots it has handed back: the frames read as
// zero until written again, and their buffers serve the next first
// write anywhere on the node. Frames e covers only in part keep their
// bytes. Pin counts are untouched.
func (pm *PhysMem) Discard(e Extent) {
	lo, hi := frameCeil(e.Addr), frameFloor(e.End())
	if lo < hi {
		pm.dropFrames(Extent{Addr: lo, Len: uint64(hi - lo)})
	}
}

// frameFloor rounds pa down to its 4K frame base.
func frameFloor(pa PhysAddr) PhysAddr { return pa &^ (PageSize4K - 1) }

// frameCeil rounds pa up to the next 4K frame boundary.
func frameCeil(pa PhysAddr) PhysAddr { return (pa + PageSize4K - 1) &^ (PageSize4K - 1) }
