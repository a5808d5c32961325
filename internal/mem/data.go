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

// WriteAt copies buf into physical memory starting at pa, backing each
// sector or frame on its first write.
func (pm *PhysMem) WriteAt(pa PhysAddr, buf []byte) error {
	return pm.access(pa, buf, true)
}

// access copies frame by frame. The region is resolved once per region
// crossed and each frame by index (directory group, chunk, slot), with
// no run bookkeeping between them. An access inside one buffer or one
// backed sector is one copy (frame.span); everything else (first
// writes, unbacked sectors, several sectors) takes the slow paths.
func (pm *PhysMem) access(pa PhysAddr, buf []byte, write bool) error {
	var rs *regionState
	for len(buf) > 0 {
		if rs == nil || !rs.contains(pa) {
			if rs = pm.regionOf(pa); rs == nil {
				return fmt.Errorf("mem: access to unmapped physical address %#x", pa)
			}
			if rs.Kind == MMIO {
				return fmt.Errorf("mem: byte access to MMIO window %#x", pa)
			}
		}
		idx := uint64(pa-rs.Base) >> PageShift4K
		ci, slot := int(idx/chunkFrames), int(idx%chunkFrames)
		var f *frame
		if c := rs.chunkAt(ci); c != nil && c.frames != nil {
			f = c.frames[slot]
		}
		inFrame := int(pa & (PageSize4K - 1))
		n := min(PageSize4K-inFrame, len(buf))
		switch b := f.span(inFrame, n); {
		case b != nil && write:
			copy(b, buf[:n])
		case b != nil:
			copy(buf[:n], b)
		case write:
			pm.writeSlow(rs, ci, slot, f, inFrame, buf[:n])
		default:
			f.readSparse(inFrame, buf[:n])
		}
		buf = buf[n:]
		pa += PhysAddr(n)
	}
	return nil
}

// span returns the backing of bytes [off, off+n) of f when one buffer or
// one backed sector holds them all, and nil otherwise, also for a frame
// never written (nil).
func (f *frame) span(off, n int) []byte {
	if f == nil {
		return nil
	}
	if f.buf != nil {
		return f.buf[off : off+n]
	}
	if in := off & sectorMask; in+n <= sectorSize {
		if sec := f.sectors[off>>sectorShift]; sec != nil {
			return sec[in : in+n]
		}
	}
	return nil
}

// writeSlow copies b into frame slot of chunk ci at byte off, creating
// the chunk record, its frame slots and the frame on first write (f is
// the slot's frame, nil until then): whole when the write covers it,
// sparse otherwise. A sparse frame first backs what the write needs
// (back), which may make it whole.
func (pm *PhysMem) writeSlow(rs *regionState, ci, slot int, f *frame, off int, b []byte) {
	if f == nil {
		c := rs.chunkAt(ci)
		if c == nil {
			c = rs.newChunk(ci)
		}
		if c.frames == nil {
			c.frames = new([chunkFrames]*frame)
		}
		if len(b) == PageSize4K {
			f = pm.wholes.Get()
		} else {
			f = pm.sparse.Get()
		}
		c.frames[slot] = f
	}
	if f.buf == nil {
		pm.back(f, off, off+len(b))
	}
	if f.buf != nil {
		copy(f.buf[off:], b)
		return
	}
	for len(b) > 0 {
		k := copy(f.sectors[off>>sectorShift][off&sectorMask:], b)
		b, off = b[k:], off+k
	}
}

// readSparse copies sparse frame f's bytes from off into b; a sector f
// lacks, and every byte of a frame never written (nil), reads as zero.
func (f *frame) readSparse(off int, b []byte) {
	if f == nil {
		clear(b)
		return
	}
	for len(b) > 0 {
		k := min(sectorSize-off&sectorMask, len(b))
		if sec := f.sectors[off>>sectorShift]; sec != nil {
			copy(b[:k], sec[off&sectorMask:])
		} else {
			clear(b[:k])
		}
		b, off = b[k:], off+k
	}
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
// zero until written again, and their buffers and sectors serve the
// next first write anywhere on the node. Frames e covers only in part
// keep their bytes. Pin counts are untouched.
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
