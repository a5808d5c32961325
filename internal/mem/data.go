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

func (pm *PhysMem) access(pa PhysAddr, buf []byte, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	cur := pa
	w := pm.walk(Extent{Addr: pa, Len: uint64(len(buf))})
	var r frameRun
	for w.next(&r) {
		if r.rs.Kind == MMIO {
			return fmt.Errorf("mem: byte access to MMIO window %#x", cur)
		}
		c := r.c
		if write {
			c = r.chunk()
		}
		for i := r.lo; i < r.hi; i++ {
			inFrame := int(cur & (PageSize4K - 1))
			n := PageSize4K - inFrame
			if n > len(buf) {
				n = len(buf)
			}
			var f *frame
			if c != nil {
				f = c.frames[i]
			}
			switch {
			case write:
				if f == nil {
					f = pm.takeFrame(n == PageSize4K)
					c.frames[i] = f
				}
				copy(f[inFrame:inFrame+n], buf[:n])
			case f == nil:
				clear(buf[:n])
			default:
				copy(buf[:n], f[inFrame:inFrame+n])
			}
			buf = buf[n:]
			cur += PhysAddr(n)
		}
	}
	if len(buf) > 0 {
		return fmt.Errorf("mem: access to unmapped physical address %#x", cur)
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
		for i := r.lo; i < r.hi; i++ {
			if c.pins[i] == 0 {
				pm.pinned++
			}
			c.pins[i]++
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
		for i := r.lo; i < r.hi; i++ {
			if r.c == nil || r.c.pins[i] == 0 {
				panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", r.rs.frameAddr(r.ci, i)))
			}
			r.c.pins[i]--
			if r.c.pins[i] == 0 {
				pm.pinned--
			}
		}
	}
	if w.pa < w.end {
		panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", w.pa))
	}
}

// Pinned reports whether the 4K frame containing pa is pinned.
func (pm *PhysMem) Pinned(pa PhysAddr) bool {
	w := pm.walk(Extent{Addr: pa, Len: 1})
	var r frameRun
	return w.next(&r) && r.c != nil && r.c.pins[r.lo] > 0
}

// PinnedFrames returns the number of distinct pinned frames.
func (pm *PhysMem) PinnedFrames() int { return pm.pinned }

// frameFloor rounds pa down to its 4K frame base.
func frameFloor(pa PhysAddr) PhysAddr { return pa &^ (PageSize4K - 1) }

// frameCeil rounds pa up to the next 4K frame boundary.
func frameCeil(pa PhysAddr) PhysAddr { return (pa + PageSize4K - 1) &^ (PageSize4K - 1) }
