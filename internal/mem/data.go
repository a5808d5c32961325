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

// WriteAt copies buf into physical memory starting at pa, allocating
// sparse frame backing on demand.
func (pm *PhysMem) WriteAt(pa PhysAddr, buf []byte) error {
	return pm.access(pa, buf, true)
}

func (pm *PhysMem) access(pa PhysAddr, buf []byte, write bool) error {
	off := 0
	for off < len(buf) {
		cur := pa + PhysAddr(off)
		rs := pm.regionOf(cur)
		if rs == nil {
			return fmt.Errorf("mem: access to unmapped physical address %#x", cur)
		}
		if rs.Kind == MMIO {
			return fmt.Errorf("mem: byte access to MMIO window %#x", cur)
		}
		frameBase := cur &^ (PageSize4K - 1)
		inFrame := int(cur - frameBase)
		n := PageSize4K - inFrame
		if rem := len(buf) - off; n > rem {
			n = rem
		}
		frame := pm.frames[frameBase]
		if write {
			if frame == nil {
				frame = new([PageSize4K]byte)
				pm.frames[frameBase] = frame
			}
			copy(frame[inFrame:inFrame+n], buf[off:off+n])
		} else {
			if frame == nil {
				clear(buf[off : off+n])
			} else {
				copy(buf[off:off+n], frame[inFrame:inFrame+n])
			}
		}
		off += n
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
// as get_user_pages does. Pinned frames must not be freed. Pin sits on
// the per-transfer fast path, so it walks the frame range inline rather
// than materializing a slice.
func (pm *PhysMem) Pin(e Extent) {
	end := frameCeil(e.End())
	for pa := frameFloor(e.Addr); pa < end; pa += PageSize4K {
		pm.pins[pa]++
	}
}

// Unpin decrements pin counts; it panics on unbalanced unpins.
func (pm *PhysMem) Unpin(e Extent) {
	end := frameCeil(e.End())
	for pa := frameFloor(e.Addr); pa < end; pa += PageSize4K {
		if pm.pins[pa] == 0 {
			panic(fmt.Sprintf("mem: unpin of unpinned frame %#x", pa))
		}
		pm.pins[pa]--
		if pm.pins[pa] == 0 {
			delete(pm.pins, pa)
		}
	}
}

// Pinned reports whether the 4K frame containing pa is pinned.
func (pm *PhysMem) Pinned(pa PhysAddr) bool {
	return pm.pins[frameFloor(pa)] > 0
}

// PinnedFrames returns the number of distinct pinned frames.
func (pm *PhysMem) PinnedFrames() int { return len(pm.pins) }

// frameFloor rounds pa down to its 4K frame base.
func frameFloor(pa PhysAddr) PhysAddr { return pa &^ (PageSize4K - 1) }

// frameCeil rounds pa up to the next 4K frame boundary.
func frameCeil(pa PhysAddr) PhysAddr { return (pa + PageSize4K - 1) &^ (PageSize4K - 1) }
