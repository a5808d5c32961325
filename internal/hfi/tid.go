package hfi

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/mem"
	"repro/internal/model"
)

// AllocAndProgramTIDs allocates one RcvArray entry per segment from the
// context's TID bitmap (under the context TID lock), programs the NIC
// and returns the TID list, built in s.TIDs; s.Bitmap stages the bitmap.
// When pins is non-nil each programmed entry's segment is recorded there
// by RcvArray index once the whole list is in. It operates entirely
// through structure layouts from reg over the given kernel's address
// space, so the Linux driver (authoritative layouts) and the PicoDriver
// (DWARF-extracted layouts) share this protocol against the same kernel
// memory.
//
// On failure every entry programmed so far is rolled back.
func AllocAndProgramTIDs(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, nic *NIC,
	ctxtVA kmem.VirtAddr, ctxtID int, segments []mem.Extent, pr *model.Params,
	s *Scratch, pins map[int]mem.Extent) ([]TIDPair, error) {

	ctxtLayout, err := reg.Lookup("hfi1_ctxtdata")
	if err != nil {
		return nil, err
	}
	cctx := kstruct.Obj{Space: space, Addr: ctxtVA, Layout: ctxtLayout}
	lock, err := tidLock(space, cctx)
	if err != nil {
		return nil, err
	}
	if err := lock.Lock(ctx.P); err != nil {
		return nil, err
	}
	defer lock.Unlock()

	bitmap, err := cctx.ReadBytes("tid_map", s.Bitmap)
	s.Bitmap = bitmap
	if err != nil {
		return nil, err
	}
	// tid_cnt bounds the usable RcvArray entries: the driver programs it
	// at open time (possibly shrunk for fault injection), so allocation
	// must not wander into the bitmap's unused tail.
	tidCnt, err := cctx.GetU("tid_cnt")
	if err != nil {
		return nil, err
	}
	pairs := s.TIDs[:0]
	rollback := func() {
		for _, tp := range pairs {
			idx, _ := UnpackTID(tp.Idx)
			clearBit(bitmap, idx)
			_ = nic.ClearTID(ctxtID, idx)
		}
	}
	for _, seg := range segments {
		idx := findClearBit(bitmap, int(tidCnt))
		if idx < 0 {
			rollback()
			return nil, fmt.Errorf("hfi: RcvArray exhausted on context %d", ctxtID)
		}
		setBit(bitmap, idx)
		gen, err := nic.ProgramTID(ctxtID, idx, seg)
		if err != nil {
			rollback()
			return nil, err
		}
		ctx.Spend(pr.TIDProgramCost)
		pairs = append(pairs, TIDPair{Idx: PackTID(idx, gen), Len: seg.Len})
	}
	s.TIDs = pairs
	if err := cctx.SetBytes("tid_map", bitmap); err != nil {
		rollback()
		return nil, err
	}
	used, err := cctx.GetU("tid_used")
	if err != nil {
		return nil, err
	}
	if err := cctx.SetU("tid_used", used+uint64(len(pairs))); err != nil {
		return nil, err
	}
	if pins != nil {
		for i, tp := range pairs {
			idx, _ := UnpackTID(tp.Idx)
			pins[idx] = segments[i]
		}
	}
	return pairs, nil
}

// FreeTIDs releases RcvArray entries under the TID lock, staging the
// bitmap in s.Bitmap.
func FreeTIDs(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, nic *NIC,
	ctxtVA kmem.VirtAddr, ctxtID int, pairs []TIDPair, pr *model.Params, s *Scratch) error {

	ctxtLayout, err := reg.Lookup("hfi1_ctxtdata")
	if err != nil {
		return err
	}
	cctx := kstruct.Obj{Space: space, Addr: ctxtVA, Layout: ctxtLayout}
	lock, err := tidLock(space, cctx)
	if err != nil {
		return err
	}
	if err := lock.Lock(ctx.P); err != nil {
		return err
	}
	defer lock.Unlock()

	bitmap, err := cctx.ReadBytes("tid_map", s.Bitmap)
	s.Bitmap = bitmap
	if err != nil {
		return err
	}
	for _, tp := range pairs {
		idx, _ := UnpackTID(tp.Idx)
		if !testBit(bitmap, idx) {
			return fmt.Errorf("hfi: freeing unallocated TID %d on context %d", idx, ctxtID)
		}
		clearBit(bitmap, idx)
		if err := nic.ClearTID(ctxtID, idx); err != nil {
			return err
		}
		ctx.Spend(pr.TIDProgramCost / 2)
	}
	if err := cctx.SetBytes("tid_map", bitmap); err != nil {
		return err
	}
	used, err := cctx.GetU("tid_used")
	if err != nil {
		return err
	}
	if used < uint64(len(pairs)) {
		return fmt.Errorf("hfi: tid_used underflow on context %d", ctxtID)
	}
	return cctx.SetU("tid_used", used-uint64(len(pairs)))
}

// SplitForTIDs cuts physical extents into TID-entry segments of at most
// maxEntry bytes each, appended to dst. The Linux driver feeds per-page
// extents (so every segment is one page); the PicoDriver feeds merged
// extents from page-table walks, so large pages and contiguous runs
// become few large entries (§3.4).
func SplitForTIDs(dst, extents []mem.Extent, maxEntry uint64) []mem.Extent {
	out := dst
	for _, e := range extents {
		for e.Len > 0 {
			n := e.Len
			if n > maxEntry {
				n = maxEntry
			}
			out = append(out, mem.Extent{Addr: e.Addr, Len: n})
			e.Addr += mem.PhysAddr(n)
			e.Len -= n
		}
	}
	return out
}

func tidLock(space *kmem.Space, cctx kstruct.Obj) (kernel.SpinLock, error) {
	la, err := cctx.FieldAddr("tid_lock", 0)
	if err != nil {
		return kernel.SpinLock{}, err
	}
	return kernel.SpinLock{Space: space, Addr: la,
		Layout: kernel.LinuxSpinLockLayout, SpinDelay: kernel.DefaultSpinDelay}, nil
}

func findClearBit(bitmap []byte, limit int) int {
	if max := len(bitmap) * 8; limit > max || limit <= 0 {
		limit = max
	}
	for i, b := range bitmap {
		if b == 0xff {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			idx := i*8 + bit
			if idx >= limit {
				return -1
			}
			if b&(1<<bit) == 0 {
				return idx
			}
		}
	}
	return -1
}

func setBit(bitmap []byte, idx int)   { bitmap[idx/8] |= 1 << (idx % 8) }
func clearBit(bitmap []byte, idx int) { bitmap[idx/8] &^= 1 << (idx % 8) }
func testBit(bitmap []byte, idx int) bool {
	return bitmap[idx/8]&(1<<(idx%8)) != 0
}
