package hfi

import (
	"fmt"

	"repro/internal/mem"
)

// SDMARequest is one descriptor handed to an SDMA engine: a physically
// contiguous source range plus its placement at the destination. The HFI
// hardware accepts requests up to 10 KB of contiguous physical memory
// (model.Params.MaxSDMARequest); the Linux driver only ever builds
// PAGE_SIZE requests, which is the §3.4 optimization gap.
type SDMARequest struct {
	Src mem.Extent
	// MsgOff is the byte offset of this request within the message.
	MsgOff uint64
	// TIDIdx/TIDOff place the payload at the destination for expected
	// transfers; unused for eager.
	TIDIdx int
	TIDOff uint64
	// Last marks the final request of the message.
	Last bool
}

// BuildEagerRequests splits source extents into SDMA requests for an
// eager transfer: each request must fit both the hardware limit and one
// eager slot (it lands in a single slot at the receiver). The list is
// allocated once, at its exact bound.
func BuildEagerRequests(extents []mem.Extent, maxReq, eagerChunk uint64) ([]SDMARequest, error) {
	return AppendEagerRequests(nil, extents, maxReq, eagerChunk)
}

// AppendEagerRequests is BuildEagerRequests appending to dst; with
// enough spare capacity it allocates nothing.
func AppendEagerRequests(dst []SDMARequest, extents []mem.Extent, maxReq, eagerChunk uint64) ([]SDMARequest, error) {
	return appendRequests(dst, extents, min(maxReq, eagerChunk), nil)
}

// MaxEagerRequests bounds the requests, and so the receiver's eager
// slots and header-queue entries, of an n-byte eager transfer whose
// extents break only at 4 KB page boundaries and whose split limit is
// at least 4 KB (both drivers): ⌈n/4 KB⌉, plus one for a buffer that
// does not start on a page boundary.
func MaxEagerRequests(n uint64) int {
	return int((n+mem.PageSize4K-1)/mem.PageSize4K) + 1
}

// BuildExpectedRequests splits source extents into SDMA requests for an
// expected (TID) transfer. Requests must not cross destination TID-entry
// boundaries, so the effective split is at every source discontinuity,
// every maxReq bytes, and every TID boundary.
func BuildExpectedRequests(extents []mem.Extent, maxReq uint64, tids []TIDPair) ([]SDMARequest, error) {
	return AppendExpectedRequests(nil, extents, maxReq, tids)
}

// AppendExpectedRequests is BuildExpectedRequests appending to dst;
// with enough spare capacity it allocates nothing.
func AppendExpectedRequests(dst []SDMARequest, extents []mem.Extent, maxReq uint64, tids []TIDPair) ([]SDMARequest, error) {
	if len(tids) == 0 {
		return dst, fmt.Errorf("hfi: expected transfer without TIDs")
	}
	return appendRequests(dst, extents, maxReq, tids)
}

// appendRequests appends the requests of one message to dst; on error
// it returns dst as it was.
func appendRequests(dst []SDMARequest, extents []mem.Extent, maxReq uint64, tids []TIDPair) ([]SDMARequest, error) {
	if maxReq == 0 {
		return dst, fmt.Errorf("hfi: zero max request size")
	}
	// The validation pass also sizes the list: an extent splits every
	// maxReq bytes and each TID boundary adds at most one more split, so
	// Σ⌈len/maxReq⌉ + len(tids) bounds the count and the list grows at
	// most once.
	var total uint64
	bound := len(tids)
	for _, e := range extents {
		if e.Len == 0 {
			return dst, fmt.Errorf("hfi: zero-length source extent")
		}
		total += e.Len
		bound += int((e.Len-1)/maxReq) + 1
	}
	if tids != nil {
		var cover uint64
		for _, t := range tids {
			cover += t.Len
		}
		if cover < total {
			return dst, fmt.Errorf("hfi: TIDs cover %d bytes, message needs %d", cover, total)
		}
	}

	out := dst
	if cap(dst)-len(dst) < bound {
		out = make([]SDMARequest, len(dst), len(dst)+bound)
		copy(out, dst)
	}
	first := len(out)
	msgOff := uint64(0)
	tidIdx := 0
	tidUsed := uint64(0) // bytes consumed within current TID entry
	for _, e := range extents {
		for e.Len > 0 {
			n := e.Len
			if n > maxReq {
				n = maxReq
			}
			req := SDMARequest{
				Src:    mem.Extent{Addr: e.Addr, Len: n},
				MsgOff: msgOff,
			}
			if tids != nil {
				// Skip exhausted TID entries.
				for tidIdx < len(tids) && tidUsed == tids[tidIdx].Len {
					tidIdx++
					tidUsed = 0
				}
				if tidIdx >= len(tids) {
					return dst, fmt.Errorf("hfi: ran out of TIDs at offset %d", msgOff)
				}
				if rem := tids[tidIdx].Len - tidUsed; n > rem {
					n = rem
					req.Src.Len = n
				}
				req.TIDIdx = int(tids[tidIdx].Idx)
				req.TIDOff = tidUsed
				tidUsed += n
			}
			out = append(out, req)
			e.Addr += mem.PhysAddr(n)
			e.Len -= n
			msgOff += n
		}
	}
	if len(out) > first {
		out[len(out)-1].Last = true
	}
	return out, nil
}

// RequestStats summarizes a request list for instrumentation (the paper
// verified "the Linux driver submits only up to PAGE_SIZE long SDMA
// requests" by instrumenting exactly this).
type RequestStats struct {
	Count    int
	Bytes    uint64
	MaxBytes uint64
	// FullSized counts requests at exactly the hardware maximum.
	FullSized int
}

// StatRequests computes summary statistics, counting requests of size
// maxReq as full-sized.
func StatRequests(reqs []SDMARequest, maxReq uint64) RequestStats {
	var s RequestStats
	s.Count = len(reqs)
	for _, r := range reqs {
		s.Bytes += r.Src.Len
		if r.Src.Len > s.MaxBytes {
			s.MaxBytes = r.Src.Len
		}
		if r.Src.Len == maxReq {
			s.FullSized++
		}
	}
	return s
}
