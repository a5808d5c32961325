package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"sort"

	"repro/internal/snapshot"
)

// EncodeState serializes the node's physical memory: per-region
// allocator accounting (outstanding blocks, free-list shape, the
// scatter pool's exact order — it is a stack, so order determines
// future allocation addresses), frame contents folded to digests, and
// pin counts. Registered by cluster.buildNode under "node<N>/mem".
func (pm *PhysMem) EncodeState(e *snapshot.Enc) {
	for _, rs := range pm.regions {
		e.Printf("region base=%x size=%d kind=%s owner=%q allocated=%d\n",
			uint64(rs.Base), rs.Size, rs.Kind, rs.Owner, rs.allocated)
		if rs.buddy != nil {
			allocs := make([]PhysAddr, 0, len(rs.buddy.sizes))
			for a := range rs.buddy.sizes {
				allocs = append(allocs, a)
			}
			sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
			for _, a := range allocs {
				e.Printf("region base=%x alloc=%x order=%d\n", uint64(rs.Base), uint64(a), rs.buddy.sizes[a])
			}
			for order, fl := range rs.buddy.freeLists {
				if len(fl) > 0 {
					e.Printf("region base=%x freelist order=%d blocks=%d hash=%x\n",
						uint64(rs.Base), order, len(fl), addrSetHash(fl))
				}
			}
		}
		if len(rs.scatterPool) > 0 {
			h := fnv.New64a()
			var buf [8]byte
			for _, a := range rs.scatterPool {
				binary.LittleEndian.PutUint64(buf[:], uint64(a))
				h.Write(buf[:])
			}
			e.Printf("region base=%x scatterpool=%d hash=%016x\n",
				uint64(rs.Base), len(rs.scatterPool), h.Sum64())
		}
	}

	pm.eachChunk(func(base PhysAddr, c *chunk) {
		for i, f := range &c.frames {
			if f != nil {
				sum := sha256.Sum256(f[:])
				e.Printf("frame addr=%x content=%x\n", uint64(base)+uint64(i)*PageSize4K, sum[:8])
			}
		}
	})
	pm.eachChunk(func(base PhysAddr, c *chunk) {
		for i, n := range &c.pins {
			if n != 0 {
				e.Printf("pin addr=%x count=%d\n", uint64(base)+uint64(i)*PageSize4K, n)
			}
		}
	})
}

// eachChunk visits the chunk records that exist, with the address of
// their first frame. Regions ascend by base and chunks by number, so the
// visits are in address order; a record emptied by a free is still
// visited and must contribute nothing.
func (pm *PhysMem) eachChunk(fn func(base PhysAddr, c *chunk)) {
	for _, rs := range pm.regions {
		for ci, c := range rs.chunks {
			if c != nil {
				fn(rs.frameAddr(ci, 0), c)
			}
		}
	}
}

// addrSetHash folds an address set to an order-independent digest.
func addrSetHash(set map[PhysAddr]struct{}) uint64 {
	var sum uint64
	for a := range set {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		h.Write(buf[:])
		sum += h.Sum64()
	}
	return sum
}
