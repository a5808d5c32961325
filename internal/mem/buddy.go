package mem

// buddy is a classic binary buddy allocator over one region. Order 0 is a
// 4K page; each order doubles the block size. It tracks free blocks per
// order and merges buddies on free.
type buddy struct {
	base      PhysAddr
	size      uint64
	maxOrder  int
	freeLists []map[PhysAddr]struct{} `snap:"hash"` // per order, keyed by block address
	// sizes records the order of every outstanding allocation so that
	// invalid frees are caught early.
	sizes map[PhysAddr]int
}

// maxSupportedOrder caps blocks at 1 GiB (order 18).
const maxSupportedOrder = 18

func blockSize(order int) uint64 { return PageSize4K << uint(order) }

// orderFor returns the smallest order whose block size is >= size.
func orderFor(size uint64) int {
	order := 0
	for blockSize(order) < size {
		order++
		if order > maxSupportedOrder {
			panic("mem: allocation larger than 1GiB block")
		}
	}
	return order
}

// maxOrderLE returns the largest order whose page count is <= npages.
func maxOrderLE(npages int) int {
	order := 0
	for order < maxSupportedOrder && (1<<(order+1)) <= npages {
		order++
	}
	return order
}

func newBuddy(base PhysAddr, size uint64) *buddy {
	b := &buddy{
		base:      base,
		size:      size,
		freeLists: make([]map[PhysAddr]struct{}, maxSupportedOrder+1),
		sizes:     make(map[PhysAddr]int),
	}
	for i := range b.freeLists {
		b.freeLists[i] = make(map[PhysAddr]struct{})
	}
	// Seed the free lists by carving the region greedily into the
	// largest aligned blocks that fit.
	addr := base
	remaining := size
	for remaining >= PageSize4K {
		order := maxSupportedOrder
		for order > 0 && (blockSize(order) > remaining || uint64(addr-base)%blockSize(order) != 0) {
			order--
		}
		b.freeLists[order][addr] = struct{}{}
		if order > b.maxOrder {
			b.maxOrder = order
		}
		addr += PhysAddr(blockSize(order))
		remaining -= blockSize(order)
	}
	return b
}

// alloc removes and returns a block of the given order, splitting larger
// blocks as needed. The lowest-address candidate is chosen so behaviour
// is deterministic.
func (b *buddy) alloc(order int) (PhysAddr, bool) {
	if order > b.maxOrder {
		return 0, false
	}
	cur := order
	for cur <= b.maxOrder && len(b.freeLists[cur]) == 0 {
		cur++
	}
	if cur > b.maxOrder {
		return 0, false
	}
	addr := lowest(b.freeLists[cur])
	delete(b.freeLists[cur], addr)
	// Split down to the requested order, returning the upper halves.
	for cur > order {
		cur--
		upper := addr + PhysAddr(blockSize(cur))
		b.freeLists[cur][upper] = struct{}{}
	}
	b.sizes[addr] = order
	return addr, true
}

// free returns a block and merges it with its buddy while possible.
func (b *buddy) free(addr PhysAddr, order int) {
	got, ok := b.sizes[addr]
	if !ok {
		panic("mem: buddy free of unallocated block")
	}
	if got != order {
		panic("mem: buddy free with wrong order")
	}
	delete(b.sizes, addr)
	for order < b.maxOrder {
		bud := b.buddyOf(addr, order)
		if _, ok := b.freeLists[order][bud]; !ok {
			break
		}
		delete(b.freeLists[order], bud)
		if bud < addr {
			addr = bud
		}
		order++
	}
	b.freeLists[order][addr] = struct{}{}
}

func (b *buddy) buddyOf(addr PhysAddr, order int) PhysAddr {
	off := uint64(addr - b.base)
	return b.base + PhysAddr(off^blockSize(order))
}

func lowest(set map[PhysAddr]struct{}) PhysAddr {
	first := true
	var min PhysAddr
	for a := range set {
		if first || a < min {
			min = a
			first = false
		}
	}
	return min
}
