// Package mem models the physical memory of a simulated compute node.
//
// Physical memory is organized as NUMA regions (high-bandwidth MCDRAM and
// DDR4, as on Knights Landing nodes). Each region is managed by a buddy
// allocator supporting contiguous power-of-two allocations, which is the
// property the PicoDriver's SDMA request coalescing exploits. Frame
// contents are byte-addressable and backed only once written (table.go),
// so DMA engines can move real data between nodes without reserving
// gigabytes of host RAM.
package mem

import (
	"fmt"
	"sort"
)

// PhysAddr is a physical byte address within a node.
type PhysAddr uint64

// Page size constants (x86_64).
const (
	PageSize4K  = 4 << 10
	PageSize2M  = 2 << 20
	PageShift4K = 12
	PageShift2M = 21
)

// Kind classifies a physical memory region.
type Kind int

const (
	// MCDRAM is on-package high-bandwidth memory.
	MCDRAM Kind = iota
	// DDR4 is conventional DRAM.
	DDR4
	// MMIO is a device register window; it has no allocator and no
	// byte backing, accesses are handled by the owning device model.
	MMIO
)

func (k Kind) String() string {
	switch k {
	case MCDRAM:
		return "MCDRAM"
	case DDR4:
		return "DDR4"
	case MMIO:
		return "MMIO"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Region describes one physical address range.
type Region struct {
	Base PhysAddr
	Size uint64
	Kind Kind
	// NUMANode is the domain number as the OS would report it.
	NUMANode int
	// Owner names the kernel partition this region is reserved for
	// ("linux", "lwk", ...). Empty means unassigned; PhysMem-level
	// allocation ignores owners, Allocator-level allocation filters by
	// them. IHK's resource partitioning assigns owners at LWK boot.
	Owner string
}

// End returns one past the last address of the region.
func (r Region) End() PhysAddr { return r.Base + PhysAddr(r.Size) }

// Extent is a contiguous physical byte range. SDMA requests, RcvArray
// entries and page-table walks all produce or consume extents.
type Extent struct {
	Addr PhysAddr
	Len  uint64
}

// End returns one past the last address of the extent.
func (e Extent) End() PhysAddr { return e.Addr + PhysAddr(e.Len) }

// PhysMem is the physical memory of one node (or one kernel's partition
// of a node). It owns allocators for its regions and, per region, the
// table of frame contents and pin counts.
type PhysMem struct {
	regions []*regionState
	// pinned counts the frames whose pin count is non-zero.
	pinned int
	// freeFrames holds the buffers of freed frames for the next first
	// write anywhere on the node.
	freeFrames []*frame
	// regScratch backs regionsFor: allocation paths call it once per
	// page, so the candidate list must not allocate each time.
	regScratch []*regionState
}

type regionState struct {
	Region
	buddy *buddy
	// scatterPool deliberately hands out non-adjacent 4K frames to
	// emulate a long-running Linux kernel's fragmented page pool.
	scatterPool []PhysAddr
	allocated   uint64
	// chunks is the frame-table directory, see table.go.
	chunks []*chunk
}

// NewPhysMem creates physical memory from the given regions. Regions must
// not overlap; non-MMIO regions must be 4K-aligned in base and size.
func NewPhysMem(regions ...Region) (*PhysMem, error) {
	sorted := append([]Region(nil), regions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	for i, r := range sorted {
		if r.Size == 0 {
			return nil, fmt.Errorf("mem: region %d has zero size", i)
		}
		if r.Kind != MMIO && (r.Base%PageSize4K != 0 || r.Size%PageSize4K != 0) {
			return nil, fmt.Errorf("mem: region at %#x not 4K aligned", r.Base)
		}
		if i > 0 && sorted[i-1].End() > r.Base {
			return nil, fmt.Errorf("mem: regions overlap at %#x", r.Base)
		}
	}
	pm := &PhysMem{}
	for _, r := range sorted {
		rs := &regionState{Region: r}
		if r.Kind != MMIO {
			rs.buddy = newBuddy(r.Base, r.Size)
		}
		pm.regions = append(pm.regions, rs)
	}
	return pm, nil
}

// Regions returns the region descriptors in ascending address order.
func (pm *PhysMem) Regions() []Region {
	out := make([]Region, len(pm.regions))
	for i, rs := range pm.regions {
		out[i] = rs.Region
	}
	return out
}

// Contains reports whether pa lies in any region (including MMIO).
func (pm *PhysMem) Contains(pa PhysAddr) bool { return pm.regionOf(pa) != nil }

func (pm *PhysMem) regionOf(pa PhysAddr) *regionState {
	for _, rs := range pm.regions {
		if pa >= rs.Base && pa < rs.End() {
			return rs
		}
	}
	return nil
}

// AllocPolicy selects which regions an allocation may come from and in
// what order.
type AllocPolicy int

const (
	// PreferMCDRAM tries MCDRAM regions first and falls back to DDR4,
	// the configuration used for the paper's evaluation.
	PreferMCDRAM AllocPolicy = iota
	// MCDRAMOnly fails if MCDRAM is exhausted.
	MCDRAMOnly
	// DDROnly allocates exclusively from DDR4.
	DDROnly
)

func (p AllocPolicy) admits(k Kind) bool {
	switch p {
	case PreferMCDRAM:
		return k == MCDRAM || k == DDR4
	case MCDRAMOnly:
		return k == MCDRAM
	case DDROnly:
		return k == DDR4
	}
	return false
}

// regionsFor yields candidate regions for a policy, MCDRAM first. When
// owner is non-empty only regions with that owner are considered. The
// returned slice is a scratch buffer owned by the PhysMem, valid until
// the next call.
func (pm *PhysMem) regionsFor(policy AllocPolicy, owner string) []*regionState {
	out := pm.regScratch[:0]
	for _, rs := range pm.regions {
		if rs.Kind == MCDRAM && policy.admits(MCDRAM) && (owner == "" || rs.Owner == owner) {
			out = append(out, rs)
		}
	}
	for _, rs := range pm.regions {
		if rs.Kind != MCDRAM && policy.admits(rs.Kind) && (owner == "" || rs.Owner == owner) {
			out = append(out, rs)
		}
	}
	pm.regScratch = out
	return out
}

// Allocator is a view of a PhysMem restricted to the regions owned by one
// kernel partition. Byte access (ReadAt/WriteAt/Pin) remains node-wide on
// the underlying PhysMem; only allocation is partitioned.
type Allocator struct {
	pm    *PhysMem
	owner string
}

// Partition returns an allocator over the regions owned by owner.
func (pm *PhysMem) Partition(owner string) *Allocator {
	return &Allocator{pm: pm, owner: owner}
}

// Phys returns the underlying node-wide physical memory.
func (a *Allocator) Phys() *PhysMem { return a.pm }

// Owner returns the partition name this allocator draws from.
func (a *Allocator) Owner() string { return a.owner }

// AllocContig allocates physically contiguous memory from the partition.
func (a *Allocator) AllocContig(size uint64, policy AllocPolicy) (Extent, error) {
	return a.pm.allocContig(size, policy, a.owner)
}

// FreeContig returns an extent allocated with AllocContig.
func (a *Allocator) FreeContig(e Extent) { a.pm.FreeContig(e) }

// AllocRun allocates best-effort-contiguous pages from the partition.
func (a *Allocator) AllocRun(npages int, policy AllocPolicy) ([]Extent, error) {
	return a.pm.allocRun(npages, policy, a.owner)
}

// AllocScattered allocates deliberately fragmented pages from the
// partition.
func (a *Allocator) AllocScattered(npages int, policy AllocPolicy) ([]Extent, error) {
	return a.pm.allocScattered(npages, policy, a.owner)
}

// FreeScattered returns frames allocated with AllocScattered.
func (a *Allocator) FreeScattered(extents []Extent) { a.pm.FreeScattered(extents) }

// FreeRun returns extents allocated with AllocRun.
func (a *Allocator) FreeRun(extents []Extent) { a.pm.FreeRun(extents) }

// ErrNoMemory is returned when an allocation cannot be satisfied.
var ErrNoMemory = fmt.Errorf("mem: out of physical memory")

// AllocContig allocates size bytes of physically contiguous memory,
// rounded up to a power-of-two multiple of 4K as buddy allocators do.
// The returned extent length equals the rounded size. Owners are ignored;
// use Partition for owner-restricted allocation.
func (pm *PhysMem) AllocContig(size uint64, policy AllocPolicy) (Extent, error) {
	return pm.allocContig(size, policy, "")
}

func (pm *PhysMem) allocContig(size uint64, policy AllocPolicy, owner string) (Extent, error) {
	if size == 0 {
		return Extent{}, fmt.Errorf("mem: zero-size allocation")
	}
	order := orderFor(size)
	for _, rs := range pm.regionsFor(policy, owner) {
		if addr, ok := rs.buddy.alloc(order); ok {
			rs.allocated += blockSize(order)
			return Extent{Addr: addr, Len: blockSize(order)}, nil
		}
	}
	return Extent{}, ErrNoMemory
}

// FreeContig returns an extent previously obtained from AllocContig.
func (pm *PhysMem) FreeContig(e Extent) {
	rs := pm.regionOf(e.Addr)
	if rs == nil || rs.buddy == nil {
		panic(fmt.Sprintf("mem: FreeContig of unknown extent %#x", e.Addr))
	}
	order := orderFor(e.Len)
	if blockSize(order) != e.Len {
		panic(fmt.Sprintf("mem: FreeContig with non power-of-two length %d", e.Len))
	}
	rs.buddy.free(e.Addr, order)
	rs.allocated -= e.Len
	pm.dropFrames(e)
}

// AllocRun allocates npages 4K pages with best-effort contiguity: it
// greedily carves the largest power-of-two blocks that still fit. This is
// McKernel's anonymous-mapping backing strategy (§3.4): the result is a
// small number of large extents whenever memory is not fragmented.
func (pm *PhysMem) AllocRun(npages int, policy AllocPolicy) ([]Extent, error) {
	return pm.allocRun(npages, policy, "")
}

func (pm *PhysMem) allocRun(npages int, policy AllocPolicy, owner string) ([]Extent, error) {
	if npages <= 0 {
		return nil, fmt.Errorf("mem: AllocRun of %d pages", npages)
	}
	var out []Extent
	remaining := npages
	for remaining > 0 {
		order := maxOrderLE(remaining)
		var ext Extent
		var err error
		for {
			ext, err = pm.allocContig(blockSize(order), policy, owner)
			if err == nil {
				break
			}
			if order == 0 {
				// Roll back everything we carved so far.
				for _, e := range out {
					pm.FreeContig(e)
				}
				return nil, ErrNoMemory
			}
			order--
		}
		out = append(out, ext)
		remaining -= int(ext.Len / PageSize4K)
	}
	return mergeExtents(out), nil
}

// FreeRun returns extents obtained from AllocRun. Extents may be merged
// (AllocRun merges adjacent buddy blocks); FreeRun re-discovers block
// boundaries from the allocator's bookkeeping. Every extent must cover
// whole allocated blocks.
func (pm *PhysMem) FreeRun(extents []Extent) {
	for _, e := range extents {
		cursor := e.Addr
		for cursor < e.End() {
			rs := pm.regionOf(cursor)
			if rs == nil || rs.buddy == nil {
				panic(fmt.Sprintf("mem: FreeRun of unknown address %#x", cursor))
			}
			order, ok := rs.buddy.sizes[cursor]
			if !ok {
				panic(fmt.Sprintf("mem: FreeRun at %#x: not a block start", cursor))
			}
			n := blockSize(order)
			if cursor+PhysAddr(n) > e.End() {
				panic(fmt.Sprintf("mem: FreeRun at %#x: extent ends inside a block", cursor))
			}
			rs.buddy.free(cursor, order)
			rs.allocated -= n
			pm.dropFrames(Extent{Addr: cursor, Len: n})
			cursor += PhysAddr(n)
		}
	}
}

// AllocScattered allocates npages individual 4K frames with deliberately
// poor adjacency, emulating the fragmented page pool of a long-running
// Linux kernel: the Linux HFI driver therefore almost never sees physical
// contiguity across page boundaries. The frames are drawn from a
// stride-permuted pool built lazily per region.
func (pm *PhysMem) AllocScattered(npages int, policy AllocPolicy) ([]Extent, error) {
	return pm.allocScattered(npages, policy, "")
}

func (pm *PhysMem) allocScattered(npages int, policy AllocPolicy, owner string) ([]Extent, error) {
	if npages <= 0 {
		return nil, fmt.Errorf("mem: AllocScattered of %d pages", npages)
	}
	out := make([]Extent, 0, npages)
	for i := 0; i < npages; i++ {
		pa, err := pm.allocScatterPage(policy, owner)
		if err != nil {
			// Scatter-pool frames are slices of a 2 MB buddy block, not
			// blocks of their own: they go back to the pool.
			pm.FreeScattered(out)
			return nil, err
		}
		out = append(out, Extent{Addr: pa, Len: PageSize4K})
	}
	return out, nil
}

func (pm *PhysMem) allocScatterPage(policy AllocPolicy, owner string) (PhysAddr, error) {
	for _, rs := range pm.regionsFor(policy, owner) {
		if len(rs.scatterPool) == 0 {
			rs.refillScatterPool()
		}
		if n := len(rs.scatterPool); n > 0 {
			pa := rs.scatterPool[n-1]
			rs.scatterPool = rs.scatterPool[:n-1]
			return pa, nil
		}
	}
	// Pools dry everywhere: fall back to plain buddy pages.
	ext, err := pm.allocContig(PageSize4K, policy, owner)
	if err != nil {
		return 0, err
	}
	return ext.Addr, nil
}

// refillScatterPool carves a 2M block from the buddy and permutes its 4K
// frames with a large stride so consecutively allocated frames are never
// physically adjacent.
func (rs *regionState) refillScatterPool() {
	addr, ok := rs.buddy.alloc(orderFor(PageSize2M))
	if !ok {
		return
	}
	rs.allocated += PageSize2M
	const frames = PageSize2M / PageSize4K // 512
	const stride = 89                      // coprime with 512
	for i := 0; i < frames; i++ {
		idx := (i * stride) % frames
		rs.scatterPool = append(rs.scatterPool, addr+PhysAddr(idx*PageSize4K))
	}
}

// FreeScattered returns frames from AllocScattered. They are pushed back
// onto the owning region's scatter pool.
func (pm *PhysMem) FreeScattered(extents []Extent) {
	for _, e := range extents {
		for off := uint64(0); off < e.Len; off += PageSize4K {
			pa := e.Addr + PhysAddr(off)
			rs := pm.regionOf(pa)
			if rs == nil {
				panic(fmt.Sprintf("mem: FreeScattered of unknown frame %#x", pa))
			}
			rs.scatterPool = append(rs.scatterPool, pa)
			pm.dropFrames(Extent{Addr: pa, Len: PageSize4K})
		}
	}
}

// Allocated returns the number of bytes currently held from the buddy
// allocators, per region kind. Frames sitting in scatter pools count as
// allocated (they are unavailable for contiguous allocation).
func (pm *PhysMem) Allocated(kind Kind) uint64 {
	var total uint64
	for _, rs := range pm.regions {
		if rs.Kind == kind {
			total += rs.allocated
		}
	}
	return total
}

// mergeExtents sorts extents by address and merges adjacent ones.
func mergeExtents(in []Extent) []Extent {
	if len(in) <= 1 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Addr < in[j].Addr })
	out := in[:1]
	for _, e := range in[1:] {
		last := &out[len(out)-1]
		if last.End() == e.Addr {
			last.Len += e.Len
		} else {
			out = append(out, e)
		}
	}
	return out
}

// MergeExtents merges adjacent extents after sorting by address. It is
// exported for use by page-table walkers and the SDMA request builder.
func MergeExtents(in []Extent) []Extent {
	return mergeExtents(append([]Extent(nil), in...))
}
