// Package mlx models a Mellanox InfiniBand-style verbs driver, the
// target of the paper's stated future work: "we intend to further extend
// this work by porting memory registration routines from the Mellanox
// Infiniband driver" (§6). The paper notes that InfiniBand memory
// registration requires system calls, though usually off the critical
// path (§1).
//
// The Linux driver registers memory regions (MRs): it pins the user
// buffer with get_user_pages and writes a memory translation table (MTT)
// — one entry per 4 KiB page — into kernel memory, returning an lkey.
// core.MLXPico ports exactly these routines to the LWK.
package mlx

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/uproc"

	"repro/internal/dwarfx"
)

// Verbs ioctl commands.
const (
	CmdRegMR       uint32 = 0xB001 // performance sensitive (registration)
	CmdDeregMR     uint32 = 0xB002 // performance sensitive (teardown)
	CmdQueryDevice uint32 = 0xB003
	CmdCreateQP    uint32 = 0xB004
	CmdModifyQP    uint32 = 0xB005
	CmdDestroyQP   uint32 = 0xB006
)

// RegCmds are the memory-registration commands a PicoDriver ports.
var RegCmds = map[uint32]bool{CmdRegMR: true, CmdDeregMR: true}

// DriverVersion tags the shipped module binary.
const DriverVersion = "mlx5-4.9-2"

// MTT entry flags: bit 0 = present; bits 1-7 = log2(page size)-12.
const (
	mttPresent = uint64(1)
)

// BuildRegistry returns the driver's authoritative structure layouts.
func BuildRegistry(version string) *kstruct.Registry {
	reg := kstruct.NewRegistry(version)
	reg.MustAdd(&kstruct.Layout{
		Name:     "mlx_device",
		ByteSize: 128,
		Fields: []kstruct.Field{
			{Name: "mr_lock", Offset: 0, Kind: kstruct.Bytes, ByteLen: 8, TypeName: "spinlock_t"},
			{Name: "next_lkey", Offset: 8, Kind: kstruct.U32},
			{Name: "mr_count", Offset: 12, Kind: kstruct.U32},
			{Name: "fw_ver", Offset: 16, Kind: kstruct.U64},
			{Name: "caps", Offset: 24, Kind: kstruct.U64},
		},
	})
	reg.MustAdd(&kstruct.Layout{
		Name:     "mlx_mr",
		ByteSize: 96,
		Fields: []kstruct.Field{
			{Name: "lkey", Offset: 0, Kind: kstruct.U32},
			{Name: "npages", Offset: 8, Kind: kstruct.U64},
			{Name: "mtt_kva", Offset: 16, Kind: kstruct.Ptr, TypeName: "u64 *"},
			{Name: "iova", Offset: 24, Kind: kstruct.U64},
			{Name: "length", Offset: 32, Kind: kstruct.U64},
			{Name: "access", Offset: 40, Kind: kstruct.U32},
			{Name: "owner", Offset: 44, Kind: kstruct.U32}, // 0 linux, 1 lwk
		},
	})
	reg.MustAdd(&kstruct.Layout{
		Name:     "mlx_filedata",
		ByteSize: 64,
		Fields: []kstruct.Field{
			{Name: "dev", Offset: 0, Kind: kstruct.Ptr, TypeName: "struct mlx_device *"},
			{Name: "mrs", Offset: 8, Kind: kstruct.U64},
		},
	})
	return reg
}

// module is one build of the driver: its layouts and the debugging
// information shipped alongside the binary.
type module struct {
	reg  *kstruct.Registry
	blob []byte
}

// shippedModule is the DriverVersion build every driver instance loads.
// It is the same on every node, so a process builds it once and all
// instances share it read-only.
var shippedModule = sync.OnceValues(func() (module, error) {
	reg := BuildRegistry(DriverVersion)
	blob, err := BuildDWARFBlob(reg)
	return module{reg: reg, blob: blob}, err
})

// BuildDWARFBlob compiles the registry into module debug info.
func BuildDWARFBlob(reg *kstruct.Registry) ([]byte, error) {
	root, err := dwarfx.Build(reg)
	if err != nil {
		return nil, err
	}
	return dwarfx.Encode(root)
}

// MRInfoSize is the encoded RegMR/DeregMR argument size.
const MRInfoSize = 32

// MRInfo is the user argument of the MR ioctls.
type MRInfo struct {
	VAddr  uproc.VirtAddr
	Length uint64
	// LKey is out for RegMR, in for DeregMR.
	LKey uint32
	// Access grants (AccessLocalWrite | AccessRemote*); the rkey equals
	// the lkey in this model, so remote grants attach to the same key.
	Access uint32
}

// EncodeMRInfo writes the argument into user memory.
func EncodeMRInfo(p *uproc.Process, va uproc.VirtAddr, mi *MRInfo) error {
	var b [MRInfoSize]byte
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(mi.VAddr))
	le.PutUint64(b[8:], mi.Length)
	le.PutUint32(b[16:], mi.LKey)
	le.PutUint32(b[20:], mi.Access)
	return p.WriteAt(va, b[:])
}

// DecodeMRInfo reads the argument from user memory.
func DecodeMRInfo(p *uproc.Process, va uproc.VirtAddr) (*MRInfo, error) {
	var b [MRInfoSize]byte
	if err := p.ReadAt(va, b[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	return &MRInfo{
		VAddr:  uproc.VirtAddr(le.Uint64(b[0:])),
		Length: le.Uint64(b[8:]),
		LKey:   le.Uint32(b[16:]),
		Access: le.Uint32(b[20:]),
	}, nil
}

// WriteLKeyBack stores the assigned lkey into the user argument.
func WriteLKeyBack(p *uproc.Process, va uproc.VirtAddr, lkey uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], lkey)
	return p.WriteAt(va+16, b[:])
}

// Driver is the unmodified Linux mlx driver.
type Driver struct {
	K   *linux.Kernel
	reg *kstruct.Registry `snap:"-"` // the layouts DWARFBlob encodes
	// DWARFBlob is the module's shipped debugging information.
	DWARFBlob []byte
	devVA     kmem.VirtAddr
	// mrs tracks Linux-registered regions (for unpinning at dereg).
	mrs map[uint32]*linuxMR
	// qps tracks QPs per file id for release-time cleanup.
	qps map[int][]uint32
	// hca backs the QP ioctls and mmap regions and receives key
	// programming at reg/dereg time.
	hca HCA
	// MRBytesRegistered is instrumentation.
	MRBytesRegistered uint64
}

type linuxMR struct {
	mrVA   kmem.VirtAddr
	mttVA  kmem.VirtAddr
	mttLen uint64
	pages  []mem.Extent
	fileID int
	proc   *uproc.Process `snap:"-"` // the registering process, an owner handle
}

// NewDriver performs module init for the given HCA.
func NewDriver(k *linux.Kernel, hca HCA) (*Driver, error) {
	m, err := shippedModule()
	if err != nil {
		return nil, err
	}
	reg := m.reg
	d := &Driver{K: k, reg: reg, DWARFBlob: m.blob, hca: hca,
		mrs: make(map[uint32]*linuxMR), qps: make(map[int][]uint32)}
	devLayout, err := reg.Lookup("mlx_device")
	if err != nil {
		return nil, err
	}
	dev, err := kstruct.New(k.Space, devLayout, k.Pool.CPUs()[0])
	if err != nil {
		return nil, err
	}
	if err := dev.SetU("next_lkey", 1); err != nil {
		return nil, err
	}
	if err := dev.SetU("fw_ver", 16<<32|35); err != nil {
		return nil, err
	}
	lockVA, err := dev.FieldAddr("mr_lock", 0)
	if err != nil {
		return nil, err
	}
	if _, err := kernel.NewSpinLock(k.Space, lockVA, kernel.LinuxSpinLockLayout); err != nil {
		return nil, err
	}
	d.devVA = dev.Addr
	return d, nil
}

// Registry exposes the authoritative layouts (test oracle only).
func (d *Driver) Registry() *kstruct.Registry { return d.reg }

// DeviceVA returns the mlx_device address (exported module symbol).
func (d *Driver) DeviceVA() kmem.VirtAddr { return d.devVA }

var _ linux.Driver = (*Driver)(nil)

// Open allocates per-file data.
func (d *Driver) Open(ctx *kernel.Ctx, f *linux.File) error {
	ctx.Spend(12 * time.Microsecond)
	l, err := d.reg.Lookup("mlx_filedata")
	if err != nil {
		return err
	}
	fd, err := kstruct.New(d.K.Space, l, ctx.CPU)
	if err != nil {
		return err
	}
	if err := fd.SetPtr("dev", d.devVA); err != nil {
		return err
	}
	f.Private = fd.Addr
	return nil
}

// Release frees per-file data, destroying any QPs and MRs the process
// left live (the kernel must not leak pins or MTT memory when an
// application exits without deregistering).
func (d *Driver) Release(ctx *kernel.Ctx, f *linux.File) error {
	for _, qpn := range d.qps[f.ID] {
		if err := d.hca.DestroyQP(ctx, qpn); err != nil {
			return err
		}
	}
	delete(d.qps, f.ID)
	var orphans []uint32
	for lkey, rec := range d.mrs {
		if rec.fileID == f.ID {
			orphans = append(orphans, lkey)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, lkey := range orphans {
		rec := d.mrs[lkey]
		if err := DestroyMR(ctx, d.K.Space, d.reg, d.devVA, rec.mrVA); err != nil {
			return err
		}
		d.K.PutUserPages(rec.proc, rec.pages)
		d.hca.InvalidateKey(lkey)
		delete(d.mrs, lkey)
	}
	return d.K.Space.Kfree(f.Private, ctx.CPU)
}

// LiveMRs counts Linux-registered regions not yet deregistered.
func (d *Driver) LiveMRs() int { return len(d.mrs) }

// Writev is unsupported: verbs data movement is pure OS bypass.
func (d *Driver) Writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, error) {
	return 0, fmt.Errorf("mlx: data path is user-space only")
}

// Ioctl dispatches the verbs command set.
func (d *Driver) Ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	switch cmd {
	case CmdRegMR:
		return d.regMR(ctx, f, arg)
	case CmdDeregMR:
		return d.deregMR(ctx, f, arg)
	case CmdQueryDevice:
		ctx.Spend(2 * time.Microsecond)
		return 1635, nil
	case CmdCreateQP, CmdModifyQP:
		ctx.Spend(15 * time.Microsecond) // slow-path QP state machine
		return d.qpIoctl(ctx, f, cmd, arg)
	case CmdDestroyQP:
		ctx.Spend(8 * time.Microsecond)
		return d.qpIoctl(ctx, f, cmd, arg)
	}
	return 0, fmt.Errorf("mlx: unknown ioctl %#x", cmd)
}

// regMR pins the buffer and builds a per-4K-page MTT.
func (d *Driver) regMR(ctx *kernel.Ctx, f *linux.File, arg uproc.VirtAddr) (uint64, error) {
	ctx.Spend(1500 * time.Nanosecond)
	mi, err := DecodeMRInfo(f.Proc, arg)
	if err != nil {
		return 0, err
	}
	pages, err := d.K.GetUserPages(ctx, f.Proc, nil, mi.VAddr, mi.Length)
	if err != nil {
		return 0, err
	}
	mtt := SplitMTTExtents(pages)
	lkey, mrVA, mttVA, err := BuildMR(ctx, d.K.Space, d.reg, d.devVA,
		mtt, uint64(mi.VAddr), mi.Length, 0 /* owner: linux */, uint64(mi.Access))
	if err != nil {
		d.K.PutUserPages(f.Proc, pages)
		return 0, err
	}
	d.mrs[lkey] = &linuxMR{mrVA: mrVA, mttVA: mttVA, mttLen: uint64(len(mtt)) * 8,
		pages: pages, fileID: f.ID, proc: f.Proc}
	d.MRBytesRegistered += mi.Length
	d.hca.ProgramKey(lkey, MRHandle{Space: d.K.Space, MTTVA: mttVA,
		Entries: uint64(len(mtt)), IOVA: uint64(mi.VAddr), Length: mi.Length, Access: mi.Access})
	if err := WriteLKeyBack(f.Proc, arg, lkey); err != nil {
		return 0, err
	}
	return uint64(lkey), nil
}

func (d *Driver) deregMR(ctx *kernel.Ctx, f *linux.File, arg uproc.VirtAddr) (uint64, error) {
	ctx.Spend(1200 * time.Nanosecond)
	mi, err := DecodeMRInfo(f.Proc, arg)
	if err != nil {
		return 0, err
	}
	rec, ok := d.mrs[mi.LKey]
	if !ok {
		return 0, fmt.Errorf("mlx: unknown lkey %d", mi.LKey)
	}
	if err := DestroyMR(ctx, d.K.Space, d.reg, d.devVA, rec.mrVA); err != nil {
		return 0, err
	}
	d.K.PutUserPages(f.Proc, rec.pages)
	d.hca.InvalidateKey(mi.LKey)
	delete(d.mrs, mi.LKey)
	return 0, nil
}

// Mmap exposes QP ring memory (allocated by the engine in Linux kernel
// memory) to userspace; the data path then runs entirely on mapped
// pages.
func (d *Driver) Mmap(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	region, qpn := SplitMmapKind(kind)
	ext, err := d.hca.Region(qpn, region)
	if err != nil {
		return 0, err
	}
	if length > ext.Len {
		return 0, fmt.Errorf("mlx: mmap kind %#x: length %d exceeds region %d", kind, length, ext.Len)
	}
	ctx.Spend(2 * time.Microsecond)
	return f.Proc.MapDevice([]mem.Extent{ext})
}

// mttEntryCost is the per-entry MTT programming time.
const mttEntryCost = 28 * time.Nanosecond

// SplitMTTExtents expands physically contiguous extents into
// power-of-two-sized pieces, largest first. An MTT entry stores its
// size as a log2 field, so it can only describe a power-of-two run;
// passing a merged extent of arbitrary length would silently round the
// entry up and shift every later entry's offset during a DMA walk.
// Page-granular extents pass through unchanged.
func SplitMTTExtents(extents []mem.Extent) []mem.Extent {
	const page = uint64(mem.PageSize4K)
	out := make([]mem.Extent, 0, len(extents))
	for _, e := range extents {
		addr, n := e.Addr, e.Len
		// Page walks trim the final extent to the registered byte length;
		// its frame is whole, and every access is bounds-limited by the MR
		// length, so the entry may safely describe the full page.
		n = (n + page - 1) &^ (page - 1)
		for n > 0 {
			piece := page
			for piece*2 <= n {
				piece *= 2
			}
			out = append(out, mem.Extent{Addr: addr, Len: piece})
			addr += mem.PhysAddr(piece)
			n -= piece
		}
	}
	return out
}

// BuildMR allocates an mlx_mr and its MTT in the calling kernel's memory
// and links it to the device under the MR lock. It is expressed over
// structure layouts so the LWK fast path executes the same protocol with
// DWARF-extracted layouts. Each extent becomes one MTT entry (the Linux
// driver passes per-page extents; the fast path passes merged extents
// through SplitMTTExtents, so contiguous large-page runs collapse into
// few entries). Extents must be power-of-two sized — the entry format
// cannot represent anything else.
func BuildMR(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, devVA kmem.VirtAddr,
	extents []mem.Extent, iova, length uint64, owner uint64, access uint64) (uint32, kmem.VirtAddr, kmem.VirtAddr, error) {

	for _, e := range extents {
		if e.Len == 0 || e.Len&(e.Len-1) != 0 {
			return 0, 0, 0, fmt.Errorf("mlx: MTT extent length %d is not a power of two (split with SplitMTTExtents)", e.Len)
		}
	}

	mrLayout, err := reg.Lookup("mlx_mr")
	if err != nil {
		return 0, 0, 0, err
	}
	devLayout, err := reg.Lookup("mlx_device")
	if err != nil {
		return 0, 0, 0, err
	}
	// MTT: one u64 per extent: physical address | log2(size) | present.
	mttVA, err := space.Kmalloc(uint64(len(extents))*8, ctx.CPU)
	if err != nil {
		return 0, 0, 0, err
	}
	for i, e := range extents {
		ctx.Spend(mttEntryCost)
		entry := uint64(e.Addr) | encodeMTTSize(e.Len) | mttPresent
		if err := space.WriteU64(mttVA+kmem.VirtAddr(i*8), entry); err != nil {
			return 0, 0, 0, err
		}
	}
	mr, err := kstruct.New(space, mrLayout, ctx.CPU)
	if err != nil {
		return 0, 0, 0, err
	}
	dev := kstruct.Obj{Space: space, Addr: devVA, Layout: devLayout}
	lockVA, err := dev.FieldAddr("mr_lock", 0)
	if err != nil {
		return 0, 0, 0, err
	}
	lock := &kernel.SpinLock{Space: space, Addr: lockVA,
		Layout: kernel.LinuxSpinLockLayout, SpinDelay: kernel.DefaultSpinDelay}
	if err := lock.Lock(ctx.P); err != nil {
		return 0, 0, 0, err
	}
	lkeyU, err := dev.GetU("next_lkey")
	if err != nil {
		lock.Unlock()
		return 0, 0, 0, err
	}
	if err := dev.SetU("next_lkey", lkeyU+1); err != nil {
		lock.Unlock()
		return 0, 0, 0, err
	}
	count, _ := dev.GetU("mr_count")
	if err := dev.SetU("mr_count", count+1); err != nil {
		lock.Unlock()
		return 0, 0, 0, err
	}
	if err := lock.Unlock(); err != nil {
		return 0, 0, 0, err
	}

	for _, fv := range []struct {
		name string
		v    uint64
	}{
		{"lkey", lkeyU}, {"npages", uint64(len(extents))},
		{"mtt_kva", uint64(mttVA)}, {"iova", iova}, {"length", length},
		{"access", access}, {"owner", owner},
	} {
		if err := mr.SetU(fv.name, fv.v); err != nil {
			return 0, 0, 0, err
		}
	}
	return uint32(lkeyU), mr.Addr, mttVA, nil
}

// DestroyMR unlinks and frees an MR and its MTT.
func DestroyMR(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, devVA kmem.VirtAddr,
	mrVA kmem.VirtAddr) error {
	mrLayout, err := reg.Lookup("mlx_mr")
	if err != nil {
		return err
	}
	devLayout, err := reg.Lookup("mlx_device")
	if err != nil {
		return err
	}
	mr := kstruct.Obj{Space: space, Addr: mrVA, Layout: mrLayout}
	mttVA, err := mr.GetPtr("mtt_kva")
	if err != nil {
		return err
	}
	npages, err := mr.GetU("npages")
	if err != nil {
		return err
	}
	ctx.Spend(time.Duration(npages) * mttEntryCost / 2)

	dev := kstruct.Obj{Space: space, Addr: devVA, Layout: devLayout}
	lockVA, err := dev.FieldAddr("mr_lock", 0)
	if err != nil {
		return err
	}
	lock := &kernel.SpinLock{Space: space, Addr: lockVA,
		Layout: kernel.LinuxSpinLockLayout, SpinDelay: kernel.DefaultSpinDelay}
	if err := lock.Lock(ctx.P); err != nil {
		return err
	}
	count, err := dev.GetU("mr_count")
	if err != nil {
		lock.Unlock()
		return err
	}
	if count == 0 {
		lock.Unlock()
		return fmt.Errorf("mlx: mr_count underflow")
	}
	if err := dev.SetU("mr_count", count-1); err != nil {
		lock.Unlock()
		return err
	}
	if err := lock.Unlock(); err != nil {
		return err
	}
	if err := space.Kfree(mttVA, ctx.CPU); err != nil {
		return err
	}
	return space.Kfree(mrVA, ctx.CPU)
}

// mttMaxLg caps the size exponent: 4KB << 51 = 2^63 is the largest
// encodable extent. Beyond it the shift would wrap to zero and the
// search below would never terminate.
const mttMaxLg = 51

// encodeMTTSize packs log2(len)-12 into bits 1..7, clamped at the
// largest encodable size so oversized lengths cannot corrupt the
// address bits or hang the encoder.
func encodeMTTSize(n uint64) uint64 {
	lg := uint64(0)
	for lg < mttMaxLg && (uint64(mem.PageSize4K)<<lg) < n {
		lg++
	}
	return lg << 1
}

// DecodeMTTEntry splits an MTT entry into (physical address, bytes,
// present). Exported so tests and the RDMA model can resolve lkeys.
func DecodeMTTEntry(entry uint64) (mem.PhysAddr, uint64, bool) {
	present := entry&mttPresent != 0
	lg := (entry >> 1) & 0x7f
	pa := mem.PhysAddr(entry &^ uint64(0xff))
	return pa, uint64(mem.PageSize4K) << lg, present
}
