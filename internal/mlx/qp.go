// Queue-pair control path: the ioctl ABI for CreateQP/ModifyQP/DestroyQP
// and the interfaces through which the driver programs the simulated HCA
// (internal/verbs). The driver owns the control path — QP creation and
// state transitions are always system calls — while the HCA owns the
// data path, which after setup runs with no kernel involvement at all.
package mlx

import (
	"encoding/binary"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/linux"
	"repro/internal/mem"
	"repro/internal/uproc"
)

// DevicePath is where the cluster registers the verbs character device.
const DevicePath = "/dev/infiniband/uverbs0"

// MR access flags (MRInfo.Access). Zero grants local read only.
const (
	AccessLocalWrite  uint32 = 1 << 0
	AccessRemoteRead  uint32 = 1 << 1
	AccessRemoteWrite uint32 = 1 << 2
)

// QP states, in mandatory transition order (IB spec §10.3).
const (
	QPStateReset uint32 = iota
	QPStateInit
	QPStateRTR
	QPStateRTS
)

// QPInfo flags.
const (
	// QPFlagAnySource marks an RTR transition without a bound remote:
	// the QP accepts RDMA WRITE/READ from any peer (the DC-target-like
	// shape MPI RMA windows use) and initiates nothing.
	QPFlagAnySource uint32 = 1 << 0
)

// QPInfoSize is the encoded CreateQP/ModifyQP/DestroyQP argument size.
const QPInfoSize = 64

// QPInfo is the user argument of the QP ioctls. For CreateQP the ring
// geometries are in and QPN is out; for ModifyQP QPN and State are in,
// with RemoteNode/RemoteQPN consumed by the RTR transition.
type QPInfo struct {
	QPN        uint32
	State      uint32
	RemoteNode uint32
	RemoteQPN  uint32
	SQEntries  uint32
	CQEntries  uint32
	Flags      uint32
}

// EncodeQPInfo writes the argument into user memory.
func EncodeQPInfo(p *uproc.Process, va uproc.VirtAddr, qi *QPInfo) error {
	var b [QPInfoSize]byte
	le := binary.LittleEndian
	le.PutUint32(b[0:], qi.QPN)
	le.PutUint32(b[4:], qi.State)
	le.PutUint32(b[8:], qi.RemoteNode)
	le.PutUint32(b[12:], qi.RemoteQPN)
	le.PutUint32(b[16:], qi.SQEntries)
	le.PutUint32(b[20:], qi.CQEntries)
	le.PutUint32(b[24:], qi.Flags)
	return p.WriteAt(va, b[:])
}

// DecodeQPInfo reads the argument from user memory.
func DecodeQPInfo(p *uproc.Process, va uproc.VirtAddr) (*QPInfo, error) {
	var b [QPInfoSize]byte
	if err := p.ReadAt(va, b[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	return &QPInfo{
		QPN:        le.Uint32(b[0:]),
		State:      le.Uint32(b[4:]),
		RemoteNode: le.Uint32(b[8:]),
		RemoteQPN:  le.Uint32(b[12:]),
		SQEntries:  le.Uint32(b[16:]),
		CQEntries:  le.Uint32(b[20:]),
		Flags:      le.Uint32(b[24:]),
	}, nil
}

// WriteQPNBack stores the assigned QPN into the user argument.
func WriteQPNBack(p *uproc.Process, va uproc.VirtAddr, qpn uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], qpn)
	return p.WriteAt(va, b[:])
}

// Mmap region selectors: kind = region | qpn<<8 (one file can hold
// several QPs, each exposing three mappings).
const (
	MmapSQ uint32 = 1 // send work queue ring
	MmapCQ uint32 = 2 // completion queue ring
	MmapDB uint32 = 3 // doorbell/status page (tail in, producer counts out)
)

// MmapKind composes an mmap kind selector for one region of one QP.
func MmapKind(region, qpn uint32) uint32 { return region | qpn<<8 }

// SplitMmapKind is the inverse of MmapKind.
func SplitMmapKind(kind uint32) (region, qpn uint32) { return kind & 0xff, kind >> 8 }

// MRHandle is what the driver hands the HCA at registration time: enough
// to translate {iova, length} spans by walking the MTT the driver built
// in kernel memory — the HCA reads the table through host physical
// memory exactly like real hardware DMAs MKEY contexts.
type MRHandle struct {
	// Space is the kernel address space holding the MTT (Linux for the
	// offloaded path, the LWK for PicoDriver registrations).
	Space   *kmem.Space
	MTTVA   kmem.VirtAddr
	Entries uint64
	IOVA    uint64
	Length  uint64
	Access  uint32
}

// MRTable is the HCA's key table. Drivers program it after BuildMR and
// invalidate on dereg; the data path resolves lkeys/rkeys against it.
type MRTable interface {
	ProgramKey(lkey uint32, h MRHandle)
	InvalidateKey(lkey uint32)
}

// HCA is the device a Driver is initialised for (verbs.RNIC in a
// cluster): the key table plus the QP control path. The driver calls it
// from ioctl context; ring memory lives in the HCA (allocated from Linux
// kernel memory, DMA-visible to both the HCA and the mapping process).
type HCA interface {
	MRTable
	CreateQP(ctx *kernel.Ctx, info *QPInfo) (uint32, error)
	ModifyQP(ctx *kernel.Ctx, qpn uint32, info *QPInfo) error
	DestroyQP(ctx *kernel.Ctx, qpn uint32) error
	// Region exposes one QP ring for mmap into userspace.
	Region(qpn, region uint32) (mem.Extent, error)
}

// qpIoctl handles the QP command set against the HCA.
func (d *Driver) qpIoctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	qi, err := DecodeQPInfo(f.Proc, arg)
	if err != nil {
		return 0, err
	}
	switch cmd {
	case CmdCreateQP:
		qpn, err := d.hca.CreateQP(ctx, qi)
		if err != nil {
			return 0, err
		}
		d.qps[f.ID] = append(d.qps[f.ID], qpn)
		if err := WriteQPNBack(f.Proc, arg, qpn); err != nil {
			return 0, err
		}
		return uint64(qpn), nil
	case CmdModifyQP:
		return 0, d.hca.ModifyQP(ctx, qi.QPN, qi)
	case CmdDestroyQP:
		if err := d.hca.DestroyQP(ctx, qi.QPN); err != nil {
			return 0, err
		}
		owned := d.qps[f.ID]
		for i, q := range owned {
			if q == qi.QPN {
				d.qps[f.ID] = append(owned[:i], owned[i+1:]...)
				break
			}
		}
		return 0, nil
	}
	return 0, nil
}
