// Userspace verbs library. Setup (device open, memory registration, QP
// creation and state transitions, ring mmaps) goes through the OS
// personality — system calls, offloaded or fast-pathed depending on the
// configuration. After setup the data path (PostSend/PollCQ/WaitCQ)
// touches only mapped memory and the doorbell MMIO: zero system
// calls, identical on every OS configuration. That asymmetry is the
// paper's whole argument for porting only the registration routines.
package verbs

import (
	"fmt"
	"time"

	"repro/internal/mlx"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// OSOps extends the PSM system interface with access to the node's HCA
// (the user-mapped device: doorbell MMIO and completion polling).
type OSOps interface {
	psm.OSOps
	RNIC() *RNIC
}

// cqPollDelay models the gap between a CQE landing in host memory and a
// polling thread noticing it.
const cqPollDelay = 100 * time.Nanosecond

// UContext is an open verbs device context.
type UContext struct {
	os    OSOps
	h     psm.Handle
	rnic  *RNIC
	proc  *uproc.Process
	argVA uproc.VirtAddr // scratch page for ioctl arguments
}

// Open opens the verbs device and allocates the ioctl scratch page.
func Open(p *sim.Proc, os OSOps) (*UContext, error) {
	h, err := os.Open(p, mlx.DevicePath)
	if err != nil {
		return nil, err
	}
	argVA, err := os.MmapAnon(p, 4096)
	if err != nil {
		return nil, err
	}
	return &UContext{os: os, h: h, rnic: os.RNIC(), proc: os.Proc(), argVA: argVA}, nil
}

// Close releases the device (the driver tears down anything left live).
func (u *UContext) Close(p *sim.Proc) error {
	if err := u.os.Munmap(p, u.argVA); err != nil {
		return err
	}
	return u.os.Close(p, u.h)
}

// MR is a registered memory region. The rkey a peer uses equals the
// lkey in this model.
type MR struct {
	LKey   uint32
	Addr   uproc.VirtAddr
	Length uint64
}

// RegMR registers [va, va+length) with the given access and returns its
// key — the registration system call the PicoDriver fast-paths.
func (u *UContext) RegMR(p *sim.Proc, va uproc.VirtAddr, length uint64, access uint32) (*MR, error) {
	mi := mlx.MRInfo{VAddr: va, Length: length, Access: access}
	if err := mlx.EncodeMRInfo(u.proc, u.argVA, &mi); err != nil {
		return nil, err
	}
	if _, err := u.os.Ioctl(p, u.h, mlx.CmdRegMR, u.argVA); err != nil {
		return nil, err
	}
	out, err := mlx.DecodeMRInfo(u.proc, u.argVA)
	if err != nil {
		return nil, err
	}
	return &MR{LKey: out.LKey, Addr: va, Length: length}, nil
}

// DeregMR releases a registration.
func (u *UContext) DeregMR(p *sim.Proc, mr *MR) error {
	mi := mlx.MRInfo{LKey: mr.LKey}
	if err := mlx.EncodeMRInfo(u.proc, u.argVA, &mi); err != nil {
		return err
	}
	_, err := u.os.Ioctl(p, u.h, mlx.CmdDeregMR, u.argVA)
	return err
}

// QPConfig sizes a queue pair's rings. A zero SQEntries takes the
// default; the CQ gets one entry per SQ entry.
type QPConfig struct {
	SQEntries uint32
}

// QP is the userspace view of a queue pair: mapped rings plus local
// producer/consumer cursors. Not safe for use by more than one process.
type QP struct {
	QPN uint32

	u                *UContext
	sqVA, cqVA, dbVA uproc.VirtAddr
	sqEntries        uint32 // also the CQ's entry count
	sqTail           uint32
	cqCons           uint32
}

// CreateQP creates a QP in RESET and maps its rings into the process.
func (u *UContext) CreateQP(p *sim.Proc, cfg QPConfig) (*QP, error) {
	if cfg.SQEntries == 0 {
		cfg.SQEntries = 64
	}
	qi := mlx.QPInfo{SQEntries: cfg.SQEntries, CQEntries: cfg.SQEntries}
	if err := mlx.EncodeQPInfo(u.proc, u.argVA, &qi); err != nil {
		return nil, err
	}
	if _, err := u.os.Ioctl(p, u.h, mlx.CmdCreateQP, u.argVA); err != nil {
		return nil, err
	}
	out, err := mlx.DecodeQPInfo(u.proc, u.argVA)
	if err != nil {
		return nil, err
	}
	qp := &QP{QPN: out.QPN, u: u, sqEntries: cfg.SQEntries}
	mapr := func(region uint32, length uint64) (uproc.VirtAddr, error) {
		return u.os.MmapDevice(p, u.h, mlx.MmapKind(region, out.QPN), length)
	}
	if qp.sqVA, err = mapr(mlx.MmapSQ, uint64(cfg.SQEntries)*WQESize); err != nil {
		return nil, err
	}
	if qp.cqVA, err = mapr(mlx.MmapCQ, uint64(qi.CQEntries)*CQESize); err != nil {
		return nil, err
	}
	if qp.dbVA, err = mapr(mlx.MmapDB, 4096); err != nil {
		return nil, err
	}
	return qp, nil
}

// modify drives one state transition through the control path.
func (u *UContext) modify(p *sim.Proc, qi *mlx.QPInfo) error {
	if err := mlx.EncodeQPInfo(u.proc, u.argVA, qi); err != nil {
		return err
	}
	_, err := u.os.Ioctl(p, u.h, mlx.CmdModifyQP, u.argVA)
	return err
}

// ToInit moves RESET→INIT.
func (qp *QP) ToInit(p *sim.Proc) error {
	return qp.u.modify(p, &mlx.QPInfo{QPN: qp.QPN, State: mlx.QPStateInit})
}

// ToRTR moves INIT→RTR, binding the remote peer QP.
func (qp *QP) ToRTR(p *sim.Proc, remoteNode int, remoteQPN uint32) error {
	return qp.u.modify(p, &mlx.QPInfo{QPN: qp.QPN, State: mlx.QPStateRTR,
		RemoteNode: uint32(remoteNode), RemoteQPN: remoteQPN})
}

// ToRTRAnySource moves INIT→RTR as a pure RDMA target accepting
// WRITE/READ from any peer (the shape MPI windows use).
func (qp *QP) ToRTRAnySource(p *sim.Proc) error {
	return qp.u.modify(p, &mlx.QPInfo{QPN: qp.QPN, State: mlx.QPStateRTR,
		Flags: mlx.QPFlagAnySource})
}

// ToRTS moves RTR→RTS.
func (qp *QP) ToRTS(p *sim.Proc) error {
	return qp.u.modify(p, &mlx.QPInfo{QPN: qp.QPN, State: mlx.QPStateRTS})
}

// Destroy frees the QP and its rings.
func (qp *QP) Destroy(p *sim.Proc) error {
	u := qp.u
	qi := mlx.QPInfo{QPN: qp.QPN}
	if err := mlx.EncodeQPInfo(u.proc, u.argVA, &qi); err != nil {
		return err
	}
	_, err := u.os.Ioctl(p, u.h, mlx.CmdDestroyQP, u.argVA)
	return err
}

// PostSend queues one work request on the SQ and rings the doorbell.
// This is the entire submit path: two mapped-memory writes plus one MMIO
// store — no system call on any OS configuration.
func (qp *QP) PostSend(p *sim.Proc, w *WQE) error {
	cons, err := qp.u.proc.ReadU64(qp.dbVA + dbSQCons)
	if err != nil {
		return err
	}
	if qp.sqTail-uint32(cons) >= qp.sqEntries {
		return fmt.Errorf("verbs: SQ full on QP %d", qp.QPN)
	}
	var b [WQESize]byte
	EncodeWQE(b[:], w)
	slot := qp.sqVA + uproc.VirtAddr((qp.sqTail%qp.sqEntries)*WQESize)
	if err := qp.u.proc.WriteAt(slot, b[:]); err != nil {
		return err
	}
	qp.sqTail++
	if err := qp.u.proc.WriteU64(qp.dbVA+dbSQTail, uint64(qp.sqTail)); err != nil {
		return err
	}
	return qp.u.rnic.RingDoorbell(p, qp.QPN)
}

// PollCQ drains available completions without blocking (and without any
// kernel involvement: it reads the HCA-written producer index from the
// mapped doorbell page).
func (qp *QP) PollCQ(p *sim.Proc) ([]CQE, error) {
	prod, err := qp.u.proc.ReadU64(qp.dbVA + dbCQProd)
	if err != nil {
		return nil, err
	}
	var out []CQE
	for qp.cqCons != uint32(prod) {
		var b [CQESize]byte
		slot := qp.cqVA + uproc.VirtAddr((qp.cqCons%qp.sqEntries)*CQESize)
		if err := qp.u.proc.ReadAt(slot, b[:]); err != nil {
			return nil, err
		}
		out = append(out, DecodeCQE(b[:]))
		qp.cqCons++
	}
	return out, nil
}

// WaitCQ busy-polls until n completions are available, parking on the
// HCA's notify condition between polls.
func (qp *QP) WaitCQ(p *sim.Proc, n int) ([]CQE, error) {
	var out []CQE
	for {
		got, err := qp.PollCQ(p)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
		if len(out) >= n {
			return out, nil
		}
		qp.u.rnic.Notify.Wait(p)
		p.Sleep(cqPollDelay)
	}
}
