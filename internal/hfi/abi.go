// Package hfi models the Intel OmniPath Host Fabric Interface: the NIC
// hardware (SDMA engines, RcvArray/TID expected receive, eager rings,
// receive header queues) and the unmodified Linux HFI1 device driver.
//
// This file defines the user/kernel ABI: the binary layouts of writev
// SDMA request headers, ioctl argument structures and receive-header-
// queue entries. PSM encodes these into user memory; the driver decodes
// them through the calling process's page tables, exactly like the real
// driver copies them from user space.
package hfi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/linux"
	"repro/internal/uproc"
)

// IOVec is one element of a writev vector: the VFS's own type, so a
// vector built by PSM reaches the driver without conversion.
type IOVec = linux.IOVec

// Ioctl command numbers. The real driver multiplexes over a dozen
// functionalities through ioctl; only the three TID commands are on the
// performance-critical path (§2.2.2).
const (
	CmdAssignCtxt  uint32 = 0xE001 // assign a receive context (open time)
	CmdCtxtInfo    uint32 = 0xE002 // query context geometry
	CmdUserInfo    uint32 = 0xE003 // query per-user version info
	CmdSetPKey     uint32 = 0xE004
	CmdAckEvent    uint32 = 0xE005
	CmdCreditUpd   uint32 = 0xE006
	CmdRecvCtrl    uint32 = 0xE007
	CmdPollType    uint32 = 0xE008
	CmdGetVers     uint32 = 0xE009
	CmdEPInfo      uint32 = 0xE00A
	CmdSDMAStatus  uint32 = 0xE00B
	CmdTIDUpdate   uint32 = 0xE010 // register expected-receive buffer
	CmdTIDFree     uint32 = 0xE011 // unregister
	CmdTIDInvalRdy uint32 = 0xE012 // invalidation handshake
)

// TIDCmds lists the reception-buffer-registration commands, the only
// ioctls the PicoDriver fast path implements.
var TIDCmds = map[uint32]bool{CmdTIDUpdate: true, CmdTIDFree: true, CmdTIDInvalRdy: true}

// SDMA opcode in a writev request header.
const (
	OpEager    uint32 = 1 // target: destination eager ring
	OpExpected uint32 = 2 // target: destination TID entries
)

// SDMAHeaderSize is the encoded size of an SDMA request header, carried
// in iov[0] of the writev call (the paper: "the first of these describes
// metadata about the operation").
const SDMAHeaderSize = 72

// SDMAHeader is the metadata block of a writev SDMA submission.
type SDMAHeader struct {
	Op        uint32
	DstNode   uint32
	DstCtx    uint32
	SrcRank   uint32
	Tag       uint64
	MsgID     uint64
	MsgLen    uint64
	TIDListVA uproc.VirtAddr // user address of []TIDPair (expected only)
	TIDCount  uint32
	CompSeq   uint32 // completion sequence number chosen by PSM
	Flags     uint32
	// Aux is protocol-defined; PSM uses it for the rendezvous window
	// offset so the receiver can attribute expected-receive completions.
	Aux uint64
}

// Header flag bits.
const (
	// FlagSynthetic marks a transfer whose payload bytes are not
	// materialized (large-scale simulation mode); timing is identical.
	FlagSynthetic uint32 = 1 << 0
	// FlagStripe asks the SDMA engine to alternate this transfer's
	// requests across both rails of a dual-rail NIC.
	FlagStripe uint32 = 1 << 1
)

// EncodeSDMAHeader writes the header at va in the process's memory.
func EncodeSDMAHeader(p *uproc.Process, va uproc.VirtAddr, h *SDMAHeader) error {
	var b [SDMAHeaderSize]byte
	le := binary.LittleEndian
	le.PutUint32(b[0:], h.Op)
	le.PutUint32(b[4:], h.DstNode)
	le.PutUint32(b[8:], h.DstCtx)
	le.PutUint32(b[12:], h.SrcRank)
	le.PutUint64(b[16:], h.Tag)
	le.PutUint64(b[24:], h.MsgID)
	le.PutUint64(b[32:], h.MsgLen)
	le.PutUint64(b[40:], uint64(h.TIDListVA))
	le.PutUint32(b[48:], h.TIDCount)
	le.PutUint32(b[52:], h.CompSeq)
	le.PutUint32(b[56:], h.Flags)
	le.PutUint64(b[64:], h.Aux)
	return p.WriteAt(va, b[:])
}

// DecodeSDMAHeader reads the header from user memory.
func DecodeSDMAHeader(p *uproc.Process, va uproc.VirtAddr) (*SDMAHeader, error) {
	var b [SDMAHeaderSize]byte
	if err := p.ReadAt(va, b[:]); err != nil {
		return nil, fmt.Errorf("hfi: reading sdma header: %w", err)
	}
	le := binary.LittleEndian
	h := &SDMAHeader{
		Op:        le.Uint32(b[0:]),
		DstNode:   le.Uint32(b[4:]),
		DstCtx:    le.Uint32(b[8:]),
		SrcRank:   le.Uint32(b[12:]),
		Tag:       le.Uint64(b[16:]),
		MsgID:     le.Uint64(b[24:]),
		MsgLen:    le.Uint64(b[32:]),
		TIDListVA: uproc.VirtAddr(le.Uint64(b[40:])),
		TIDCount:  le.Uint32(b[48:]),
		CompSeq:   le.Uint32(b[52:]),
		Flags:     le.Uint32(b[56:]),
		Aux:       le.Uint64(b[64:]),
	}
	if h.Op != OpEager && h.Op != OpExpected {
		return nil, fmt.Errorf("hfi: bad sdma opcode %d", h.Op)
	}
	return h, nil
}

// TIDPair describes one programmed RcvArray entry: its index and the
// number of bytes it covers. Encoded as two little-endian u64s.
type TIDPair struct {
	Idx uint64
	Len uint64
}

// A TIDPair's Idx packs the RcvArray index in the low 32 bits and the
// entry's generation in the high 32, mirroring the hardware's RcvArray
// generation bits: an entry's generation advances every time it is
// reprogrammed, so a stale packet (late duplicate on a lossy fabric)
// aimed at a freed-and-reused entry carries the old generation and is
// dropped by the NIC instead of landing in the new owner's buffer.
const tidGenShift = 32

// PackTID combines an RcvArray index with its generation.
func PackTID(idx int, gen uint32) uint64 {
	return uint64(uint32(idx)) | uint64(gen)<<tidGenShift
}

// UnpackTID splits a packed TID reference into index and generation.
func UnpackTID(packed uint64) (idx int, gen uint32) {
	return int(uint32(packed)), uint32(packed >> tidGenShift)
}

// TIDPairSize is the encoded size of one TIDPair.
const TIDPairSize = 16

// AppendTIDList appends the wire encoding of pairs to dst and returns
// the extended slice; with sufficient capacity it allocates nothing.
func AppendTIDList(dst []byte, pairs []TIDPair) []byte {
	for _, tp := range pairs {
		dst = binary.LittleEndian.AppendUint64(dst, tp.Idx)
		dst = binary.LittleEndian.AppendUint64(dst, tp.Len)
	}
	return dst
}

// AppendTIDPairs appends the pairs decoded from buf to dst and returns
// the extended slice; with sufficient capacity it allocates nothing.
func AppendTIDPairs(dst []TIDPair, buf []byte) []TIDPair {
	n := len(buf) / TIDPairSize
	for i := 0; i < n; i++ {
		dst = append(dst, TIDPair{
			Idx: binary.LittleEndian.Uint64(buf[i*TIDPairSize:]),
			Len: binary.LittleEndian.Uint64(buf[i*TIDPairSize+8:]),
		})
	}
	return dst
}

// WriteTIDList stores pairs at va in user memory.
func WriteTIDList(p *uproc.Process, va uproc.VirtAddr, pairs []TIDPair) error {
	_, err := WriteTIDListScratch(p, va, pairs, nil)
	return err
}

// WriteTIDListScratch stores pairs at va, encoding through scratch
// (reused when large enough); it returns the possibly grown scratch.
func WriteTIDListScratch(p *uproc.Process, va uproc.VirtAddr, pairs []TIDPair, scratch []byte) ([]byte, error) {
	buf := AppendTIDList(scratch[:0], pairs)
	return buf, p.WriteAt(va, buf)
}

// ReadTIDList loads count pairs from va.
func ReadTIDList(p *uproc.Process, va uproc.VirtAddr, count int) ([]TIDPair, error) {
	pairs, _, err := ReadTIDListScratch(p, va, count, nil, nil)
	return pairs, err
}

// ReadTIDListScratch loads count pairs from va, decoding into dst
// through scratch; it returns the filled dst and the grown scratch so
// both can be reused. The returned pairs alias dst's backing array.
func ReadTIDListScratch(p *uproc.Process, va uproc.VirtAddr, count int, dst []TIDPair, scratch []byte) ([]TIDPair, []byte, error) {
	need := count * TIDPairSize
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	buf := scratch[:need]
	if err := p.ReadAt(va, buf); err != nil {
		return nil, buf, err
	}
	return AppendTIDPairs(dst[:0], buf), buf, nil
}

// TIDInfoSize is the encoded size of a TIDInfo ioctl argument.
const TIDInfoSize = 32

// TIDInfo is the argument of CmdTIDUpdate / CmdTIDFree: a user virtual
// range to (un)register and a user buffer receiving the TID list.
type TIDInfo struct {
	VAddr     uproc.VirtAddr
	Length    uint64
	TIDListVA uproc.VirtAddr
	TIDCount  uint32 // in: capacity / list length; out: entries written
}

// EncodeTIDInfo writes the argument struct into user memory.
func EncodeTIDInfo(p *uproc.Process, va uproc.VirtAddr, ti *TIDInfo) error {
	var b [TIDInfoSize]byte
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(ti.VAddr))
	le.PutUint64(b[8:], ti.Length)
	le.PutUint64(b[16:], uint64(ti.TIDListVA))
	le.PutUint32(b[24:], ti.TIDCount)
	return p.WriteAt(va, b[:])
}

// DecodeTIDInfo reads the argument struct from user memory.
func DecodeTIDInfo(p *uproc.Process, va uproc.VirtAddr) (*TIDInfo, error) {
	var b [TIDInfoSize]byte
	if err := p.ReadAt(va, b[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	return &TIDInfo{
		VAddr:     uproc.VirtAddr(le.Uint64(b[0:])),
		Length:    le.Uint64(b[8:]),
		TIDListVA: uproc.VirtAddr(le.Uint64(b[16:])),
		TIDCount:  le.Uint32(b[24:]),
	}, nil
}

// WriteTIDCountBack updates the TIDCount field of a TIDInfo in user
// memory (the ioctl's "out" half).
func WriteTIDCountBack(p *uproc.Process, va uproc.VirtAddr, count uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], count)
	return p.WriteAt(va+24, b[:])
}

// Receive header queue entry layout (72 bytes, written by the NIC into
// host memory, read by PSM through its mmap).
const (
	HdrqEntrySize = 72

	// HdrqTypeEager announces a filled eager slot.
	HdrqTypeEager uint32 = 1
	// HdrqTypeExpectedDone announces completion of an expected
	// (TID-placed) message.
	HdrqTypeExpectedDone uint32 = 2
	// HdrqTypeExpectedData announces one TID-placed packet on a lossy
	// fabric, where PSM tracks per-window coverage itself instead of
	// trusting a single Last-packet completion (the Last packet may be
	// the one that was dropped). Aux carries the window offset, Offset
	// the packet's offset within the window.
	HdrqTypeExpectedData uint32 = 3
)

// CQErrBit marks an errored send completion in the 64-bit CQ word: the
// low 32 bits still carry the completion sequence number.
const CQErrBit uint64 = 1 << 32

// HdrqEntry is the decoded form of a receive header queue entry.
type HdrqEntry struct {
	Type     uint32
	SrcRank  uint32
	Tag      uint64
	MsgID    uint64
	MsgLen   uint64
	Offset   uint64
	Aux      uint64
	EagerIdx uint32
	Op       uint32
	Bytes    uint64
	PSN      uint32
	// ECN carries a fabric congestion mark up to PSM (byte 68 of the
	// wire entry, previously spare; zero when congestion control is off,
	// keeping encodings byte-identical).
	ECN bool
}

// EncodeHdrqEntry serializes an entry into a fresh buffer. Hot paths
// use EncodeHdrqEntryInto with a reused buffer instead.
func EncodeHdrqEntry(e *HdrqEntry) []byte {
	b := make([]byte, HdrqEntrySize)
	EncodeHdrqEntryInto(b, e)
	return b
}

// EncodeHdrqEntryInto serializes an entry into b, which must be at
// least HdrqEntrySize long. It allocates nothing.
func EncodeHdrqEntryInto(b []byte, e *HdrqEntry) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], e.Type)
	le.PutUint32(b[4:], e.SrcRank)
	le.PutUint64(b[8:], e.Tag)
	le.PutUint64(b[16:], e.MsgID)
	le.PutUint64(b[24:], e.MsgLen)
	le.PutUint64(b[32:], e.Offset)
	le.PutUint64(b[40:], e.Aux)
	le.PutUint32(b[48:], e.EagerIdx)
	le.PutUint32(b[52:], e.Op)
	le.PutUint64(b[56:], e.Bytes)
	le.PutUint32(b[64:], e.PSN)
	b[68] = 0
	if e.ECN {
		b[68] = 1
	}
	b[69], b[70], b[71] = 0, 0, 0
}

// DecodeHdrqEntry parses an entry.
func DecodeHdrqEntry(b []byte) (*HdrqEntry, error) {
	e := &HdrqEntry{}
	if err := DecodeHdrqEntryInto(e, b); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodeHdrqEntryInto parses an entry into a caller-owned HdrqEntry,
// allocating nothing.
func DecodeHdrqEntryInto(e *HdrqEntry, b []byte) error {
	if len(b) < HdrqEntrySize {
		return fmt.Errorf("hfi: short hdrq entry (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	*e = HdrqEntry{
		Type:     le.Uint32(b[0:]),
		SrcRank:  le.Uint32(b[4:]),
		Tag:      le.Uint64(b[8:]),
		MsgID:    le.Uint64(b[16:]),
		MsgLen:   le.Uint64(b[24:]),
		Offset:   le.Uint64(b[32:]),
		Aux:      le.Uint64(b[40:]),
		EagerIdx: le.Uint32(b[48:]),
		Op:       le.Uint32(b[52:]),
		Bytes:    le.Uint64(b[56:]),
		PSN:      le.Uint32(b[64:]),
		ECN:      b[68] != 0,
	}
	return nil
}

// Status page offsets (one 64-byte page per context, shared between NIC,
// driver and PSM).
const (
	StatusHdrqHead  = 0  // u64, NIC-written count of hdrq entries
	StatusHdrqTail  = 8  // u64, PSM-written consumed count
	StatusEagerHead = 16 // u64, NIC-written count of filled eager slots
	StatusEagerTail = 24 // u64, PSM-written freed count
	StatusCQHead    = 32 // u64, driver-written count of send completions
	StatusCQTail    = 40 // u64, PSM-written consumed count
	StatusPageSize  = 64
)
