// Wire and ring ABI of the simulated HCA: work-queue entries, completion
// entries and the doorbell page are fixed little-endian layouts in
// simulated memory. Userspace writes WQEs into mapped rings and the HCA
// DMA-reads them; the HCA DMA-writes CQEs and userspace polls them — the
// two sides only ever share bytes, never Go pointers, exactly like the
// hfi header-queue ABI.
package verbs

import "encoding/binary"

// Work-request opcodes (WQE field and wire Hdr.Op).
const (
	OpcodeWrite uint32 = 2 // RDMA WRITE
	OpcodeRead  uint32 = 3 // RDMA READ

	// Wire-only opcodes.
	opReadResp uint32 = 5
	opAck      uint32 = 6
	opNak      uint32 = 7
)

// Completion statuses.
const (
	StatusOK            uint32 = 0
	StatusLocalProt     uint32 = 1 // local key/bounds/access violation
	StatusLocalQPErr    uint32 = 2 // WQE processed on a QP not in RTS
	StatusRemoteAccess  uint32 = 4 // remote bounds or permission violation
	StatusRemoteInvalid uint32 = 5 // unknown rkey/QPN or wrong peer
)

// StatusString names a completion status for diagnostics.
func StatusString(s uint32) string {
	switch s {
	case StatusOK:
		return "success"
	case StatusLocalProt:
		return "local-protection"
	case StatusLocalQPErr:
		return "local-qp-error"
	case StatusRemoteAccess:
		return "remote-access"
	case StatusRemoteInvalid:
		return "remote-invalid"
	}
	return "unknown"
}

// WQESize is the fixed work-queue-entry stride.
const WQESize = 64

// WQE is one work request as encoded into an SQ ring.
type WQE struct {
	Opcode uint32
	WRID   uint64
	LKey   uint32
	LAddr  uint64
	Len    uint64
	RKey   uint32
	RAddr  uint64
}

// EncodeWQE serializes a WQE into its ring slot bytes.
func EncodeWQE(b []byte, w *WQE) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], w.Opcode)
	le.PutUint64(b[8:], w.WRID)
	le.PutUint32(b[16:], w.LKey)
	le.PutUint64(b[24:], w.LAddr)
	le.PutUint64(b[32:], w.Len)
	le.PutUint32(b[40:], w.RKey)
	le.PutUint64(b[48:], w.RAddr)
}

// DecodeWQE parses a ring slot.
func DecodeWQE(b []byte) WQE {
	le := binary.LittleEndian
	return WQE{
		Opcode: le.Uint32(b[0:]),
		WRID:   le.Uint64(b[8:]),
		LKey:   le.Uint32(b[16:]),
		LAddr:  le.Uint64(b[24:]),
		Len:    le.Uint64(b[32:]),
		RKey:   le.Uint32(b[40:]),
		RAddr:  le.Uint64(b[48:]),
	}
}

// CQESize is the fixed completion-queue-entry stride.
const CQESize = 32

// CQE is one completion as read from a mapped CQ ring.
type CQE struct {
	WRID   uint64
	Status uint32
	Opcode uint32
	Bytes  uint64
}

// EncodeCQE serializes a completion into its ring slot bytes.
func EncodeCQE(b []byte, c *CQE) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], c.WRID)
	le.PutUint32(b[8:], c.Status)
	le.PutUint32(b[12:], c.Opcode)
	le.PutUint64(b[16:], c.Bytes)
}

// DecodeCQE parses a CQ ring slot.
func DecodeCQE(b []byte) CQE {
	le := binary.LittleEndian
	return CQE{
		WRID:   le.Uint64(b[0:]),
		Status: le.Uint32(b[8:]),
		Opcode: le.Uint32(b[12:]),
		Bytes:  le.Uint64(b[16:]),
	}
}

// Doorbell/status page layout (one 4 KiB page per QP). The SQ producer
// tail is written by userspace and DMA-read by the HCA at doorbell
// time; the CQ producer and SQ consumer counts are DMA-written by the
// HCA and polled by userspace with no kernel involvement.
const (
	dbSQTail = 0  // user → HCA: SQ producer index
	dbCQProd = 8  // HCA → user: CQ producer index
	dbSQCons = 16 // HCA → user: SQ consumer index (ring-full detection)
)
