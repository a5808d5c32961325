// Package psm implements a Performance Scaled Messaging (PSM2) style
// user-space communication library over the simulated HFI device
// (§2.2.1 of the paper).
//
// Transfer modes follow PSM:
//
//   - PIO eager for small messages (≤ PIOMaxSize): entirely user-space
//     driven, no system calls.
//   - SDMA eager for medium messages (≤ SDMAThreshold): one writev
//     system call submits the transfer; payload lands in the receiver's
//     eager ring and is copied out.
//   - Rendezvous / expected receive for large messages: the receiver
//     registers its buffer with the driver via ioctl (TID update), sends
//     a CTS carrying the TID list, and the sender writev-submits SDMA
//     directly into the receiver's user buffer. Transfers are split into
//     TID windows, each with its own registration/CTS/submission.
//
// writev and ioctl are exactly the operations that are offloaded (and
// therefore expensive) on the original McKernel and fast-pathed by the
// HFI PicoDriver.
package psm

import (
	"fmt"
	"time"

	"repro/internal/hfi"
	"repro/internal/linux"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// PSM-level opcodes carried in packet headers. Data chunks reuse the
// driver-visible eager/expected opcodes; control messages use their own.
const (
	OpRTS uint32 = 3 // rendezvous request-to-send
	OpCTS uint32 = 4 // clear-to-send, payload = TID list for one window

	// Reliability-protocol opcodes, used only on a lossy fabric. ACK and
	// NAK are unsequenced (PSN 0) so they never recurse into the
	// reliability machinery; the FINs are sequenced end-of-message
	// receipts for transfers whose data bypasses flow sequencing (SDMA).
	OpAck      uint32 = 10 // Aux = cumulative PSN received in order
	OpNak      uint32 = 11 // Aux = next expected PSN (go-back-N point)
	OpEagerFin uint32 = 12 // eager-SDMA message fully assembled
	OpRdvFin   uint32 = 13 // rendezvous message fully placed

	// OpCnp is the congestion-notification packet, sent (unsequenced,
	// like ACK/NAK) when ECN-marked traffic arrives from a peer; the
	// peer halves its eager send window (see congestion.go). Used only
	// when the fabric runs congestion control — lossy or not.
	OpCnp uint32 = 14
)

// Handle is an open device file as returned by the OS personality: the
// descriptor Linux hands out, which McKernel merely forwards (§2.1).
type Handle = *linux.File

// OSOps is the system interface PSM is compiled against. One
// implementation (cluster.RankOS) serves every OS configuration of the
// evaluation (Linux, McKernel, McKernel+HFI): PSM is identical across
// them, just like the unmodified binaries the paper runs.
type OSOps interface {
	Name() string
	NodeID() int
	Proc() *uproc.Process
	NIC() *hfi.NIC

	Open(p *sim.Proc, path string) (Handle, error)
	Close(p *sim.Proc, h Handle) error
	Writev(p *sim.Proc, h Handle, iov []hfi.IOVec) (uint64, error)
	Ioctl(p *sim.Proc, h Handle, cmd uint32, arg uproc.VirtAddr) (uint64, error)
	MmapDevice(p *sim.Proc, h Handle, kind uint32, length uint64) (uproc.VirtAddr, error)
	Poll(p *sim.Proc, h Handle) (uint32, error)

	MmapAnon(p *sim.Proc, size uint64) (uproc.VirtAddr, error)
	Munmap(p *sim.Proc, va uproc.VirtAddr) error
	// Compute models application computation (with OS-specific noise).
	Compute(p *sim.Proc, d time.Duration)
	// Misc issues a miscellaneous named system call of the given Linux-
	// side cost (populates kernel profiles).
	Misc(p *sim.Proc, name string, cost time.Duration)
}

// Addr locates a rank on the fabric.
type Addr struct {
	Node int
	Ctx  int
}

// AddressBook resolves ranks to fabric addresses; MPI_Init fills it.
type AddressBook interface {
	Lookup(rank int) (Addr, bool)
}

// MapBook is a map-backed AddressBook.
type MapBook map[int]Addr

// Lookup implements AddressBook.
func (m MapBook) Lookup(rank int) (Addr, bool) {
	a, ok := m[rank]
	return a, ok
}

// Request is an asynchronous operation handle.
type Request struct {
	Done bool
	Err  error
	// Bytes is the message length.
	Bytes uint64
	kind  reqKind
	// begin stamps Isend/Irecv entry for the operation's trace span.
	begin time.Duration
}

// fail completes the request with err, unless it already completed.
func (r *Request) fail(err error) {
	if !r.Done {
		r.Err, r.Done = err, true
	}
}

type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Stats accumulates per-endpoint instrumentation.
type Stats struct {
	SendsPIO       uint64
	SendsEagerSDMA uint64
	SendsRdv       uint64
	SendsLocal     uint64
	Recvs          uint64
	BytesSent      uint64
	BytesRecv      uint64
	Unexpected     uint64
	Writevs        uint64
	TIDIoctls      uint64

	// Reliability-protocol counters (all zero on a loss-free fabric).
	Retransmits uint64 // packets resent by go-back-N
	Timeouts    uint64 // retransmit-timer expirations
	AcksSent    uint64
	NaksSent    uint64
	MsgResends  uint64 // message-level recoveries (eager replay, re-CTS)
}

// RetryBudgetError is the typed terminal error surfaced when a flow or
// message-level retransmit timer exhausts its retry budget
// (model.Params.PSMMaxRetries): the peer is presumed unreachable.
type RetryBudgetError struct {
	Rank    int
	Peer    int
	Retries int
	// What names the abandoned state machine: "flow", "eager-fin" or
	// "rdv-window".
	What string
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("psm: rank %d: %s to rank %d dead after %d retries",
		e.Rank, e.What, e.Peer, e.Retries)
}

// SDMAError is surfaced on a send request whose SDMA transaction failed
// terminally in the driver (retry budget exhausted with PIO degradation
// disabled).
type SDMAError struct {
	Rank int
	Seq  uint32
}

func (e *SDMAError) Error() string {
	return fmt.Sprintf("psm: rank %d: SDMA transaction %d failed in hardware", e.Rank, e.Seq)
}

// RdvWindowDepth is the number of TID windows a rendezvous receive keeps
// outstanding: registration and CTS of window N+1 overlap the data
// transfer of window N, exactly as PSM pipelines its TID windows.
const RdvWindowDepth = 2

// pollDelay is the modeled gap between an event landing in host memory
// and a polling PSM noticing it.
const pollDelay = 120 * time.Nanosecond

// Scratch-area layout (user memory reserved at init for headers and TID
// lists exchanged with the driver).
const (
	scratchSize      = 256 << 10
	scratchHdrOff    = 0
	scratchSendTIDs  = 4 << 10  // sender-side TID list for writev
	scratchTIDArg    = 72 << 10 // TIDInfo ioctl argument
	scratchIoctlTIDs = 80 << 10 // receiver-side TID list from ioctl
)
