// Package model centralizes every calibrated timing and sizing constant
// of the simulation. The absolute values are loosely based on published
// OmniPath/KNL characteristics; what matters for reproducing the paper is
// the *relationships* between them (per-descriptor overhead vs wire time,
// offload latency vs Linux CPU count, PIO vs SDMA crossover), which the
// experiment harness in internal/experiments validates against the
// paper's shapes.
package model

import "time"

// Params bundles all model constants. Obtain a baseline with Default and
// override fields for ablation studies.
type Params struct {
	// ---- Fabric / NIC ----

	// LinkBandwidth is the OmniPath wire rate in bytes/second
	// (100 Gbit/s ≈ 12.5 GB/s).
	LinkBandwidth float64
	// LinkLatency is the one-way fabric latency between two nodes.
	LinkLatency time.Duration
	// PacketOverheadBytes approximates per-packet header/CRC framing.
	PacketOverheadBytes int
	// SDMAEngines is the number of send-DMA engines per NIC.
	SDMAEngines int
	// DualRail attaches a second fabric port (rail 1) to every NIC:
	// large SDMA transfers stripe across both rails and the PSM health
	// machine fails traffic over to the spare rail when a link goes
	// down. Off by default.
	DualRail bool
	// MaxSDMARequest is the largest physically contiguous SDMA request
	// the NIC accepts (10 KB on HFI1).
	MaxSDMARequest uint64
	// SDMADescCost is the non-overlapped per-request cost in the SDMA
	// engine (descriptor fetch, address programming). This is the cost
	// the PicoDriver's 10 KB coalescing amortizes.
	SDMADescCost time.Duration
	// SDMADoorbell is the MMIO cost of ringing an engine's doorbell.
	SDMADoorbell time.Duration
	// RcvPacketCost is the receive-side per-packet processing time.
	RcvPacketCost time.Duration
	// IRQLatency is raise-to-handler-start latency for completions.
	IRQLatency time.Duration
	// IRQHandlerCost is the handler's base cost per completion IRQ,
	// spent on a Linux CPU.
	IRQHandlerCost time.Duration
	// LinkJitter, when positive, adds a deterministic pseudo-random
	// delivery delay in [0, LinkJitter) to every packet, drawn from the
	// engine's seeded RNG. Ordering between any two nodes stays FIFO
	// (OmniPath routes are ordered); only latency varies. Used by the
	// simtest harness to perturb event interleavings.
	LinkJitter time.Duration

	// ---- Receive-context geometry / fault injection ----
	//
	// Zero selects the hardware defaults (hfi.HdrqEntries and friends).
	// The simtest harness shrinks these to drive rings near overflow and
	// to inject RcvArray (TID) exhaustion.

	// HdrqEntries sizes the per-context receive header queue.
	HdrqEntries int
	// EagerSlots sizes the per-context eager receive ring.
	EagerSlots int
	// CQEntries sizes the per-context send completion queue.
	CQEntries int
	// TIDsPerContext caps usable RcvArray entries per context; values
	// above the bitmap capacity are clamped to it.
	TIDsPerContext int
	// SDMAQueueDepth, when positive, bounds each SDMA engine's pending
	// transaction queue: submitters block (descriptor-ring backpressure)
	// until the engine drains.
	SDMAQueueDepth int

	// ---- PIO path ----

	// PIOBandwidth is the CPU-driven store bandwidth into PIO buffers.
	PIOBandwidth float64
	// PIOPerMessage is the fixed cost of a PIO send.
	PIOPerMessage time.Duration
	// PIOMaxSize is the largest message PSM sends via PIO.
	PIOMaxSize uint64

	// ---- PSM thresholds ----

	// SDMAThreshold is the largest message PSM sends eagerly (PIO up to
	// PIOMaxSize, eager SDMA above it); larger messages take the
	// rendezvous protocol with expected receive (TID registration).
	// 64 KB by default in PSM.
	SDMAThreshold uint64
	// RendezvousWindow is the PSM TID window: large expected transfers
	// are split into windows, each with its own TID registration, CTS
	// and SDMA submission.
	RendezvousWindow uint64
	// EagerChunk is the eager-buffer slot size.
	EagerChunk uint64
	// MemcpyBandwidth is the rate of the eager-receive copy into the
	// application buffer.
	MemcpyBandwidth float64

	// ---- PSM reliability (active only on a lossy fabric) ----

	// PSMRtoBase is the initial retransmission timeout of a PSM flow.
	// One-way latency is ~1µs and a full rendezvous window serializes
	// in ~41µs, so 100µs clears any in-flight burst comfortably.
	PSMRtoBase time.Duration
	// PSMRtoMax caps the exponential backoff of the retransmit timer.
	PSMRtoMax time.Duration
	// PSMMaxRetries is the retry budget per flow (and per in-flight
	// message completion timer); exhaustion surfaces a typed error on
	// the affected requests.
	PSMMaxRetries int
	// SDMARetryBudget is how many times the HFI driver resubmits an
	// SDMA transaction that errored mid-transfer before degrading the
	// remainder to PIO chunks.
	SDMARetryBudget int

	// ---- TID / expected receive ----

	// TIDMaxEntryBytes is the maximum contiguous bytes one RcvArray
	// entry can cover.
	TIDMaxEntryBytes uint64
	// TIDProgramCost is the driver cost to program one RcvArray entry.
	TIDProgramCost time.Duration

	// ---- RDMA verbs (mlx data path) ----

	// VerbsMTU is the InfiniBand path MTU: messages are segmented into
	// packets of at most this many payload bytes.
	VerbsMTU uint64
	// VerbsDoorbell is the MMIO cost of ringing a QP doorbell from
	// userspace (the entire kernel-bypass submit cost).
	VerbsDoorbell time.Duration
	// VerbsWQEFetch is the HCA's cost to DMA and decode one work queue
	// entry after a doorbell.
	VerbsWQEFetch time.Duration
	// VerbsMTTLookup is the HCA's cost per MTT entry consulted while
	// translating a virtual span to physical pages.
	VerbsMTTLookup time.Duration
	// VerbsCQEWrite is the HCA's cost to DMA one completion entry into
	// host memory.
	VerbsCQEWrite time.Duration

	// ---- System calls ----

	// SyscallEntry is the local user→kernel transition cost.
	SyscallEntry time.Duration
	// VFSDispatch is the VFS layer dispatch cost per file operation.
	VFSDispatch time.Duration
	// WritevBase is the HFI driver's fixed writev (SDMA submit) cost.
	WritevBase time.Duration
	// IoctlBase is the HFI driver's fixed ioctl cost.
	IoctlBase time.Duration
	// GetUserPagesPerPage is the per-4K-page pin/lookup cost.
	GetUserPagesPerPage time.Duration
	// PTWalkPerExtent is the PicoDriver's page-table walk cost per
	// produced extent (pinned-by-design mappings need no page refs).
	PTWalkPerExtent time.Duration
	// FastPathBase is the PicoDriver fixed cost per fast-path call
	// (no VFS, no fd table, direct dispatch).
	FastPathBase time.Duration

	// ---- Offloading (IKC) ----

	// IKCLatency is the one-way inter-kernel notification latency.
	IKCLatency time.Duration
	// OffloadFixed is the fixed proxy-side bookkeeping per offloaded
	// call (beyond the queueing on Linux CPUs).
	OffloadFixed time.Duration
	// OffloadThrashPerQueued models scheduler thrash: every runnable
	// proxy process waiting on the Linux CPUs adds context-switch and
	// wakeup overhead to the call being serviced. This is what turns
	// high offload demand into the superlinear collapse of Figure 6a.
	OffloadThrashPerQueued time.Duration

	// ---- OS noise ----

	// NoiseTickPeriod is the period of the residual scheduler tick on
	// Linux application cores (nohz_full leaves ~1 Hz + RCU work; we
	// fold daemons in at a higher effective rate).
	NoiseTickPeriod time.Duration
	// NoiseTickCost is the per-event stolen time.
	NoiseTickCost time.Duration
	// NoiseDaemonPeriod is the mean period of heavier per-node daemon
	// interruptions on Linux.
	NoiseDaemonPeriod time.Duration
	// NoiseDaemonCost is the per-daemon-event stolen time.
	NoiseDaemonCost time.Duration

	// ---- MPI / runtime ----

	// MPI_Init costs are scaled to the skeleton runtimes (the real
	// applications run minutes; the skeletons run milliseconds), keeping
	// the paper's ordering: Linux < McKernel < McKernel+HFI, the latter
	// paying for the PicoDriver's kernel-mapping bootstrap.
	//
	// MPIInitBase is MPI_Init cost on Linux.
	MPIInitBase time.Duration
	// MPIInitOffloadExtra is added on McKernel (offloaded device open,
	// proxy setup).
	MPIInitOffloadExtra time.Duration
	// MPIInitPicoExtra is added when the HFI PicoDriver initializes
	// its kernel-level mappings of driver internals (the paper's
	// Table 1 shows MPI_Init visibly larger with +HFI).
	MPIInitPicoExtra time.Duration
	// MemcpyLocalBandwidth is intra-node (shared-memory) copy rate
	// used for self/local-rank messaging.
	MemcpyLocalBandwidth float64
	// McKMmapPerPage / McKMunmapPerPage are McKernel's local memory-
	// management costs. The munmap path is deliberately unoptimized:
	// the paper's profiling exposed it (Figure 9) and lists fixing it
	// as immediate future work — lowering McKMunmapPerPage is that
	// future-work ablation.
	McKMmapPerPage   time.Duration
	McKMunmapPerPage time.Duration
}

// Default returns the baseline calibration.
func Default() Params {
	return Params{
		LinkBandwidth:       12.5e9,
		LinkLatency:         900 * time.Nanosecond,
		PacketOverheadBytes: 64,
		SDMAEngines:         16,
		MaxSDMARequest:      10240,
		SDMADescCost:        82 * time.Nanosecond,
		SDMADoorbell:        120 * time.Nanosecond,
		RcvPacketCost:       25 * time.Nanosecond,
		IRQLatency:          600 * time.Nanosecond,
		IRQHandlerCost:      900 * time.Nanosecond,

		PIOBandwidth:  3.2e9,
		PIOPerMessage: 350 * time.Nanosecond,
		PIOMaxSize:    16 << 10,

		SDMAThreshold:    64 << 10,
		RendezvousWindow: 512 << 10,
		EagerChunk:       8 << 10,
		MemcpyBandwidth:  6.0e9,

		PSMRtoBase:      100 * time.Microsecond,
		PSMRtoMax:       2 * time.Millisecond,
		PSMMaxRetries:   10,
		SDMARetryBudget: 2,

		TIDMaxEntryBytes: 256 << 10,
		TIDProgramCost:   20 * time.Nanosecond,

		VerbsMTU:       4096,
		VerbsDoorbell:  100 * time.Nanosecond,
		VerbsWQEFetch:  150 * time.Nanosecond,
		VerbsMTTLookup: 8 * time.Nanosecond,
		VerbsCQEWrite:  60 * time.Nanosecond,

		SyscallEntry:        250 * time.Nanosecond,
		VFSDispatch:         150 * time.Nanosecond,
		WritevBase:          900 * time.Nanosecond,
		IoctlBase:           700 * time.Nanosecond,
		GetUserPagesPerPage: 16 * time.Nanosecond,
		PTWalkPerExtent:     45 * time.Nanosecond,
		FastPathBase:        300 * time.Nanosecond,

		IKCLatency:             1600 * time.Nanosecond,
		OffloadFixed:           8000 * time.Nanosecond,
		OffloadThrashPerQueued: 6000 * time.Nanosecond,

		NoiseTickPeriod:   1 * time.Millisecond,
		NoiseTickCost:     2 * time.Microsecond,
		NoiseDaemonPeriod: 50 * time.Millisecond,
		NoiseDaemonCost:   70 * time.Microsecond,

		MPIInitBase:          2 * time.Millisecond,
		MPIInitOffloadExtra:  3 * time.Millisecond,
		MPIInitPicoExtra:     8 * time.Millisecond,
		MemcpyLocalBandwidth: 14.0e9,
		McKMmapPerPage:       70 * time.Nanosecond,
		McKMunmapPerPage:     260 * time.Nanosecond,
	}
}

// WireTime returns the serialization time of n payload bytes on the link.
func (p *Params) WireTime(n uint64) time.Duration {
	bytes := float64(n + uint64(p.PacketOverheadBytes))
	return time.Duration(bytes / p.LinkBandwidth * 1e9)
}

// PIOTime returns the sender-CPU cost of a PIO send of n bytes.
func (p *Params) PIOTime(n uint64) time.Duration {
	return p.PIOPerMessage + time.Duration(float64(n)/p.PIOBandwidth*1e9)
}

// MemcpyTime returns the receiver-side eager copy cost of n bytes.
func (p *Params) MemcpyTime(n uint64) time.Duration {
	return time.Duration(float64(n)/p.MemcpyBandwidth*1e9) + 100*time.Nanosecond
}

// LocalCopyTime returns the intra-node transfer cost of n bytes.
func (p *Params) LocalCopyTime(n uint64) time.Duration {
	return time.Duration(float64(n)/p.MemcpyLocalBandwidth*1e9) + 400*time.Nanosecond
}
