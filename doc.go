// Package repro is a from-scratch Go reproduction of "PicoDriver:
// Fast-path Device Drivers for Multi-kernel Operating Systems" (Gerofi,
// Santogidis, Martinet, Ishikawa — HPDC 2018).
//
// The repository implements the paper's entire stack as a deterministic
// discrete-event simulation with real data paths: an IHK/McKernel-style
// multi-kernel OS (resource partitioning, IKC system call delegation,
// proxy processes), a Linux kernel substrate (VFS, get_user_pages, a
// worker pool of OS cores), an OmniPath-style HFI NIC (SDMA engines,
// RcvArray/TID expected receive, eager rings), the unmodified Linux HFI
// driver, the PicoDriver framework and its HFI instance, a PSM2-style
// user-space messaging library, a small MPI runtime, and skeletons of
// the five CORAL mini-applications the paper evaluates.
//
// Layout:
//
//	internal/core         the PicoDriver framework + HFI PicoDriver (§3)
//	internal/{sim,mem,pagetable,kmem,kstruct,dwarfx,vas,kernel}
//	                      simulation + memory + debug-info substrates
//	internal/{ihk,linux,mckernel}
//	                      the multi-kernel operating systems (§2.1)
//	internal/{hfi,fabric} the NIC, the Linux HFI driver, the wire (§2.2)
//	internal/{psm,mpi}    the user-space communication stack (§2.2.1)
//	internal/{cluster,miniapps,experiments,report,model,trace}
//	                      evaluation machinery (§4)
//	cmd/*                 pingpong, miniapp, profile, experiments,
//	                      dwarf-extract-struct
//	examples/*            quickstart, halo3d, splitdriver, structextract
//
// cmd/experiments regenerates every table and figure of the evaluation:
// at a reduced default scale into artifacts/, which go test ./... rebuilds
// and byte-compares, or the full sweeps with -scale paper. See DESIGN.md
// for the system inventory, EXPERIMENTS.md for paper-vs-measured results.
package repro
