// Package mpi implements a small MPI-like runtime over PSM: rank worlds,
// point-to-point operations, the collectives the paper's mini-apps
// exercise (Barrier, Allreduce, Bcast, Alltoallv, Scan,
// Cart_create) and per-call time accounting equivalent to Intel MPI's
// I_MPI_STATS, which is how Table 1 of the paper was produced.
package mpi

import (
	"fmt"
	"time"

	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uproc"
	"repro/internal/verbs"
)

// Comm is one rank's view of the world communicator.
type Comm struct {
	EP   *psm.Endpoint
	P    *sim.Proc
	Rank int
	Size int
	// RanksPerNode lets applications build node-aware decompositions.
	// Under non-uniform placement (StartJob) it is the rank count on
	// this rank's own node.
	RanksPerNode int
	// Prof accumulates per-MPI-call time for this rank.
	Prof *trace.SyscallProfile

	// collSeq numbers collective operations; all ranks call collectives
	// in the same order, so it synchronizes tag spaces.
	collSeq uint64

	// sendBuf/recvBuf are internal staging areas for collectives.
	sendBuf, recvBuf uproc.VirtAddr
	bufCap           uint64

	// rma is the job-shared window directory; verbsU is this rank's
	// lazily opened verbs device context; winSeq numbers windows (all
	// ranks create windows in the same collective order).
	rma    *rmaWorld
	verbsU *verbs.UContext
	winSeq uint64
}

// collBufCap sizes the internal collective staging buffers.
const collBufCap = 8 << 20

// Tag space layout: user point-to-point tags occupy the low 32 bits;
// collective traffic sets bit 63 and encodes (sequence, round, peer).
const collTagBit = uint64(1) << 63

func (c *Comm) collTag(seq uint64, round, which int) uint64 {
	return collTagBit | seq<<20 | uint64(round)<<8 | uint64(which)
}

// timed wraps an operation with per-call accounting.
func (c *Comm) timed(name string, fn func() error) error {
	start := c.P.Now()
	err := fn()
	c.Prof.Add(name, c.P.Now()-start)
	return err
}

// Send is MPI_Send.
func (c *Comm) Send(dst int, tag uint64, buf uproc.VirtAddr, n uint64) error {
	return c.timed("MPI_Send", func() error {
		return c.EP.Send(c.P, dst, tag, buf, n)
	})
}

// Isend is MPI_Isend.
func (c *Comm) Isend(dst int, tag uint64, buf uproc.VirtAddr, n uint64) (*psm.Request, error) {
	var r *psm.Request
	err := c.timed("MPI_Isend", func() error {
		var err error
		r, err = c.EP.Isend(c.P, dst, tag, buf, n)
		return err
	})
	return r, err
}

// Irecv is MPI_Irecv.
func (c *Comm) Irecv(src int, tag uint64, buf uproc.VirtAddr, n uint64) (*psm.Request, error) {
	var r *psm.Request
	err := c.timed("MPI_Irecv", func() error {
		var err error
		r, err = c.EP.Irecv(c.P, src, tag, buf, n)
		return err
	})
	return r, err
}

// Wait is MPI_Wait: where asynchronous progression actually happens, and
// therefore where offloading pain shows up in Table 1. Like
// MPI_REQUEST_NULL, r is the endpoint's again once Wait returns.
func (c *Comm) Wait(r *psm.Request) error {
	return c.timed("MPI_Wait", func() error {
		return c.EP.Wait(c.P, r)
	})
}

// Waitall is MPI_Waitall; each waited request is the endpoint's again.
func (c *Comm) Waitall(rs []*psm.Request) error {
	return c.timed("MPI_Waitall", func() error {
		return c.EP.WaitAll(c.P, rs)
	})
}

// Compute models application computation between MPI calls.
func (c *Comm) Compute(d time.Duration) { c.EP.Compute(c.P, d) }

// Misc issues a profiled miscellaneous system call (populates the
// kernel-side profiles of Figures 8/9 with read/open/nanosleep traffic).
func (c *Comm) Misc(name string, cost time.Duration) {
	c.EP.OS.Misc(c.P, name, cost)
}

// MmapAnon allocates application memory via the OS.
func (c *Comm) MmapAnon(size uint64) (uproc.VirtAddr, error) {
	return c.EP.OS.MmapAnon(c.P, size)
}

// Munmap releases application memory.
func (c *Comm) Munmap(va uproc.VirtAddr) error {
	return c.EP.OS.Munmap(c.P, va)
}

// slice returns a window into the collective staging buffers.
func (c *Comm) stage(recv bool, off, n uint64) (uproc.VirtAddr, error) {
	if off+n > c.bufCap {
		return 0, fmt.Errorf("mpi: collective payload %d exceeds staging capacity %d", off+n, c.bufCap)
	}
	if recv {
		return c.recvBuf + uproc.VirtAddr(off), nil
	}
	return c.sendBuf + uproc.VirtAddr(off), nil
}
