// MPI-3 one-sided communication (RMA) over the verbs data path: windows
// are registered memory regions exposed through an any-source RDMA
// target QP, Put is an RDMA WRITE work request, and Fence drains
// completions before a barrier. Window creation is pure control path —
// the registration calls the MLX PicoDriver fast-paths — while Put
// never enters any kernel on any OS configuration.
package mpi

import (
	"fmt"

	"repro/internal/mlx"
	"repro/internal/uproc"
	"repro/internal/verbs"
)

// winMeta is the per-rank window descriptor exchanged out of band at
// window creation (the PMI-style analog of the endpoint MapBook).
type winMeta struct {
	node int
	qpn  uint32
	rkey uint32
	base uint64
}

type winKey struct {
	id   uint64
	rank int
}

// rmaWorld is the job-shared window directory.
type rmaWorld struct {
	wins map[winKey]winMeta
}

func newRMAWorld() *rmaWorld { return &rmaWorld{wins: make(map[winKey]winMeta)} }

// peerSQ sizes the per-peer initiator send queues; Put drains the CQ
// when this many operations are outstanding to one target.
const peerSQ = 64

// Win is one rank's view of an MPI-3 window. Origin buffers for Put
// are addressed as offsets into the rank's own window region (symmetric
// windows), so a single registration covers both sides of every
// transfer.
type Win struct {
	c    *Comm
	id   uint64
	base uproc.VirtAddr
	size uint64

	mr     *verbs.MR
	target *verbs.QP // any-source QP peers WRITE through

	meta  []winMeta         // per-rank descriptors, indexed by rank
	peers map[int]*verbs.QP // lazily connected initiator QPs
	out   map[*verbs.QP]int // outstanding completions per initiator QP
	wrid  uint64
}

// ucontext lazily opens the per-rank verbs device context.
func (c *Comm) ucontext() (*verbs.UContext, error) {
	if c.verbsU != nil {
		return c.verbsU, nil
	}
	vos, ok := c.EP.OS.(verbs.OSOps)
	if !ok {
		return nil, fmt.Errorf("mpi: OS personality has no RDMA HCA")
	}
	u, err := verbs.Open(c.P, vos)
	if err != nil {
		return nil, err
	}
	c.verbsU = u
	return u, nil
}

// WinCreate is MPI_Win_create: collective over the world. It registers
// [base, base+size), stands up the window's target QP, publishes the
// descriptor and synchronizes — all control path, no data moves.
func (c *Comm) WinCreate(base uproc.VirtAddr, size uint64) (*Win, error) {
	if c.rma == nil {
		return nil, fmt.Errorf("mpi: no RMA world (rank not started via RunJob)")
	}
	w := &Win{c: c, base: base, size: size,
		peers: make(map[int]*verbs.QP), out: make(map[*verbs.QP]int)}
	err := c.timed("MPI_Win_create", func() error {
		u, err := c.ucontext()
		if err != nil {
			return err
		}
		c.winSeq++
		w.id = c.winSeq
		if w.mr, err = u.RegMR(c.P, base, size, mlx.AccessLocalWrite|mlx.AccessRemoteWrite); err != nil {
			return err
		}
		if w.target, err = u.CreateQP(c.P, verbs.QPConfig{}); err != nil {
			return err
		}
		if err := w.target.ToInit(c.P); err != nil {
			return err
		}
		if err := w.target.ToRTRAnySource(c.P); err != nil {
			return err
		}
		c.rma.wins[winKey{w.id, c.Rank}] = winMeta{
			node: c.EP.OS.NodeID(), qpn: w.target.QPN,
			rkey: w.mr.LKey, base: uint64(base),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The barrier inside Win_create is what makes it collective: every
	// descriptor is published before any rank proceeds.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	w.meta = make([]winMeta, c.Size)
	for r := 0; r < c.Size; r++ {
		m, ok := c.rma.wins[winKey{w.id, r}]
		if !ok {
			return nil, fmt.Errorf("mpi: window %d: rank %d never published", w.id, r)
		}
		w.meta[r] = m
	}
	return w, nil
}

// peer returns the connected initiator QP for a target rank, creating it
// on first use (local control-path calls only; the remote side is the
// target's already-listening any-source QP).
func (w *Win) peer(rank int) (*verbs.QP, error) {
	if qp, ok := w.peers[rank]; ok {
		return qp, nil
	}
	u, err := w.c.ucontext()
	if err != nil {
		return nil, err
	}
	qp, err := u.CreateQP(w.c.P, verbs.QPConfig{SQEntries: peerSQ})
	if err != nil {
		return nil, err
	}
	if err := qp.ToInit(w.c.P); err != nil {
		return nil, err
	}
	if err := qp.ToRTR(w.c.P, w.meta[rank].node, w.meta[rank].qpn); err != nil {
		return nil, err
	}
	if err := qp.ToRTS(w.c.P); err != nil {
		return nil, err
	}
	w.peers[rank] = qp
	return qp, nil
}

// drain consumes n completions from an initiator QP, failing on any
// error status.
func (w *Win) drain(qp *verbs.QP, n int) error {
	if n == 0 {
		return nil
	}
	cqes, err := qp.WaitCQ(w.c.P, n)
	if err != nil {
		return err
	}
	for _, e := range cqes {
		if e.Status != verbs.StatusOK {
			return fmt.Errorf("mpi: RMA operation failed: %s", verbs.StatusString(e.Status))
		}
	}
	w.out[qp] -= len(cqes)
	return nil
}

// Put is MPI_Put: an RDMA WRITE of n bytes from this rank's window at
// localOff into the target rank's window at targetOff. Completion is
// deferred to the next Fence.
func (w *Win) Put(target int, localOff, targetOff, n uint64) error {
	return w.c.timed("MPI_Put", func() error {
		if localOff+n > w.size || targetOff+n > w.size {
			return fmt.Errorf("mpi: RMA access [%d,+%d) outside window of %d bytes", targetOff, n, w.size)
		}
		qp, err := w.peer(target)
		if err != nil {
			return err
		}
		if w.out[qp] >= peerSQ {
			if err := w.drain(qp, w.out[qp]); err != nil {
				return err
			}
		}
		w.wrid++
		if err := qp.PostSend(w.c.P, &verbs.WQE{
			Opcode: verbs.OpcodeWrite, WRID: w.wrid,
			LKey: w.mr.LKey, LAddr: uint64(w.base) + localOff, Len: n,
			RKey: w.meta[target].rkey, RAddr: w.meta[target].base + targetOff,
		}); err != nil {
			return err
		}
		w.out[qp]++
		return nil
	})
}

// Fence is MPI_Win_fence: drains every outstanding operation this rank
// issued, then synchronizes the world, after which all Puts of the
// preceding epoch are visible at their targets.
func (w *Win) Fence() error {
	if err := w.c.timed("MPI_Win_fence", func() error {
		// Rank order, not map order: draining has simulation side
		// effects and must be deterministic.
		for r := 0; r < w.c.Size; r++ {
			if qp, ok := w.peers[r]; ok {
				if err := w.drain(qp, w.out[qp]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return w.c.Barrier()
}

// Free is MPI_Win_free: collective teardown — peers stop initiating
// first (barrier), then every rank destroys its QPs and deregisters.
func (w *Win) Free() error {
	if err := w.c.Barrier(); err != nil {
		return err
	}
	return w.c.timed("MPI_Win_free", func() error {
		u, err := w.c.ucontext()
		if err != nil {
			return err
		}
		for r := 0; r < w.c.Size; r++ {
			if qp, ok := w.peers[r]; ok {
				if err := qp.Destroy(w.c.P); err != nil {
					return err
				}
			}
		}
		if err := w.target.Destroy(w.c.P); err != nil {
			return err
		}
		return u.DeregMR(w.c.P, w.mr)
	})
}
