package mpi

import (
	"fmt"
	"time"
)

// sendrecvStage exchanges n bytes with two peers through the staging
// buffers (send to dst, receive from src) using the collective tag space.
func (c *Comm) sendrecvStage(seq uint64, round, dst, src int, sendN, recvN uint64) error {
	sendVA, err := c.stage(false, 0, sendN)
	if err != nil {
		return err
	}
	recvVA, err := c.stage(true, 0, recvN)
	if err != nil {
		return err
	}
	rr, err := c.EP.Irecv(c.P, src, c.collTag(seq, round, src%256), recvVA, recvN)
	if err != nil {
		return err
	}
	sr, err := c.EP.Isend(c.P, dst, c.collTag(seq, round, c.Rank%256), sendVA, sendN)
	if err != nil {
		return err
	}
	if err := c.EP.Wait(c.P, sr); err != nil {
		return err
	}
	return c.EP.Wait(c.P, rr)
}

// Barrier is a dissemination barrier: ceil(log2(n)) rounds of 16-byte
// notifications.
func (c *Comm) Barrier() error {
	return c.timed("MPI_Barrier", func() error { return c.barrier() })
}

func (c *Comm) barrier() error {
	c.collSeq++
	seq := c.collSeq
	n := c.Size
	if n == 1 {
		return nil
	}
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		dst := (c.Rank + dist) % n
		src := (c.Rank - dist + n) % n
		if err := c.sendrecvStage(seq, round, dst, src, 16, 16); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes n bytes from root along a binomial tree.
func (c *Comm) Bcast(root int, n uint64) error {
	return c.timed("MPI_Bcast", func() error { return c.bcast(root, n) })
}

func (c *Comm) bcast(root int, n uint64) error {
	c.collSeq++
	seq := c.collSeq
	{
		rel := (c.Rank - root + c.Size) % c.Size
		// Receive from parent (unless root).
		if rel != 0 {
			mask := 1
			for mask <= rel {
				mask <<= 1
			}
			mask >>= 1
			parent := (rel - mask + root + c.Size) % c.Size
			recvVA, err := c.stage(true, 0, n)
			if err != nil {
				return err
			}
			if err := c.EP.Recv(c.P, parent, c.collTag(seq, 0, 1), recvVA, n); err != nil {
				return err
			}
		}
		// Forward to children.
		for mask := nextPow2(rel + 1); rel+mask < c.Size && mask < c.Size*2; mask <<= 1 {
			child := (rel + mask + root) % c.Size
			sendVA, err := c.stage(false, 0, n)
			if err != nil {
				return err
			}
			if err := c.EP.Send(c.P, child, c.collTag(seq, 0, 1), sendVA, n); err != nil {
				return err
			}
		}
		return nil
	}
}

func nextPow2(v int) int {
	m := 1
	for m < v {
		m <<= 1
	}
	return m
}

// Allreduce combines n bytes across all ranks (recursive doubling for
// powers of two, reduce+bcast otherwise) and returns when every rank has
// the result.
func (c *Comm) Allreduce(n uint64) error {
	return c.timed("MPI_Allreduce", func() error { return c.allreduce(n) })
}

func (c *Comm) allreduce(n uint64) error {
	c.collSeq++
	seq := c.collSeq
	if c.Size == 1 {
		return nil
	}
	if c.Size&(c.Size-1) == 0 {
		// Recursive doubling.
		for round, mask := 0, 1; mask < c.Size; round, mask = round+1, mask*2 {
			peer := c.Rank ^ mask
			if err := c.sendrecvStage(seq, round, peer, peer, n, n); err != nil {
				return err
			}
			// Local combine cost.
			c.P.Sleep(time.Duration(n/8) * 2 * time.Nanosecond)
		}
		return nil
	}
	// Reduce to 0 then broadcast (binomial).
	if err := c.reduceTree(seq, 0, n); err != nil {
		return err
	}
	return c.bcast(0, n)
}

func (c *Comm) reduceTree(seq uint64, root int, n uint64) error {
	rel := (c.Rank - root + c.Size) % c.Size
	// Receive from children (highest first), then send to parent.
	mask := 1
	for mask < c.Size {
		if rel&mask != 0 {
			parent := ((rel &^ mask) + root) % c.Size
			sendVA, err := c.stage(false, 0, n)
			if err != nil {
				return err
			}
			return c.EP.Send(c.P, parent, c.collTag(seq, mask, 2), sendVA, n)
		}
		if rel+mask < c.Size {
			child := (rel + mask + root) % c.Size
			recvVA, err := c.stage(true, 0, n)
			if err != nil {
				return err
			}
			if err := c.EP.Recv(c.P, child, c.collTag(seq, mask, 2), recvVA, n); err != nil {
				return err
			}
			c.P.Sleep(time.Duration(n/8) * 2 * time.Nanosecond)
		}
		mask <<= 1
	}
	return nil
}

// Alltoallv exchanges per-peer amounts: sizes(peer) gives the bytes this
// rank sends to each peer (pairwise ring exchange).
func (c *Comm) Alltoallv(sizes func(peer int) uint64) error {
	return c.timed("MPI_Alltoallv", func() error {
		c.collSeq++
		seq := c.collSeq
		for step := 1; step < c.Size; step++ {
			dst := (c.Rank + step) % c.Size
			src := (c.Rank - step + c.Size) % c.Size
			sendN := sizes(dst)
			recvN := sizes(src) // symmetric pattern assumption
			if sendN == 0 && recvN == 0 {
				continue
			}
			if sendN == 0 {
				sendN = 16
			}
			if recvN == 0 {
				recvN = 16
			}
			if err := c.sendrecvStage(seq, step, dst, src, sendN, recvN); err != nil {
				return err
			}
		}
		return nil
	})
}

// Scan is an inclusive prefix operation (linear chain).
func (c *Comm) Scan(n uint64) error {
	return c.timed("MPI_Scan", func() error {
		c.collSeq++
		seq := c.collSeq
		if c.Rank > 0 {
			recvVA, err := c.stage(true, 0, n)
			if err != nil {
				return err
			}
			if err := c.EP.Recv(c.P, c.Rank-1, c.collTag(seq, 0, 4), recvVA, n); err != nil {
				return err
			}
			c.P.Sleep(time.Duration(n/8) * 2 * time.Nanosecond)
		}
		if c.Rank < c.Size-1 {
			sendVA, err := c.stage(false, 0, n)
			if err != nil {
				return err
			}
			return c.EP.Send(c.P, c.Rank+1, c.collTag(seq, 0, 4), sendVA, n)
		}
		return nil
	})
}

// CartCreate models MPI_Cart_create with reorder: a heavyweight
// operation involving an allgather of coordinates, global agreement and
// communicator construction. HACC's Table 1 profile is dominated by it
// on Linux.
func (c *Comm) CartCreate(dims []int) error {
	return c.timed("MPI_Cart_create", func() error {
		total := 1
		for _, d := range dims {
			total *= d
		}
		if total != c.Size {
			return fmt.Errorf("mpi: cart dims %v != size %d", dims, c.Size)
		}
		// Allgather of coordinates: ring with n-1 steps of small
		// messages, plus global agreement.
		c.collSeq++
		seq := c.collSeq
		per := uint64(32)
		for step := 1; step < min(c.Size, 64); step++ {
			dst := (c.Rank + step) % c.Size
			src := (c.Rank - step + c.Size) % c.Size
			if err := c.sendrecvStage(seq, step, dst, src, per, per); err != nil {
				return err
			}
		}
		if err := c.allreduce(64); err != nil {
			return err
		}
		// Communicator construction: the reorder optimization evaluates
		// mappings over the full world — noise-sensitive computation
		// bulk-synchronized by the final barrier.
		c.Compute(time.Duration(c.Size) * 20 * time.Microsecond)
		return c.barrier()
	})
}
