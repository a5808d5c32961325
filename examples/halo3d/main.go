// halo3d: a domain-specific application written against the MPI API — a
// 3-D Jacobi-style stencil with halo exchanges whose face sizes are
// chosen so x faces use rendezvous (driver fast path), y faces use eager
// SDMA and the z direction stays node-local. It prints per-OS runtimes
// and the MPI profile, illustrating how an application developer would
// evaluate the PicoDriver for their own workload.
//
//	go run ./examples/halo3d [-nodes 4] [-rpn 8] [-steps 5]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/uproc"
)

func main() {
	nodes := flag.Int("nodes", 4, "compute nodes")
	rpn := flag.Int("rpn", 8, "ranks per node")
	steps := flag.Int("steps", 5, "timesteps")
	flag.Parse()

	fmt.Printf("halo3d: %d nodes x %d ranks, %d steps\n\n", *nodes, *rpn, *steps)
	var linux time.Duration
	for _, os := range cluster.AllOSTypes {
		res, err := run(os, *nodes, *rpn, *steps)
		if err != nil {
			log.Fatalf("%v: %v", os, err)
		}
		rel := ""
		if os == cluster.OSLinux {
			linux = res.Elapsed
		} else {
			rel = fmt.Sprintf("  (%.1f%% of Linux performance)",
				100*linux.Seconds()/res.Elapsed.Seconds())
		}
		fmt.Printf("%-14s %10v%s\n", os, res.Elapsed.Round(time.Microsecond), rel)
		fmt.Println("  top MPI calls:")
		for _, e := range res.MPI.Top(3) {
			fmt.Printf("    %-14s %12v %5.1f%%\n", e.Name, e.Time.Round(time.Microsecond), 100*e.Share)
		}
	}
}

func run(os cluster.OSType, nodes, rpn, steps int) (*mpi.JobResult, error) {
	cl, err := cluster.New(cluster.Spec{
		Nodes: nodes, OS: os, Params: model.Default(), Seed: 7, Synthetic: true,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	const (
		faceX = 256 << 10 // rendezvous: TID registration + SDMA writev
		faceY = 32 << 10  // eager SDMA: one writev per message
	)
	return mpi.RunJob(cl, rpn, func(c *mpi.Comm) error {
		ny := c.RanksPerNode
		nx := c.Size / ny
		x, y := c.Rank/ny, c.Rank%ny
		buf, err := c.MmapAnon(4 * faceX)
		if err != nil {
			return err
		}
		at := func(i int) uproc.VirtAddr { return buf + uproc.VirtAddr(i*faceX) }
		neighbor := func(dx, dy int) int {
			px, py := x+dx, y+dy
			if px < 0 || px >= nx || py < 0 || py >= ny {
				return -1
			}
			return px*ny + py
		}
		for step := 0; step < steps; step++ {
			c.Compute(900 * time.Microsecond)
			// Cross-node x faces (rendezvous) and intra-node y faces
			// (eager) exchanged concurrently.
			type xfer struct {
				nb   int
				size uint64
			}
			var reqs []*psm.Request
			for d, xf := range []xfer{
				{neighbor(1, 0), faceX}, {neighbor(-1, 0), faceX},
				{neighbor(0, 1), faceY}, {neighbor(0, -1), faceY},
			} {
				if xf.nb < 0 {
					continue
				}
				tag := uint64(100 + step*8 + d)
				rr, err := c.Irecv(xf.nb, tag^1, at(d%2), xf.size)
				if err != nil {
					return err
				}
				sr, err := c.Isend(xf.nb, tag, at(2+d%2), xf.size)
				if err != nil {
					return err
				}
				reqs = append(reqs, rr, sr)
			}
			if err := c.Waitall(reqs); err != nil {
				return err
			}
			// Residual norm.
			if err := c.Allreduce(8); err != nil {
				return err
			}
		}
		return nil
	})
}
