// The verbs experiment separates the two halves of the paper's argument
// for the InfiniBand port (§6 future work): memory *registration* is a
// system call whose latency depends on the OS configuration, while the
// post-setup *data path* (RDMA WRITE/READ) never enters any kernel and
// costs the same everywhere. The sweep measures both, per message size,
// across the three OS configurations, and fails if the data path is
// observed making even one system call.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mlx"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// VerbsRow is one message size across the three OS configurations.
type VerbsRow struct {
	Size uint64
	// RegLat is the memory-registration (control-path) latency.
	RegLat map[string]time.Duration
	// WriteLat/ReadLat are mean post-to-completion data-path latencies.
	WriteLat map[string]time.Duration
	ReadLat  map[string]time.Duration
}

type verbsCell struct {
	reg   time.Duration
	write time.Duration
	read  time.Duration
}

// VerbsSweep runs the registration-vs-data-path sweep, one pool job per
// (message size, OS) cell.
func VerbsSweep(cfg Config) ([]VerbsRow, error) {
	sc := cfg.Scale
	grid, err := osGrid(cfg, sc.VerbsSizes, verbsKey,
		func(cfg Config, size uint64, os cluster.OSType) (verbsCell, error) {
			return verbsCellRun(cfg, os, size, sc.VerbsReps)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]VerbsRow, 0, len(grid))
	for i, size := range sc.VerbsSizes {
		rows = append(rows, VerbsRow{
			Size:     size,
			RegLat:   byOS(grid[i], func(c verbsCell) time.Duration { return c.reg }),
			WriteLat: byOS(grid[i], func(c verbsCell) time.Duration { return c.write }),
			ReadLat:  byOS(grid[i], func(c verbsCell) time.Duration { return c.read }),
		})
	}
	return rows, nil
}

func verbsKey(size uint64) string { return fmt.Sprintf("verbs/%dB", size) }

// verbsCellRun measures one (size, OS) cell on a two-node cluster:
// node 0 initiates against a window on node 1. The cell runs under
// cfg.Faults like every other experiment — RDMA packets are exempt from
// fabric fault injection (the HCA's hardware retransmission is below
// the model), so the data-path numbers hold even on a lossy profile.
func verbsCellRun(cfg Config, os cluster.OSType, size uint64, reps int) (verbsCell, error) {
	// The cell is one process driving both nodes' HCAs directly, which
	// has no legal cross-shard decomposition — reject rather than let a
	// shard-0 process touch devices homed on another engine.
	if cfg.Shards > 1 {
		return verbsCell{}, fmt.Errorf("verbs: single-process cell cannot run with Shards=%d", cfg.Shards)
	}
	cl, err := cfg.cluster(cluster.Spec{Nodes: 2, OS: os, Synthetic: true})
	if err != nil {
		return verbsCell{}, err
	}
	defer cl.Close()
	var cell verbsCell
	var runErr error
	cl.Go(0, "verbs-cell", func(p *sim.Proc) {
		cell, runErr = verbsCellBody(p, cl, size, reps)
	})
	if err := cl.Run(0); err != nil {
		return verbsCell{}, err
	}
	return cell, runErr
}

func verbsCellBody(p *sim.Proc, cl *cluster.Cluster, size uint64, reps int) (verbsCell, error) {
	var cell verbsCell
	osI := cl.Nodes[0].NewRankOS(0)
	osT := cl.Nodes[1].NewRankOS(1)
	uI, err := verbs.Open(p, osI)
	if err != nil {
		return cell, err
	}
	uT, err := verbs.Open(p, osT)
	if err != nil {
		return cell, err
	}
	bufT, err := osT.MmapAnon(p, size)
	if err != nil {
		return cell, err
	}
	mrT, err := uT.RegMR(p, bufT, size,
		mlx.AccessLocalWrite|mlx.AccessRemoteRead|mlx.AccessRemoteWrite)
	if err != nil {
		return cell, err
	}
	qpT, err := uT.CreateQP(p, verbs.QPConfig{})
	if err != nil {
		return cell, err
	}
	if err := qpT.ToInit(p); err != nil {
		return cell, err
	}
	if err := qpT.ToRTRAnySource(p); err != nil {
		return cell, err
	}
	bufI, err := osI.MmapAnon(p, size)
	if err != nil {
		return cell, err
	}
	// The registration measurement: this is the system call whose cost
	// the PicoDriver port moves (offloaded on McKernel, fast-pathed on
	// McKernel+HFI1).
	start := p.Now()
	mrI, err := uI.RegMR(p, bufI, size, mlx.AccessLocalWrite)
	if err != nil {
		return cell, err
	}
	cell.reg = p.Now() - start
	qpI, err := uI.CreateQP(p, verbs.QPConfig{})
	if err != nil {
		return cell, err
	}
	if err := qpI.ToInit(p); err != nil {
		return cell, err
	}
	if err := qpI.ToRTR(p, 1, qpT.QPN); err != nil {
		return cell, err
	}
	if err := qpI.ToRTS(p); err != nil {
		return cell, err
	}

	kernelTime := func() time.Duration {
		var tot time.Duration
		for _, n := range cl.Nodes {
			tot += n.Lin.Syscalls.Total()
			if n.Mck != nil {
				tot += n.Mck.Syscalls.Total()
			}
		}
		return tot
	}
	base := kernelTime()

	op := func(opcode uint32, wrid uint64) (time.Duration, error) {
		start := p.Now()
		if err := qpI.PostSend(p, &verbs.WQE{Opcode: opcode, WRID: wrid,
			LKey: mrI.LKey, LAddr: uint64(bufI), Len: size,
			RKey: mrT.LKey, RAddr: uint64(bufT)}); err != nil {
			return 0, err
		}
		cqes, err := qpI.WaitCQ(p, 1)
		if err != nil {
			return 0, err
		}
		if len(cqes) != 1 || cqes[0].Status != verbs.StatusOK {
			return 0, fmt.Errorf("verbs cell: completion = %+v", cqes)
		}
		return p.Now() - start, nil
	}
	// One warmup round, then the timed repetitions.
	wrid := uint64(1)
	for _, opcode := range []uint32{verbs.OpcodeWrite, verbs.OpcodeRead} {
		if _, err := op(opcode, wrid); err != nil {
			return cell, err
		}
		wrid++
		var total time.Duration
		for i := 0; i < reps; i++ {
			d, err := op(opcode, wrid)
			if err != nil {
				return cell, err
			}
			wrid++
			total += d
		}
		mean := total / time.Duration(reps)
		if opcode == verbs.OpcodeWrite {
			cell.write = mean
		} else {
			cell.read = mean
		}
	}
	// The experiment's own kernel-bypass check: the whole measured data
	// path must not have added a nanosecond of kernel time on any node.
	if d := kernelTime() - base; d != 0 {
		return cell, fmt.Errorf("verbs cell: data path entered a kernel (+%v)", d)
	}
	return cell, nil
}
