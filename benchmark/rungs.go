package main

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// A rung is a micro-loop over one layer's public API with no other layer
// involved. Each runs a fixed number of operations rungReps times and
// reports the median host nanoseconds per operation, so a rung names the
// cost an optimisation of that layer is most likely to move.
const rungReps = 3

// perOpTimed runs fn rungReps times; fn performs ops operations and
// returns how long they took, its own set-up excluded. The result is the
// median ns/op.
func perOpTimed(ops int, fn func() (time.Duration, error)) (float64, error) {
	xs := make([]float64, 0, rungReps)
	for i := 0; i < rungReps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d.Nanoseconds())/float64(ops))
	}
	return median(xs), nil
}

// perOp is perOpTimed for a loop with no set-up worth excluding.
func perOp(ops int, fn func() error) (float64, error) {
	return perOpTimed(ops, func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	})
}

// runRungs returns every *.rung.* metric. scale divides the loop counts
// (1 = measured, 100 = smoke).
func runRungs(scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	type rung struct {
		name string
		fn   func(scale int, out map[string]float64) error
	}
	for _, r := range []rung{
		{"sim", simRungs}, {"fabric", fabricRungs}, {"hfi", hfiRungs},
		{"mem", memRungs}, {"pagetable", pagetableRungs},
	} {
		if err := r.fn(scale, out); err != nil {
			return nil, fmt.Errorf("%s rungs: %w", r.name, err)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

const rungProcs = 64

// procEvents has rungProcs processes sleep round-robin, so every event
// resumes a different goroutine than the one that just blocked: the pure
// cost of one process handoff. drive runs the engine(s).
func procEvents(e *sim.Engine, sleeps int, drive func() error) error {
	for i := 0; i < rungProcs; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i)) // stagger, then stay interleaved
			for n := 0; n < sleeps; n++ {
				p.Sleep(rungProcs)
			}
		})
	}
	return drive()
}

// tick is a self-rescheduling callback: the AfterArg path the fabric uses
// for every packet.
type tick struct {
	e    *sim.Engine
	left int
}

func runTick(a any) {
	t := a.(*tick)
	if t.left--; t.left > 0 {
		t.e.AfterArg(1, runTick, t)
	}
}

// callbackEvents measures one push+pop of a callback event on a heap that
// already holds depth far-future events: the new event sifts up past all
// of them and the pop sifts the tail back down.
func callbackEvents(depth, events int) (float64, error) {
	return perOpTimed(events, func() (time.Duration, error) {
		e := sim.NewEngine(1)
		const far = time.Duration(1) << 40
		idle := &tick{e: e}
		for i := 0; i < depth; i++ {
			e.AfterArg(far+time.Duration(i), runTick, idle)
		}
		e.AfterArg(1, runTick, &tick{e: e, left: events})
		t0 := time.Now()
		err := e.Run(far - 1)
		return time.Since(t0), err
	})
}

func simRungs(scale int, out map[string]float64) error {
	sleeps := 2000 / scale
	var err error
	// The two dispatchers of ROADMAP item 1 side by side.
	if out["sim.rung.proc_event_ns"], err = perOp(rungProcs*sleeps, func() error {
		e := sim.NewEngine(1)
		return procEvents(e, sleeps, func() error { return e.Run(0) })
	}); err != nil {
		return err
	}
	if out["sim.rung.proc_event_direct_ns"], err = perOp(rungProcs*sleeps, func() error {
		set, err := sim.NewShardSet(1, 1, time.Microsecond)
		if err != nil {
			return err
		}
		return procEvents(set.Engines()[0], sleeps, func() error { return set.Run(0) })
	}); err != nil {
		return err
	}
	events := 200000 / scale
	if out["sim.rung.cb_event_ns"], err = callbackEvents(1000, events); err != nil {
		return err
	}
	if out["sim.rung.cb_event_deep_ns"], err = callbackEvents(100000/scale, events); err != nil {
		return err
	}
	handoffs := 50000 / scale
	out["sim.rung.queue_handoff_ns"], err = perOp(2*handoffs, func() error {
		e := sim.NewEngine(1)
		ping, pong := sim.NewQueue[int](e), sim.NewQueue[int](e)
		e.Go("a", func(p *sim.Proc) {
			for i := 0; i < handoffs; i++ {
				ping.Push(i)
				pong.Pop(p)
			}
		})
		e.Go("b", func(p *sim.Proc) {
			for i := 0; i < handoffs; i++ {
				pong.Push(ping.Pop(p))
			}
		})
		return e.Run(0)
	})
	return err
}

// ---------------------------------------------------------------------
// fabric
// ---------------------------------------------------------------------

// fabricPackets sends pooled 1 KB packets between two attached ports whose
// receive side releases them at once: Send → egress → delivery → Release.
func fabricPackets(packets int, faults *fabric.FaultProfile) (float64, error) {
	pr := model.Default()
	return perOp(packets, func() error {
		e := sim.NewEngine(1)
		f := fabric.New(e, &pr)
		f.SetFaults(faults)
		for node := 0; node < 2; node++ {
			if _, err := f.Attach(node, f.Release); err != nil {
				return err
			}
		}
		var sendErr error
		e.Go("tx", func(p *sim.Proc) {
			for i := 0; i < packets && sendErr == nil; i++ {
				pkt := f.GetPacket()
				pkt.SrcNode, pkt.DstNode = 0, 1
				pkt.Payload, pkt.PooledPayload = f.GetBuf(smallMsg), true
				sendErr = f.Send(p, pkt)
			}
		})
		if err := e.Run(0); err != nil {
			return err
		}
		return sendErr
	})
}

func fabricRungs(scale int, out map[string]float64) error {
	packets := 100000 / scale
	var err error
	if out["fabric.rung.packet_ns"], err = fabricPackets(packets, nil); err != nil {
		return err
	}
	out["fabric.rung.packet_faulty_ns"], err = fabricPackets(packets,
		&fabric.FaultProfile{LinkFaults: fabric.LinkFaults{Drop: lossRate}, Seed: 1})
	return err
}

// ---------------------------------------------------------------------
// hfi
// ---------------------------------------------------------------------

func hfiRungs(scale int, out map[string]float64) error {
	pr := model.Default()
	exts := []mem.Extent{{Addr: 1 << 30, Len: driverBuf}}
	var tids []hfi.TIDPair
	for off := uint64(0); off < driverBuf; off += pr.TIDMaxEntryBytes {
		tids = append(tids, hfi.TIDPair{Idx: uint64(len(tids)), Len: pr.TIDMaxEntryBytes})
	}
	builds := 400 / scale
	for _, c := range []struct {
		limit uint64
		tag   string
	}{{cap4K, "4k"}, {cap10K, "10k"}} {
		var n int
		ns, err := perOp(builds, func() error {
			for i := 0; i < builds; i++ {
				reqs, err := hfi.BuildExpectedRequests(exts, c.limit, tids)
				if err != nil {
					return err
				}
				n = len(reqs)
			}
			return nil
		})
		if err != nil {
			return err
		}
		out["hfi.rung.build_req_"+c.tag+"_ns"] = ns
		out["hfi.rung.reqs_"+c.tag] = float64(n)
	}
	return nil
}

// ---------------------------------------------------------------------
// mem
// ---------------------------------------------------------------------

func memRungs(scale int, out map[string]float64) error {
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 1 << 30, Kind: mem.MCDRAM})
	if err != nil {
		return err
	}
	const frames = driverBuf / mem.PageSize4K
	ext, err := pm.AllocContig(driverBuf, mem.PreferMCDRAM)
	if err != nil {
		return err
	}
	rounds := 100 / scale
	// One frame's pin plus its unpin: the per-frame pin-count map.
	if out["mem.rung.pin_frame_ns"], err = perOp(rounds*frames, func() error {
		for i := 0; i < rounds; i++ {
			pm.Pin(ext)
			pm.Unpin(ext)
		}
		return nil
	}); err != nil {
		return err
	}
	buf := make([]byte, driverCopy)
	copies := 2000 / scale
	if out["mem.rung.copy_64k_ns"], err = perOp(2*copies, func() error {
		for i := 0; i < copies; i++ {
			if err := pm.WriteAt(ext.Addr, buf); err != nil {
				return err
			}
			if err := pm.ReadAt(ext.Addr, buf); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	out["mem.rung.alloc_scattered_page_ns"], err = perOp(rounds*frames, func() error {
		for i := 0; i < rounds; i++ {
			exts, err := pm.AllocScattered(frames, mem.PreferMCDRAM)
			if err != nil {
				return err
			}
			pm.FreeScattered(exts)
		}
		return nil
	})
	return err
}

// ---------------------------------------------------------------------
// pagetable
// ---------------------------------------------------------------------

func pagetableRungs(scale int, out map[string]float64) error {
	const (
		va      = pagetable.VirtAddr(1 << 32)
		pages4K = driverBuf / pagetable.Size4K
		span2M  = 64 << 20
		pages2M = span2M / pagetable.Size2M
	)
	// 4K side: every other physical frame, so no two pages merge.
	small := pagetable.New()
	for i := 0; i < pages4K; i++ {
		off := uint64(i) * pagetable.Size4K
		if err := small.Map(va+pagetable.VirtAddr(off), mem.PhysAddr(2*off), pagetable.Size4K, pagetable.Writable); err != nil {
			return err
		}
	}
	large := pagetable.New()
	for i := 0; i < pages2M; i++ {
		off := uint64(i) * pagetable.Size2M
		if err := large.Map(va+pagetable.VirtAddr(off), mem.PhysAddr(2*off), pagetable.Size2M, pagetable.Writable); err != nil {
			return err
		}
	}
	walks := 400 / scale
	var exts []mem.Extent
	walk := func(t *pagetable.Table, length uint64, pages int) (float64, error) {
		return perOp(walks*pages, func() error {
			for i := 0; i < walks; i++ {
				var err error
				if exts, err = t.WalkExtentsInto(exts[:0], va, length); err != nil {
					return err
				}
				if len(exts) != pages {
					return fmt.Errorf("walk returned %d extents, want %d", len(exts), pages)
				}
			}
			return nil
		})
	}
	var err error
	if out["pagetable.rung.walk_4k_ns"], err = walk(small, driverBuf, pages4K); err != nil {
		return err
	}
	if out["pagetable.rung.walk_2m_ns"], err = walk(large, span2M, pages2M); err != nil {
		return err
	}
	t := pagetable.New()
	const base = pagetable.VirtAddr(1 << 33)
	out["pagetable.rung.map_unmap_page_ns"], err = perOp(walks*pages4K, func() error {
		for i := 0; i < walks; i++ {
			for pg := 0; pg < pages4K; pg++ {
				off := uint64(pg) * pagetable.Size4K
				if err := t.Map(base+pagetable.VirtAddr(off), mem.PhysAddr(2*off), pagetable.Size4K, pagetable.Writable); err != nil {
					return err
				}
			}
			if err := t.Unmap(base, driverBuf); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}
