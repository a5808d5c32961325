// Quickstart: boot a two-node multi-kernel cluster under each OS
// configuration, exchange a checksummed 1 MB message between two ranks,
// and print the transfer latency — the smallest end-to-end use of the
// library's public surface.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
)

const size = 1 << 20

func main() {
	for _, os := range cluster.AllOSTypes {
		lat, err := exchange(os)
		if err != nil {
			log.Fatalf("%v: %v", os, err)
		}
		fmt.Printf("%-14s 1MB exchange: %8v  (%.2f GB/s)\n",
			os, lat.Round(time.Microsecond), float64(size)/lat.Seconds()/1e9)
	}
}

func exchange(os cluster.OSType) (time.Duration, error) {
	// 1. Build the cluster: two KNL-style nodes, OmniPath fabric, the
	//    chosen OS configuration (Linux, McKernel, or McKernel with the
	//    HFI PicoDriver).
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: os, Params: model.Default(), Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	// Close frees the machine when exchange returns: the NIC and CPU
	// daemons stay parked, holding the cluster, until it is closed.
	defer cl.Close()

	// 2. Start one rank per node. Each opens a PSM endpoint — this
	//    opens /dev/hfi1 (offloaded to Linux on McKernel) and maps the
	//    context areas — publishes its address, and runs the body once
	//    every rank has done so.
	var lat time.Duration
	ranks := cl.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		// 3. Allocate a user buffer (contiguous+pinned on McKernel,
		//    scattered 4K pages on Linux) and move real bytes.
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		proc := ep.OS.Proc()
		if rank == 0 {
			payload := bytes.Repeat([]byte{0x5A}, size)
			if err := proc.WriteAt(buf, payload); err != nil {
				return err
			}
			start := p.Now()
			if err := ep.Send(p, 1, 42, buf, size); err != nil {
				return err
			}
			lat = p.Now() - start
			return nil
		}
		if err := ep.Recv(p, 0, 42, buf, size); err != nil {
			return err
		}
		got := make([]byte, size)
		if err := proc.ReadAt(buf, got); err != nil {
			return err
		}
		for i, b := range got {
			if b != 0x5A {
				return fmt.Errorf("payload corrupted at byte %d", i)
			}
		}
		return nil
	})
	// 4. Drive the simulation to completion.
	if err := cl.Run(0); err != nil {
		return 0, err
	}
	return lat, ranks.Err()
}
