package model

import (
	"testing"
	"time"
)

func TestDefaultConsistency(t *testing.T) {
	p := Default()
	if p.PIOMaxSize >= p.SDMAThreshold {
		t.Fatal("PIO limit must sit below the SDMA threshold")
	}
	if p.RendezvousWindow <= p.SDMAThreshold {
		t.Fatal("windows must exceed the threshold or rendezvous degenerates")
	}
	if p.MaxSDMARequest != 10240 {
		t.Fatalf("HFI hardware max is 10KB, got %d", p.MaxSDMARequest)
	}
	if p.EagerChunk > p.PIOMaxSize {
		t.Fatal("eager chunks must fit a PIO send")
	}
	if p.SDMAEngines != 16 {
		t.Fatal("the HFI has 16 SDMA engines")
	}
	// The fast path must be cheaper than the full Linux path, which in
	// turn must be far cheaper than an offload round trip.
	linuxPath := p.SyscallEntry + p.VFSDispatch + p.WritevBase
	offload := 2*p.IKCLatency + p.OffloadFixed
	if !(p.FastPathBase < linuxPath && linuxPath < offload) {
		t.Fatalf("cost ordering broken: fast=%v linux=%v offload=%v",
			p.FastPathBase, linuxPath, offload)
	}
}

func TestWireTimeMonotonic(t *testing.T) {
	p := Default()
	prev := time.Duration(-1)
	for _, n := range []uint64{0, 1024, 4096, 1 << 20} {
		w := p.WireTime(n)
		if w <= prev {
			t.Fatalf("WireTime not monotonic at %d", n)
		}
		prev = w
	}
	// ~12.5 GB/s: 1 MB should serialize in roughly 84 µs.
	w := p.WireTime(1 << 20)
	if w < 80*time.Microsecond || w > 90*time.Microsecond {
		t.Fatalf("WireTime(1MB) = %v", w)
	}
}

func TestPIOVsWireCrossover(t *testing.T) {
	p := Default()
	// PIO bandwidth is far below wire bandwidth: PIO must be the slower
	// path for bulk data, which is why PSM switches to SDMA.
	if p.PIOTime(64<<10) < p.WireTime(64<<10) {
		t.Fatal("PIO cheaper than the wire at 64KB; SDMA would be pointless")
	}
	// But for tiny messages the fixed PIO cost wins over descriptor
	// machinery (doorbell + descriptor + IRQ).
	sdmaFixed := p.SDMADoorbell + p.SDMADescCost + p.IRQLatency + p.IRQHandlerCost
	if p.PIOTime(64) > p.WireTime(64)+sdmaFixed {
		t.Fatal("PIO not competitive for small messages")
	}
}

func TestMemcpyTimes(t *testing.T) {
	p := Default()
	if p.MemcpyTime(8<<10) <= 0 || p.LocalCopyTime(8<<10) <= 0 {
		t.Fatal("copy times must be positive")
	}
	if p.LocalCopyTime(1<<20) >= p.MemcpyTime(1<<20)*4 {
		t.Fatal("local shared-memory copies should not be drastically slower than eager copies")
	}
}

func TestSDMACoalescingAdvantageExists(t *testing.T) {
	p := Default()
	// Effective per-byte cost with 4KB requests must exceed the cost
	// with 10KB requests by a visible margin — this inequality IS the
	// §3.4 optimization.
	perByte := func(req uint64) float64 {
		t := p.WireTime(req) + p.SDMADescCost
		return float64(t) / float64(req)
	}
	gain := perByte(4096) / perByte(p.MaxSDMARequest)
	if gain < 1.05 || gain > 1.5 {
		t.Fatalf("coalescing gain = %.2f, want a 5-50%% advantage", gain)
	}
}
