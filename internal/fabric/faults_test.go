package fabric

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// runLossy sends n packets 0→1 through profile fp and returns the
// arrival schedule (per-packet PSN, arrival time, corrupt flag) plus
// the fault counters.
type arrival struct {
	psn     uint32
	at      time.Duration
	corrupt bool
}

func runLossy(t *testing.T, fp *FaultProfile, n int) ([]arrival, FaultStats) {
	t.Helper()
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	var got []arrival
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1, func(p *Packet) {
		got = append(got, arrival{psn: p.Hdr.PSN, at: e.Now(), corrupt: p.Corrupt})
	}); err != nil {
		t.Fatal(err)
	}
	f.SetFaults(fp)
	e.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := &Packet{SrcNode: 0, DstNode: 1, Bytes: 4096, Hdr: Header{PSN: uint32(i + 1)}}
			if err := f.Send(p, pkt); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	return got, f.FaultStats()
}

func TestFaultProfileZeroValueLossFree(t *testing.T) {
	var fp FaultProfile
	if fp.Active() {
		t.Fatal("zero profile active")
	}
	var nilFP *FaultProfile
	if nilFP.Active() {
		t.Fatal("nil profile active")
	}
	got, st := runLossy(t, &fp, 10)
	if len(got) != 10 {
		t.Fatalf("delivered %d/10", len(got))
	}
	if st != (FaultStats{}) {
		t.Fatalf("fault stats on loss-free profile: %+v", st)
	}
}

func TestFaultDropAndCorrupt(t *testing.T) {
	fp := &FaultProfile{LinkFaults: LinkFaults{Drop: 0.2, Corrupt: 0.2}, Seed: 7}
	got, st := runLossy(t, fp, 200)
	if st.Dropped == 0 || st.Corrupted == 0 {
		t.Fatalf("no faults injected: %+v", st)
	}
	if len(got)+int(st.Dropped) != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", len(got), st.Dropped)
	}
	corrupt := 0
	for _, a := range got {
		if a.corrupt {
			corrupt++
		}
	}
	if uint64(corrupt) != st.Corrupted {
		t.Fatalf("corrupt arrivals %d != counter %d", corrupt, st.Corrupted)
	}
}

func TestFaultDupAndReorder(t *testing.T) {
	fp := &FaultProfile{
		LinkFaults: LinkFaults{Dup: 0.3, Reorder: 0.3, ReorderDelay: 40 * time.Microsecond},
		Seed:       7,
	}
	got, st := runLossy(t, fp, 100)
	if st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("no faults injected: %+v", st)
	}
	if len(got) != 100+int(st.Duplicated) {
		t.Fatalf("delivered %d, want %d", len(got), 100+st.Duplicated)
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i].psn < got[i-1].psn {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("reordering never reordered anything")
	}
}

func TestFaultDeterminism(t *testing.T) {
	fp := func() *FaultProfile {
		return &FaultProfile{
			LinkFaults: LinkFaults{Drop: 0.1, Corrupt: 0.05, Dup: 0.1, Reorder: 0.1,
				ReorderDelay: 20 * time.Microsecond},
			Seed: 42,
		}
	}
	a, sa := runLossy(t, fp(), 300)
	b, sb := runLossy(t, fp(), 300)
	if sa != sb {
		t.Fatalf("fault stats differ: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("arrival counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, _ := runLossy(t, &FaultProfile{LinkFaults: fp().LinkFaults, Seed: 43}, 300)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFaultPerLinkOverride(t *testing.T) {
	// Global drop=1 but the 0→1 link overridden to loss-free.
	fp := &FaultProfile{
		LinkFaults: LinkFaults{Drop: 1},
		PerLink:    map[LinkID]LinkFaults{{Src: 0, Dst: 1}: {}},
		Seed:       7,
	}
	got, st := runLossy(t, fp, 20)
	if len(got) != 20 || st.Dropped != 0 {
		t.Fatalf("override ignored: delivered %d, dropped %d", len(got), st.Dropped)
	}
}

func TestFaultDownWindow(t *testing.T) {
	// All packets in this run are sent within the first few hundred µs.
	fp := &FaultProfile{
		Down: []DownWindow{{Src: -1, Dst: -1, From: 0, Until: time.Second}},
		Seed: 7,
	}
	if !fp.Active() {
		t.Fatal("down-window profile not active")
	}
	got, st := runLossy(t, fp, 15)
	if len(got) != 0 || st.DownDrops != 15 {
		t.Fatalf("down window leaked: delivered %d, downdrops %d", len(got), st.DownDrops)
	}
}

func TestFaultRDMAExempt(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	delivered := 0
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1, func(*Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	f.SetFaults(&FaultProfile{LinkFaults: LinkFaults{Drop: 1}, Seed: 7})
	e.Go("s", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := f.Send(p, &Packet{SrcNode: 0, DstNode: 1, Kind: KindRDMA, Bytes: 64}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Fatalf("RDMA packets faulted: delivered %d/10", delivered)
	}
	if st := f.FaultStats(); st != (FaultStats{}) {
		t.Fatalf("fault stats on RDMA traffic: %+v", st)
	}
}

// TestFaultySendSteadyStateAllocs pins a warm faulty Send at zero
// allocations: a pooled packet that the profile drops, corrupts or
// reorders flies (or is released) as itself. Only a duplicate is a copy,
// so the profile injects everything but duplication. One run is a burst
// of packets: AllocsPerRun truncates its average, so one allocation per
// delivered packet must add up to at least one per run.
func TestFaultySendSteadyStateAllocs(t *testing.T) {
	const warm, runs, burst = 32, 100, 16
	e := sim.NewEngine(1)
	defer e.Close()
	pr := model.Default()
	f := New(e, &pr)
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach(1, f.Release); err != nil {
		t.Fatal(err)
	}
	f.SetFaults(&FaultProfile{LinkFaults: LinkFaults{
		Drop: 0.1, Corrupt: 0.1, Reorder: 0.3, ReorderDelay: 2 * time.Microsecond,
	}, Seed: 5})
	e.Go("sender", func(p *sim.Proc) {
		var err error
		send := func() {
			for i := 0; i < burst && err == nil; i++ {
				pkt := f.GetPacket()
				pkt.SrcNode, pkt.DstNode, pkt.Bytes = 0, 1, 4096
				err = f.Send(p, pkt)
			}
		}
		for i := 0; i < warm; i++ {
			send()
		}
		if got := testing.AllocsPerRun(runs, send); got != 0 {
			t.Errorf("warm faulty send: %v allocations, want 0", got)
		}
		if err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if st := f.FaultStats(); st.Dropped == 0 || st.Corrupted == 0 || st.Reordered == 0 || st.Duplicated != 0 {
		t.Errorf("profile did not inject every fault but duplication: %+v", st)
	}
}
