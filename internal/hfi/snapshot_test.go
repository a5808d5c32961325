package hfi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestSnapshotCoversSDMARequests: an undrained SDMA transaction is saved
// with its whole request list, not just its length and total bytes, so
// a replay that built as many requests over different pages does not
// verify as identical.
func TestSnapshotCoversSDMARequests(t *testing.T) {
	section := func(mut func([]SDMARequest)) []byte {
		t.Helper()
		e := sim.NewEngine(1)
		reqs := []SDMARequest{
			{Src: mem.Extent{Addr: 0x10000, Len: 4096}},
			{Src: mem.Extent{Addr: 0x20000, Len: 4096}, MsgOff: 4096, Last: true},
		}
		mut(reqs)
		txn := &SDMATxn{DstNode: 1, Requests: reqs}
		n := &NIC{rxq: sim.NewQueue[*fabric.Packet](e), irqHead: txn, irqTail: txn}
		e.RegisterState("node0/hfi", n)
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return f.Section("node0/hfi")
	}
	base := section(func([]SDMARequest) {})
	for _, c := range []struct {
		what string
		mut  func([]SDMARequest)
	}{
		{"a request's source page", func(r []SDMARequest) { r[1].Src.Addr = 0x30000 }},
		{"a request's message offset", func(r []SDMARequest) { r[0].MsgOff, r[1].MsgOff = 4096, 0 }},
	} {
		if bytes.Equal(section(c.mut), base) {
			t.Errorf("changing %s left the hfi section unchanged:\n%s", c.what, base)
		}
	}
}

// TestSnapshotNamesPendingPipelines: the SDMA engines and the receive
// pipeline are event handlers, so a snapshot shows no process of
// theirs; each pending event names its pipeline by its argument. A
// transfer paused every 100 ns for 10 µs must show, among its snapshots, a
// descriptor-cost event carrying its engine (index 3), a wire event
// carrying that engine's Transmit, an arrival event carrying the packet
// in flight, and a receive event carrying the NIC. Once the transaction has retired, within IRQLatency, the pending
// completion interrupt is an event carrying the sending NIC (node 0).
func TestSnapshotNamesPendingPipelines(t *testing.T) {
	r := newNICRig(t)
	defer r.e.Close()
	r.e.Go("submit", func(p *sim.Proc) {
		if err := r.nic[0].SubmitSDMA(p, engineTxn(r, 3, 1, 4, 1, false)); err != nil {
			t.Error(err)
		}
	})
	seen := map[string]bool{}
	for at := 100 * time.Nanosecond; at <= 10*time.Microsecond; at += 100 {
		if err := r.e.Run(at); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		engine := string(f.Section("engine"))
		if strings.Contains(engine, `resume="nic`) {
			t.Fatalf("a NIC pipeline is a process again:\n%s", engine)
		}
		// Node 0's NIC walks without a Node line (zero fields print
		// nothing), node 1's with "Node=1".
		nic0 := map[string]bool{}
		for _, l := range strings.Split(engine, "\n") {
			if head, typ, ok := strings.Cut(l, " arg="); ok && typ == "*hfi.NIC" {
				_, seq, _ := strings.Cut(head, " seq=")
				nic0["event["+seq+"]"] = true
			}
			if ev, ok := strings.CutSuffix(l, ".Node=1"); ok {
				delete(nic0, ev)
			}
		}
		if r.nic[0].irqScheduled && len(nic0) > 0 {
			seen["irq"] = true
		}
		for _, l := range strings.Split(engine, "\n") {
			if _, typ, ok := strings.Cut(l, " arg="); ok {
				seen[typ] = true
			}
			if strings.HasSuffix(l, "].Index=3") || strings.HasSuffix(l, "].Arg.(*hfi.SDMAEngine).Index=3") {
				seen[l[strings.Index(l, "]."):]] = true
			}
		}
	}
	for _, want := range []string{"*hfi.SDMAEngine", "*fabric.Transmit", "*fabric.Packet", "*hfi.NIC", "].Index=3", "].Arg.(*hfi.SDMAEngine).Index=3", "irq"} {
		if !seen[want] {
			t.Errorf("no snapshot named %q; seen %v", want, seen)
		}
	}
}

// TestSnapshotNamesPendingFlights: a packet in flight is the argument of
// its arrival event, whether its flight stays on one engine or is routed
// to another shard. Node 0 sends to node 1 on its own shard, then to
// node 2 on the other; paused before either lands, the snapshot shows
// each as an arg=*fabric.Packet event on its destination's shard, with
// the instant its send began.
func TestSnapshotNamesPendingFlights(t *testing.T) {
	pr := model.Default()
	set, err := sim.NewShardSet(5, 2, pr.LinkLatency)
	if err != nil {
		t.Fatal(err)
	}
	engines := set.Engines()
	defer engines[0].Close()
	defer engines[1].Close()
	fabs := []*fabric.Fabric{fabric.New(engines[0], &pr), fabric.New(engines[1], &pr)}
	for node, fab := range []*fabric.Fabric{fabs[0], fabs[0], fabs[1]} {
		if _, err := fab.Attach(node, func(*fabric.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	fabs[0].SetRouter(func(pkt *fabric.Packet, lat time.Duration) error {
		set.CrossAfter(engines[0], engines[1], lat, fabs[1].Arrive, pkt)
		return nil
	})
	const start = time.Microsecond
	wire := pr.WireTime(64)
	engines[0].Go("sender", func(p *sim.Proc) {
		p.Sleep(start)
		for dst := 1; dst <= 2; dst++ {
			if err := fabs[0].Send(p, &fabric.Packet{SrcNode: 0, DstNode: dst, Bytes: 64}); err != nil {
				t.Error(err)
			}
		}
	})
	if err := set.Run(start + wire + pr.LinkLatency - 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		dst     int
		begin   time.Duration
	}{
		{"shard0/engine", 1, start},
		{"shard1/engine", 2, start + wire},
	} {
		engine := string(f.Section(c.section))
		var seq string
		for _, l := range strings.Split(engine, "\n") {
			if head, typ, ok := strings.Cut(l, " arg="); ok && typ == "*fabric.Packet" {
				_, seq, _ = strings.Cut(head, " seq=")
			}
		}
		if seq == "" {
			t.Errorf("%s: no pending arg=*fabric.Packet event:\n%s", c.section, engine)
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("event[%s].DstNode=%d", seq, c.dst),
			fmt.Sprintf("event[%s].begin=%d", seq, int64(c.begin)),
		} {
			if !strings.Contains(engine, want+"\n") {
				t.Errorf("%s: no line %q:\n%s", c.section, want, engine)
			}
		}
	}
}
