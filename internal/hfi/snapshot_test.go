package hfi

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/mem"
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
// carrying that engine's Transmit, and a receive event carrying the
// NIC. Once the transaction has retired, within IRQLatency, the pending
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
	for _, want := range []string{"*hfi.SDMAEngine", "*fabric.Transmit", "*hfi.NIC", "].Index=3", "].Arg.(*hfi.SDMAEngine).Index=3", "irq"} {
		if !seen[want] {
			t.Errorf("no snapshot named %q; seen %v", want, seen)
		}
	}
}
