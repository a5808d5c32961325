package hfi

import (
	"bytes"
	"testing"

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
