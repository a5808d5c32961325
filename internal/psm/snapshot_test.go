package psm

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestSnapshotCoversRetainedHeader: a go-back-N flow's retained packet
// is saved with its whole header, so a replay whose retained Tag or
// Offset diverged does not verify as identical.
func TestSnapshotCoversRetainedHeader(t *testing.T) {
	section := func(mut func(*fabric.Header)) []byte {
		t.Helper()
		e := sim.NewEngine(1)
		hdr := fabric.Header{Op: 2, SrcRank: 0, Tag: 0x55, MsgID: 9, MsgLen: 8192, Offset: 4096, PSN: 3}
		mut(&hdr)
		ep := &Endpoint{eng: e, peers: map[int]*peer{1: {tx: &txFlow{
			nextPSN: 4,
			unacked: []txPkt{{psn: 3, hdr: hdr, payload: []byte("retained"), bytes: 8}},
		}}}}
		e.RegisterState("psm/rank0", ep)
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return f.Section("psm/rank0")
	}
	base := section(func(*fabric.Header) {})
	for _, c := range []struct {
		field string
		mut   func(*fabric.Header)
	}{
		{"Tag", func(h *fabric.Header) { h.Tag++ }},
		{"Offset", func(h *fabric.Header) { h.Offset += 4096 }},
	} {
		if bytes.Equal(section(c.mut), base) {
			t.Errorf("changing a retained packet's hdr.%s left the psm section unchanged:\n%s", c.field, base)
		}
	}
}
