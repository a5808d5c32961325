package fabric

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
)

func TestPutBufZeroesAndRecycles(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	b := f.GetBuf(64)
	for i := range b {
		b[i] = 0xAA
	}
	f.PutBuf(b)
	b2 := f.GetBuf(64)
	if &b[0] != &b2[0] {
		t.Fatalf("GetBuf after PutBuf did not reuse the buffer")
	}
	if !bytes.Equal(b2, make([]byte, 64)) {
		t.Fatalf("recycled buffer not zeroed: %x", b2)
	}
	st := f.PoolStats()
	if st.BufGets != 2 || st.BufHits != 1 || st.BufPuts != 1 {
		t.Fatalf("pool stats = %+v", st)
	}
}

func TestReleaseRecyclesPacket(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	pkt := f.GetPacket()
	pkt.Payload = f.GetBuf(16)
	pkt.PooledPayload = true
	pkt.Hdr.Tag = 42
	f.Release(pkt)
	if pkt.Payload != nil || pkt.Hdr.Tag != 0 {
		t.Fatalf("released packet not cleared: %+v", pkt)
	}
	pkt2 := f.GetPacket()
	if pkt2 != pkt {
		t.Fatalf("GetPacket after Release did not reuse the Packet")
	}
	if !pkt2.Pooled {
		t.Fatalf("recycled packet lost its Pooled mark")
	}
	// Release on a non-pooled packet is a no-op.
	f.Release(&Packet{Payload: []byte{1}})
	if got := f.PoolStats().PktPuts; got != 1 {
		t.Fatalf("PktPuts = %d, want 1", got)
	}
}

// TestPooledPayloadAliasing is the aliasing regression test for the
// pooled hot path: a receiver that (illegally) retains a delivered
// payload must observe zeroes once the packet is Released, never bytes
// of a later message — and a copy taken during delivery, the legal
// pattern, must survive recycling and sender-side reuse intact.
func TestPooledPayloadAliasing(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	var retained [][]byte // illegally kept alive across Release
	var copied [][]byte   // consumed synchronously, the legal pattern
	if _, err := f.Attach(1, func(pkt *Packet) {
		retained = append(retained, pkt.Payload)
		copied = append(copied, append([]byte(nil), pkt.Payload...))
		f.Release(pkt)
	}); err != nil {
		t.Fatal(err)
	}

	e.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			payload := f.GetBuf(32)
			for j := range payload {
				payload[j] = byte(i + 1)
			}
			pkt := f.GetPacket()
			pkt.SrcNode, pkt.DstNode = 0, 1
			pkt.Payload, pkt.PooledPayload = payload, true
			if err := f.Send(p, pkt); err != nil {
				t.Error(err)
			}
			// Wait out the delivery so the next message recycles this
			// one's buffer and packet.
			p.Sleep(2 * pr.LinkLatency)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(copied) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(copied))
	}
	for i, c := range copied {
		for _, b := range c {
			if b != byte(i+1) {
				t.Fatalf("delivery %d copy corrupted: %x", i, c)
			}
		}
	}
	// All three messages recycled one 32-byte buffer; the retained
	// aliases all point at it and it was zeroed on its final Put.
	for i, r := range retained {
		if &r[0] != &retained[0][0] {
			t.Fatalf("delivery %d did not reuse the pooled buffer", i)
		}
	}
	for _, b := range retained[0] {
		if b != 0 {
			t.Fatalf("payload retained past Release holds stale bytes: %x", retained[0])
		}
	}
	st := f.PoolStats()
	if st.BufHits != 2 || st.PktHits != 2 {
		t.Fatalf("expected steady-state reuse, stats = %+v", st)
	}
}

// TestDuplicatedPacketLeavesPool: a fault-injected duplicate means two
// in-flight packets alias one payload, so neither may recycle it. The
// packet and its payload are dropped from their pools, whose live
// counts stay balanced.
func TestDuplicatedPacketLeavesPool(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	f := New(e, &pr)
	f.SetFaults(&FaultProfile{Seed: 7, LinkFaults: LinkFaults{Dup: 1.0}})
	if _, err := f.Attach(0, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	if _, err := f.Attach(1, func(pkt *Packet) {
		payloads = append(payloads, pkt.Payload)
		f.Release(pkt)
	}); err != nil {
		t.Fatal(err)
	}
	e.Go("sender", func(p *sim.Proc) {
		payload := f.GetBuf(8)
		copy(payload, "original")
		pkt := f.GetPacket()
		pkt.SrcNode, pkt.DstNode = 0, 1
		pkt.Payload, pkt.PooledPayload = payload, true
		if err := f.Send(p, pkt); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 {
		t.Fatalf("deliveries = %d, want original + duplicate", len(payloads))
	}
	// Release must not have recycled the shared payload: both copies
	// still read the original bytes after both were released.
	for i, pl := range payloads {
		if string(pl) != "original" {
			t.Fatalf("delivery %d payload corrupted by recycling: %q", i, pl)
		}
	}
	if st := f.PoolStats(); st.BufPuts != 0 || st.PktPuts != 0 {
		t.Fatalf("shared duplicate payload was returned to the pool: %+v", st)
	}
	if err := pool.Balance(f.Pools()...); err != nil {
		t.Fatal(err)
	}
}
