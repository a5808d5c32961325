package psm

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
)

// FuzzRetainedHolds runs an op program against the retained-chunk hold
// accounting and checks every chunk's count against a reference after
// each op. The program sends on one flow (a listing plus one copy in
// flight), duplicates, delivers or drops copies, ACKs and NAKs (the
// NAK's implied ACK, then a go-back-N round), starts, steps and ends
// rounds, and fails the flow. The reference counts a chunk's holders
// directly: the packets listed on the flow, the packets retired while a
// round ran (held until the last round ends), and the copies in flight.
// A chunk is back in the endpoint's pool (poisoned) exactly when that
// count is zero, the pool's live count is the number of chunks with a
// holder, a round step never resends a chunk reused for another packet,
// and once everything has landed and been acknowledged CheckRetained
// passes.
func FuzzRetainedHolds(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 1, 2, 0, 2, 0, 2, 0})
	// A round starts, an ACK lands under it, the round resends a retired
	// packet, and new sends reuse nothing until the round ends.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 0, 3, 2, 0, 0, 6, 0, 6, 0, 2, 0, 2, 0, 2, 0, 0, 0, 7, 0, 0, 0})
	// Duplicates, a NAK round with an overlapping timer round, a failure.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 1, 4, 1, 5, 0, 6, 0, 6, 1, 3, 9, 6, 0, 8, 0, 7, 1, 2, 3, 7, 0, 0, 0})

	pr := model.Default()
	phys, err := mem.NewPhysMem()
	if err != nil {
		f.Fatal(err)
	}
	eng := sim.NewEngine(1)
	f.Cleanup(eng.Close)
	nic, err := hfi.NewNIC(eng, &pr, 0, phys, fabric.New(eng, &pr))
	if err != nil {
		f.Fatal(err)
	}

	type copyRef struct {
		psn uint32
		c   *chunk
	}
	type round struct {
		pkts []txPkt // the array the round iterates, as goBackN's range holds it
		want []txPkt // the reference's listing at the round's start
		pos  int
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		ep := &Endpoint{nic: nic}
		ep.initPools()
		fl := newTxFlow(1, Addr{Node: 1})
		var (
			listed   []txPkt   // the reference's unacked listing
			detached []*chunk  // retired while a round ran
			flight   []copyRef // copies in flight
			rounds   []*round
			made     []*chunk
		)
		stamp := func(c *chunk) uint32 { return binary.LittleEndian.Uint32(c.buf) }
		check := func(op int) {
			t.Helper()
			want := map[*chunk]int{}
			for _, tp := range listed {
				want[tp.chunk]++
			}
			for _, c := range detached {
				want[c]++
			}
			for _, cp := range flight {
				want[cp.c]++
			}
			held := 0
			for _, c := range made {
				if err := ep.chunks.CheckHolds(one(c, want[c])); err != nil {
					t.Fatalf("op %d: chunk of PSN %d: %v", op, stamp(c), err)
				}
				if free := freed(c); free != (want[c] == 0) {
					t.Fatalf("op %d: chunk of PSN %d with %d holders: back in the pool %v", op, stamp(c), want[c], free)
				}
				if want[c] > 0 {
					held++
				}
			}
			if live := ep.chunks.Stats().Live(); live != int64(held) {
				t.Fatalf("op %d: %d chunks out of the pool, %d held", op, live, held)
			}
		}
		// retireRef mirrors txFlow.retire on the reference.
		retireRef := func(cum uint32) {
			n := 0
			for n < len(listed) && listed[n].psn <= cum {
				n++
			}
			if len(rounds) > 0 {
				for _, tp := range listed[:n] {
					detached = append(detached, tp.chunk)
				}
			}
			listed = slices.Delete(listed, 0, n)
		}
		startRound := func() {
			fl.rounds++
			rounds = append(rounds, &round{pkts: fl.unacked, want: slices.Clone(listed)})
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%9, int(ops[i+1])
			switch op {
			case 0: // send
				if fl.failed != nil {
					continue
				}
				fl.nextPSN++
				c := ep.chunks.Get()
				if !slices.Contains(made, c) {
					made = append(made, c)
				}
				binary.LittleEndian.PutUint32(c.buf, fl.nextPSN)
				tp := txPkt{psn: fl.nextPSN, payload: c.buf[:64+arg], chunk: c}
				fl.retain(tp)
				listed = append(listed, tp)
				c.HoldPayload()
				flight = append(flight, copyRef{tp.psn, c})
			case 1: // the fabric duplicates a copy in flight
				if len(flight) == 0 {
					continue
				}
				cp := flight[arg%len(flight)]
				cp.c.HoldPayload()
				flight = append(flight, cp)
			case 2: // a copy is delivered or dropped
				if len(flight) == 0 {
					continue
				}
				k := arg % len(flight)
				cp := flight[k]
				if stamp(cp.c) != cp.psn {
					t.Fatalf("op %d: copy of PSN %d carries PSN %d's bytes: its chunk was reused in flight", i/2, cp.psn, stamp(cp.c))
				}
				flight = slices.Delete(flight, k, k+1)
				cp.c.ReleasePayload()
			case 3, 4: // ACK, or NAK: its implied ACK and a go-back-N round
				if len(listed) == 0 {
					continue
				}
				cum := listed[0].psn - 1 + uint32(arg%(len(listed)+1))
				fl.retire(cum)
				retireRef(cum)
				if op == 4 {
					startRound()
				}
			case 5: // a timer-driven round starts
				startRound()
			case 6: // a round resends its next packet
				if len(rounds) == 0 {
					continue
				}
				r := rounds[arg%len(rounds)]
				if r.pos >= len(r.pkts) {
					continue
				}
				tp, want := r.pkts[r.pos], r.want[r.pos]
				r.pos++
				if tp.psn != want.psn || tp.chunk != want.chunk {
					t.Fatalf("op %d: round read PSN %d, its resend set had PSN %d", i/2, tp.psn, want.psn)
				}
				if stamp(tp.chunk) != tp.psn || freed(tp.chunk) {
					t.Fatalf("op %d: round resends PSN %d from a chunk reused for PSN %d (back in the pool %v)", i/2, tp.psn, stamp(tp.chunk), freed(tp.chunk))
				}
				tp.chunk.HoldPayload()
				flight = append(flight, copyRef{tp.psn, tp.chunk})
			case 7: // a round ends
				if len(rounds) == 0 {
					continue
				}
				k := arg % len(rounds)
				rounds = slices.Delete(rounds, k, k+1)
				fl.endRound()
				if len(rounds) == 0 {
					detached = detached[:0]
				}
			case 8: // the flow fails
				if fl.failed != nil {
					continue
				}
				fl.fail(ep, &fl.recovery, errors.New("retry budget"))
				if len(rounds) > 0 {
					for _, tp := range listed {
						detached = append(detached, tp.chunk)
					}
				}
				listed = nil
			}
			check(i / 2)
		}
		for len(rounds) > 0 {
			rounds = rounds[1:]
			fl.endRound()
		}
		detached = detached[:0]
		for _, cp := range flight {
			cp.c.ReleasePayload()
		}
		flight = nil
		fl.retire(fl.nextPSN)
		listed = nil
		check(len(ops) / 2)
		if err := ep.CheckRetained(); err != nil {
			t.Fatal(err)
		}
	})
}

// freed reports whether c is back in its pool: a free record panics on
// use.
func freed(c *chunk) (free bool) {
	defer func() { free = recover() != nil }()
	c.Check()
	return false
}
