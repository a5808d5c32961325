package psm_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// runPair boots the 2-node, 1-rank-per-node Linux cluster spec describes
// (seed 21) and runs body on both ranks once the endpoints exist.
func runPair(t *testing.T, spec cluster.Spec, body func(p *sim.Proc, rank int, ep *psm.Endpoint)) (*cluster.Cluster, []*psm.Endpoint) {
	t.Helper()
	spec.Nodes, spec.OS, spec.Seed = 2, cluster.OSLinux, 21
	cl, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ranks := cl.StartRanks("r", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
		body(p, rank, ep)
		return nil
	})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Err(); err != nil {
		t.Error(err)
	}
	return cl, ranks.Endpoints()
}

// pair is runPair on the default loss-free machine.
func pair(t *testing.T, synthetic bool, body func(p *sim.Proc, rank int, ep *psm.Endpoint)) []*psm.Endpoint {
	t.Helper()
	_, eps := runPair(t, cluster.Spec{Params: model.Default(), Synthetic: synthetic}, body)
	return eps
}

// TestSameTagFIFOOrdering: two messages on one (src, tag) pair must
// match receives in send order (MPI non-overtaking), whether the
// receives are posted before the data arrives or after, and whichever
// message finishes arriving first.
func TestSameTagFIFOOrdering(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size1, size2 uint64
		// late: rank 1 polls until the second message has fully arrived
		// before posting either receive.
		late bool
	}{
		{name: "posted-first", size1: 4 << 10, size2: 4 << 10},
		// A 64 KB eager-SDMA message followed by a 16 KB PIO one: the
		// short message completes while the long one is still partial,
		// and must not overtake it.
		{name: "short-completes-first", size1: 64 << 10, size2: 16 << 10, late: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const capacity = 64 << 10
			var first, second byte
			pair(t, false, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
				proc := ep.OS.Proc()
				buf, err := ep.OS.MmapAnon(p, 2*capacity)
				if err != nil {
					t.Error(err)
					return
				}
				if rank == 0 {
					if err := proc.WriteAt(buf, bytes.Repeat([]byte{0xAA}, int(tc.size1))); err != nil {
						t.Error(err)
						return
					}
					if err := proc.WriteAt(buf+capacity, bytes.Repeat([]byte{0xBB}, int(tc.size2))); err != nil {
						t.Error(err)
						return
					}
					r1, err := ep.Isend(p, 1, 7, buf, tc.size1)
					if err != nil {
						t.Error(err)
						return
					}
					r2, err := ep.Isend(p, 1, 7, buf+capacity, tc.size2)
					if err != nil {
						t.Error(err)
						return
					}
					if err := ep.WaitAll(p, []*psm.Request{r1, r2}); err != nil {
						t.Error(err)
					}
					return
				}
				if tc.late {
					if err := ep.WaitFor(p, func() bool { return ep.Stats.Unexpected > 0 }); err != nil {
						t.Error(err)
						return
					}
				}
				r1, err := ep.Irecv(p, 0, 7, buf, capacity)
				if err != nil {
					t.Error(err)
					return
				}
				r2, err := ep.Irecv(p, 0, 7, buf+capacity, capacity)
				if err != nil {
					t.Error(err)
					return
				}
				if err := ep.WaitAll(p, []*psm.Request{r1, r2}); err != nil {
					t.Error(err)
					return
				}
				var b [1]byte
				_ = proc.ReadAt(buf, b[:])
				first = b[0]
				_ = proc.ReadAt(buf+capacity, b[:])
				second = b[0]
			})
			if first != 0xAA || second != 0xBB {
				t.Fatalf("FIFO order violated: first receive got %#x, second %#x", first, second)
			}
		})
	}
}

// TestTruncationRejected: a message larger than the posted receive is an
// error, not silent corruption.
func TestTruncationRejected(t *testing.T) {
	gotErr := false
	pair(t, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, 64<<10)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			// 32KB eager SDMA message into a 4KB receive.
			if err := ep.Send(p, 1, 3, buf, 32<<10); err != nil {
				t.Error(err)
			}
		} else {
			err := ep.Recv(p, 0, 3, buf, 4<<10)
			if err != nil {
				gotErr = true
			}
		}
	})
	if !gotErr {
		t.Fatal("truncating receive succeeded")
	}
}

// TestManyOutstandingRendezvous exercises the TID window limit and the
// rendezvous backlog: more concurrent large receives than maxActiveRdv.
func TestManyOutstandingRendezvous(t *testing.T) {
	const size = 128 << 10
	const msgs = 10 // > maxActiveRdv (4)
	done := 0
	pair(t, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, msgs*size)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			var reqs []*psm.Request
			for i := 0; i < msgs; i++ {
				r, err := ep.Isend(p, 1, uint64(100+i), buf+uproc.VirtAddr(i)*size, size)
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, r)
			}
			if err := ep.WaitAll(p, reqs); err != nil {
				t.Error(err)
			}
		} else {
			var reqs []*psm.Request
			for i := 0; i < msgs; i++ {
				r, err := ep.Irecv(p, 0, uint64(100+i), buf+uproc.VirtAddr(i)*size, size)
				if err != nil {
					t.Error(err)
					return
				}
				reqs = append(reqs, r)
			}
			if err := ep.WaitAll(p, reqs); err != nil {
				t.Error(err)
				return
			}
			done = msgs
		}
	})
	if done != msgs {
		t.Fatalf("completed %d of %d rendezvous", done, msgs)
	}
}

// TestStatsAccounting sanity-checks the per-endpoint counters.
func TestStatsAccounting(t *testing.T) {
	eps := pair(t, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, 1<<20)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			_ = ep.Send(p, 1, 1, buf, 512)     // PIO
			_ = ep.Send(p, 1, 2, buf, 32<<10)  // eager SDMA
			_ = ep.Send(p, 1, 3, buf, 256<<10) // rendezvous
		} else {
			_ = ep.Recv(p, 0, 1, buf, 512)
			_ = ep.Recv(p, 0, 2, buf, 32<<10)
			_ = ep.Recv(p, 0, 3, buf, 256<<10)
		}
	})
	s := eps[0].Stats
	if s.SendsPIO != 1 || s.SendsEagerSDMA != 1 || s.SendsRdv != 1 {
		t.Fatalf("send stats = %+v", s)
	}
	if s.BytesSent != 512+32<<10+256<<10 {
		t.Fatalf("bytes sent = %d", s.BytesSent)
	}
	r := eps[1].Stats
	if r.Recvs != 3 || r.BytesRecv != s.BytesSent {
		t.Fatalf("recv stats = %+v", r)
	}
	if r.TIDIoctls == 0 {
		t.Fatal("rendezvous did not register TIDs")
	}
	if s.Writevs == 0 {
		t.Fatal("no writev issued")
	}
}

// TestSteadyStateRoundTripAllocs pins that a warm 1 KB Send+Recv round
// trip on a loss-free fabric allocates nothing, payloads included: Wait
// hands each request back and the next Isend or Irecv reuses its record.
func TestSteadyStateRoundTripAllocs(t *testing.T) {
	const size = 1 << 10
	const runs = 50
	pair(t, false, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			t.Error(err)
			return
		}
		bounce := func(peer int) {
			if err == nil && rank == 0 {
				err = ep.Send(p, peer, 1, buf, size)
			}
			if err == nil {
				err = ep.Recv(p, peer, 1, buf, size)
			}
			if err == nil && rank == 1 {
				err = ep.Send(p, peer, 1, buf, size)
			}
		}
		if rank == 1 {
			for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up, then its runs
				bounce(0)
			}
		} else if got := testing.AllocsPerRun(runs, func() { bounce(1) }); got != 0 {
			t.Errorf("1 KB round trip: %v allocations, want 0", got)
		}
		if err != nil {
			t.Error(err)
		}
	})
}

// TestUnknownDestination errors cleanly.
func TestUnknownDestination(t *testing.T) {
	pair(t, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		if rank != 0 {
			return
		}
		buf, _ := ep.OS.MmapAnon(p, 4096)
		if _, err := ep.Isend(p, 42, 1, buf, 128); err == nil {
			t.Error("send to unknown rank accepted")
		}
	})
}
