package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
)

// runPair boots a 2-node cluster with one rank per node, runs body
// inside each rank's process after both endpoints exist, and returns
// the finished cluster.
func runPair(t *testing.T, os OSType, synthetic bool,
	body func(p *sim.Proc, rank int, ep *psm.Endpoint)) *Cluster {
	t.Helper()
	c, err := New(Spec{Nodes: 2, OS: os, Params: model.Default(), Seed: 42, Synthetic: synthetic})
	if err != nil {
		t.Fatal(err)
	}
	ranks := c.StartRanks("rank", []int{0, 1}, synthetic, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		body(p, r, ep)
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatalf("%v: %v", os, err)
	}
	if err := ranks.Err(); err != nil {
		t.Errorf("%v: %v", os, err)
	}
	return c
}

// pattern fills a deterministic byte pattern.
func pattern(n uint64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// TestPingPongDataIntegrity exercises every transfer path (PIO eager,
// SDMA eager, rendezvous single- and multi-window) on every OS
// configuration with real payloads.
func TestPingPongDataIntegrity(t *testing.T) {
	sizes := []uint64{
		512,              // PIO, single chunk
		12 << 10,         // PIO, multiple chunks
		32 << 10,         // SDMA eager
		256 << 10,        // rendezvous, one window
		(1 << 20) + 4096, // rendezvous, multiple windows, unaligned
	}
	for _, os := range AllOSTypes {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			for _, size := range sizes {
				size := size
				t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
					verified := 0
					runPair(t, os, false, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
						buf, err := ep.OS.MmapAnon(p, size)
						if err != nil {
							t.Error(err)
							return
						}
						proc := ep.OS.Proc()
						if rank == 0 {
							want := pattern(size, 3)
							if err := proc.WriteAt(buf, want); err != nil {
								t.Error(err)
								return
							}
							if err := ep.Send(p, 1, 77, buf, size); err != nil {
								t.Errorf("send: %v", err)
								return
							}
							// Await the echo.
							if err := ep.Recv(p, 1, 78, buf, size); err != nil {
								t.Errorf("recv echo: %v", err)
								return
							}
							got := make([]byte, size)
							if err := proc.ReadAt(buf, got); err != nil {
								t.Error(err)
								return
							}
							echo := pattern(size, 9)
							if !bytes.Equal(got, echo) {
								t.Error("echoed payload corrupted")
								return
							}
							verified++
						} else {
							if err := ep.Recv(p, 0, 77, buf, size); err != nil {
								t.Errorf("recv: %v", err)
								return
							}
							got := make([]byte, size)
							if err := proc.ReadAt(buf, got); err != nil {
								t.Error(err)
								return
							}
							if !bytes.Equal(got, pattern(size, 3)) {
								t.Error("received payload corrupted")
								return
							}
							verified++
							reply := pattern(size, 9)
							if err := proc.WriteAt(buf, reply); err != nil {
								t.Error(err)
								return
							}
							if err := ep.Send(p, 0, 78, buf, size); err != nil {
								t.Errorf("echo send: %v", err)
							}
						}
					})
					if verified != 2 {
						t.Fatalf("verified = %d, want 2", verified)
					}
				})
			}
		})
	}
}

// TestIntraNodeMessaging covers the shared-memory local path.
func TestIntraNodeMessaging(t *testing.T) {
	c, err := New(Spec{Nodes: 1, OS: OSMcKernelHFI, Params: model.Default(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const size = 100 << 10
	ok := false
	ranks := c.StartRanks("rank", []int{0, 0}, false, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		if r == 0 {
			if err := ep.OS.Proc().WriteAt(buf, pattern(size, 5)); err != nil {
				return err
			}
			return ep.Send(p, 1, 1, buf, size)
		}
		if err := ep.Recv(p, 0, 1, buf, size); err != nil {
			return err
		}
		got := make([]byte, size)
		if err := ep.OS.Proc().ReadAt(buf, got); err != nil {
			return err
		}
		if !bytes.Equal(got, pattern(size, 5)) {
			return errors.New("local payload corrupted")
		}
		ok = true
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Err(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("local message not verified")
	}
	if st := ranks.Endpoints()[0].Stats; st.SendsLocal != 1 {
		t.Fatalf("local path not used: %+v", st)
	}
}

// TestUnexpectedMessages sends before the receive is posted.
func TestUnexpectedMessages(t *testing.T) {
	const size = 32 << 10 // SDMA eager
	done := false
	runPair(t, OSLinux, false, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			if err := ep.OS.Proc().WriteAt(buf, pattern(size, 11)); err != nil {
				t.Error(err)
				return
			}
			if err := ep.Send(p, 1, 5, buf, size); err != nil {
				t.Error(err)
			}
		} else {
			// Let the message arrive unexpectedly.
			ep.OS.Compute(p, 5*time.Millisecond)
			for {
				made, err := ep.Progress(p)
				if err != nil {
					t.Error(err)
					return
				}
				if made {
					break
				}
				p.Sleep(10 * time.Microsecond)
			}
			if err := ep.Recv(p, 0, 5, buf, size); err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, size)
			if err := ep.OS.Proc().ReadAt(buf, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, pattern(size, 11)) {
				t.Error("unexpected-path payload corrupted")
				return
			}
			if ep.Stats.Unexpected == 0 {
				t.Error("message did not take the unexpected path")
			}
			done = true
		}
	})
	if !done {
		t.Fatal("receiver did not finish")
	}
}

// TestSyntheticModeTimingMatchesReal runs the same rendezvous transfer
// in real and synthetic modes; completion times must be identical.
func TestSyntheticModeTimingMatchesReal(t *testing.T) {
	const size = 1 << 20
	times := map[bool]time.Duration{}
	for _, synthetic := range []bool{false, true} {
		var finish time.Duration
		runPair(t, OSMcKernelHFI, synthetic, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
			buf, err := ep.OS.MmapAnon(p, size)
			if err != nil {
				t.Error(err)
				return
			}
			if rank == 0 {
				if err := ep.Send(p, 1, 9, buf, size); err != nil {
					t.Error(err)
				}
			} else {
				if err := ep.Recv(p, 0, 9, buf, size); err != nil {
					t.Error(err)
				}
				finish = p.Now()
			}
		})
		times[synthetic] = finish
	}
	if times[false] != times[true] {
		t.Fatalf("synthetic timing differs: real=%v synthetic=%v", times[false], times[true])
	}
}

// TestOSConfigOrdering is the headline fig4 shape at 4 MB: original
// McKernel slower than Linux, McKernel+HFI faster than Linux.
func TestOSConfigOrdering(t *testing.T) {
	const size = 4 << 20
	const reps = 4
	elapsed := map[OSType]time.Duration{}
	for _, os := range AllOSTypes {
		var lat time.Duration
		runPair(t, os, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
			buf, err := ep.OS.MmapAnon(p, size)
			if err != nil {
				t.Error(err)
				return
			}
			if rank == 0 {
				start := p.Now()
				for i := 0; i < reps; i++ {
					tag := uint64(100 + i)
					if err := ep.Send(p, 1, tag, buf, size); err != nil {
						t.Error(err)
						return
					}
					if err := ep.Recv(p, 1, tag, buf, size); err != nil {
						t.Error(err)
						return
					}
				}
				lat = p.Now() - start
			} else {
				for i := 0; i < reps; i++ {
					tag := uint64(100 + i)
					if err := ep.Recv(p, 0, tag, buf, size); err != nil {
						t.Error(err)
						return
					}
					if err := ep.Send(p, 0, tag, buf, size); err != nil {
						t.Error(err)
						return
					}
				}
			}
		})
		elapsed[os] = lat
	}
	t.Logf("4MB ping-pong x%d: Linux=%v McKernel=%v McKernel+HFI=%v",
		reps, elapsed[OSLinux], elapsed[OSMcKernel], elapsed[OSMcKernelHFI])
	if !(elapsed[OSMcKernelHFI] < elapsed[OSLinux]) {
		t.Errorf("McKernel+HFI (%v) should beat Linux (%v)", elapsed[OSMcKernelHFI], elapsed[OSLinux])
	}
	if !(elapsed[OSLinux] < elapsed[OSMcKernel]) {
		t.Errorf("Linux (%v) should beat original McKernel (%v)", elapsed[OSLinux], elapsed[OSMcKernel])
	}
}

// TestPicoFastPathUsed asserts the PicoDriver actually served the calls.
func TestPicoFastPathUsed(t *testing.T) {
	const size = 1 << 20
	c := runPair(t, OSMcKernelHFI, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			if err := ep.Send(p, 1, 3, buf, size); err != nil {
				t.Error(err)
			}
		} else {
			if err := ep.Recv(p, 0, 3, buf, size); err != nil {
				t.Error(err)
			}
		}
	})
	var writevs, ioctls, completions uint64
	for _, n := range c.Nodes {
		writevs += n.Pico.FastWritevs
		ioctls += n.Pico.FastIoctls
		completions += n.Pico.CompletionRuns
	}
	if writevs == 0 || ioctls == 0 {
		t.Fatalf("fast path unused: writevs=%d ioctls=%d", writevs, ioctls)
	}
	if completions == 0 {
		t.Fatal("McKernel completion callback never ran on Linux CPUs")
	}
	// The §3.3 foreign-free path must have been exercised.
	foreign := 0
	for _, n := range c.Nodes {
		foreign += n.LWKSpace.ForeignFreeCount
	}
	if foreign == 0 {
		t.Fatal("no foreign-CPU kfree occurred; completion path is not running on Linux CPUs")
	}
	// And no offloads should have been needed for writev/ioctl beyond
	// initialization (open/mmap/admin ioctls are expected).
	for _, n := range c.Nodes {
		if n.Drv == nil {
			continue
		}
	}
}

// TestDeterministicRuns asserts two identically seeded clusters finish
// at the same virtual time.
func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		var finish time.Duration
		runPair(t, OSMcKernel, true, func(p *sim.Proc, rank int, ep *psm.Endpoint) {
			buf, err := ep.OS.MmapAnon(p, 512<<10)
			if err != nil {
				t.Error(err)
				return
			}
			if rank == 0 {
				if err := ep.Send(p, 1, 2, buf, 512<<10); err != nil {
					t.Error(err)
				}
			} else {
				if err := ep.Recv(p, 0, 2, buf, 512<<10); err != nil {
					t.Error(err)
				}
				finish = p.Now()
			}
		})
		return finish
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
