package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hfi"
	"repro/internal/linux"
	"repro/internal/mlx"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uproc"
	"repro/internal/verbs"
)

// oneRank boots a single-node cluster and runs body as one rank's
// process with that rank's OS personality.
func oneRank(t *testing.T, os OSType, body func(p *sim.Proc, n *Node, o *RankOS) error) *Node {
	t.Helper()
	c, err := New(Spec{Nodes: 1, OS: os, Params: model.Default(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	// One personality type whatever the OS: the declaration stops
	// compiling if NewRankOS goes back to returning an interface.
	var o *RankOS = n.NewRankOS(0)
	done := false
	c.Go(0, "rank0", func(p *sim.Proc) {
		if err := body(p, n, o); err != nil {
			t.Errorf("%v: %v", os, err)
		}
		done = true
	})
	if err := c.Run(0); err != nil {
		t.Fatalf("%v: %v", os, err)
	}
	if !done {
		t.Fatalf("%v: rank did not finish", os)
	}
	return n
}

// selfSend encodes an eager SDMA header addressed to the rank's own
// receive context at hva and returns the writev vector sending size
// bytes of buf.
func selfSend(o *RankOS, ctxt uint64, hva, buf uproc.VirtAddr, size uint64) ([]hfi.IOVec, error) {
	hdr := &hfi.SDMAHeader{Op: hfi.OpEager, DstNode: uint32(o.NodeID()), DstCtx: uint32(ctxt),
		Tag: 5, MsgID: 1, MsgLen: size, CompSeq: 1, Flags: hfi.FlagSynthetic}
	if err := hfi.EncodeSDMAHeader(o.Proc(), hva, hdr); err != nil {
		return nil, err
	}
	return []hfi.IOVec{{Base: hva, Len: hfi.SDMAHeaderSize}, {Base: buf, Len: size}}, nil
}

// TestOneSyscallTable pins the paper's syscall table (§2.1, §3): one
// personality type on every OS configuration, one sequence of calls
// profiled under the same names, and only the route differing — local on
// Linux, offloaded on McKernel, writev and the TID ioctl fast-pathed by
// the PicoDriver with every other device call still offloaded.
func TestOneSyscallTable(t *testing.T) {
	const size = 32 << 10
	type route int
	const (
		local   route = iota // memory management: served by the rank's own kernel everywhere
		device               // device call: offloaded on both McKernel configurations
		ported               // device call the HFI PicoDriver ported (§3)
		nowhere              // not a system call: waiting for the SDMA completion
	)
	for _, os := range AllOSTypes {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			oneRank(t, os, func(p *sim.Proc, n *Node, o *RankOS) error {
				prof := n.Lin.Syscalls
				if os != OSLinux {
					prof = n.Mck.Syscalls
				} else if n.Del != nil || n.Mck != nil {
					t.Error("Linux node has a delegation channel")
				}

				var (
					f        *linux.File
					ctxt     uint64
					hva, buf uproc.VirtAddr
				)
				steps := []struct {
					name, prof string
					route      route
					call       func() error
				}{
					{"open", "open", device, func() (err error) {
						f, err = o.Open(p, "/dev/hfi1")
						return
					}},
					{"ctxt-info ioctl", "ioctl", device, func() (err error) {
						ctxt, err = o.Ioctl(p, f, hfi.CmdCtxtInfo, 0)
						return
					}},
					{"mmap-dev", "mmap", device, func() error {
						_, err := o.MmapDevice(p, f, hfi.MmapStatus, 0)
						return err
					}},
					{"mmap-anon", "mmap", local, func() (err error) {
						if hva, err = o.MmapAnon(p, 64<<10); err == nil {
							buf = hva + 4096
						}
						return
					}},
					{"writev", "writev", ported, func() error {
						iov, err := selfSend(o, ctxt, hva, buf, size)
						if err != nil {
							return err
						}
						if n, err := o.Writev(p, f, iov); err != nil || n != size {
							return fmt.Errorf("writev = %d, %v", n, err)
						}
						return nil
					}},
					{"sdma drain", "", nowhere, func() error {
						p.Sleep(5 * time.Millisecond)
						return nil
					}},
					{"tid-update ioctl", "ioctl", ported, func() error {
						argVA, listVA := hva+2048, hva+(48<<10)
						ti := &hfi.TIDInfo{VAddr: buf, Length: size, TIDListVA: listVA, TIDCount: 64}
						if err := hfi.EncodeTIDInfo(o.Proc(), argVA, ti); err != nil {
							return err
						}
						if n, err := o.Ioctl(p, f, hfi.CmdTIDUpdate, argVA); err != nil || n == 0 {
							return fmt.Errorf("TID update = %d, %v", n, err)
						}
						return nil
					}},
					{"poll", "poll", device, func() error {
						_, err := o.Poll(p, f)
						return err
					}},
					{"misc", "read", device, func() error {
						o.Misc(p, "read", 2*time.Microsecond)
						return nil
					}},
					{"munmap", "munmap", local, func() error { return o.Munmap(p, hva) }},
					{"close", "close", device, func() error { return o.Close(p, f) }},
				}
				for _, s := range steps {
					before := prof.Clone()
					var offloads, fastW, fastI uint64
					if n.Del != nil {
						offloads = n.Del.Count
					}
					if n.Pico != nil {
						fastW, fastI = n.Pico.FastWritevs, n.Pico.FastIoctls
					}
					if err := s.call(); err != nil {
						return fmt.Errorf("%s: %w", s.name, err)
					}

					// (b) the same profile name, once, in the same order.
					delta := prof.Clone()
					delta.Sub(before)
					got := delta.Top(0)
					if s.route == nowhere {
						if len(got) != 0 {
							t.Errorf("%s: profile recorded %+v", s.name, got)
						}
						continue
					}
					if len(got) != 1 || got[0].Name != s.prof || got[0].Count != 1 {
						t.Errorf("%s: profile recorded %+v, want one %q", s.name, got, s.prof)
					}

					// (c) the paper's route.
					var wantOff, wantFast uint64
					switch {
					case os == OSLinux || s.route == local:
					case os == OSMcKernelHFI && s.route == ported:
						wantFast = 1
					default:
						wantOff = 1
					}
					if n.Del != nil && n.Del.Count-offloads != wantOff {
						t.Errorf("%s: %d offloads, want %d", s.name, n.Del.Count-offloads, wantOff)
					}
					if n.Pico != nil {
						if fast := n.Pico.FastWritevs - fastW + n.Pico.FastIoctls - fastI; fast != wantFast {
							t.Errorf("%s: %d fast-path calls, want %d", s.name, fast, wantFast)
						}
					}
				}
				if n.Pico != nil && (n.Pico.FastWritevs != 1 || n.Pico.FastIoctls != 1) {
					t.Errorf("HFIPico served %d writevs, %d ioctls; want 1, 1",
						n.Pico.FastWritevs, n.Pico.FastIoctls)
				}
				return nil
			})
		})
	}
}

// TestBypassCoversOnlyTheFailedDevice: an SDMA failover flags the rank's
// /dev/hfi1 descriptor, and only that descriptor leaves the fast path.
// The verbs HCA sits on the separate, fault-exempt IB fabric; its
// PicoDriver keeps serving the same rank's memory registrations.
func TestBypassCoversOnlyTheFailedDevice(t *testing.T) {
	const size = 32 << 10
	oneRank(t, OSMcKernelHFI, func(p *sim.Proc, n *Node, o *RankOS) error {
		f, err := o.Open(p, "/dev/hfi1")
		if err != nil {
			return err
		}
		ctxt, err := o.Ioctl(p, f, hfi.CmdCtxtInfo, 0)
		if err != nil {
			return err
		}
		u, err := verbs.Open(p, o)
		if err != nil {
			return err
		}
		hva, err := o.MmapAnon(p, 64<<10)
		if err != nil {
			return err
		}
		buf := hva + 4096

		f.NoFastPath = true // what the PSM health machine does on causeSDMA

		offloads, regs := n.Del.Count, n.MlxPico.FastRegs
		mr, err := u.RegMR(p, buf, size, mlx.AccessLocalWrite)
		if err != nil {
			return err
		}
		if n.MlxPico.FastRegs != regs+1 || n.Del.Count != offloads {
			t.Errorf("RegMR during an HFI bypass: %d fast registrations, %d offloads; want 1, 0",
				n.MlxPico.FastRegs-regs, n.Del.Count-offloads)
		}

		iov, err := selfSend(o, ctxt, hva, buf, size)
		if err != nil {
			return err
		}
		linWritevs := n.Lin.Syscalls.Count("writev")
		if _, err := o.Writev(p, f, iov); err != nil {
			return err
		}
		if n.Pico.FastWritevs != 0 {
			t.Errorf("flagged descriptor: HFIPico served %d writevs", n.Pico.FastWritevs)
		}
		if got := n.Lin.Syscalls.Count("writev") - linWritevs; got != 1 || n.Del.Count != offloads+1 {
			t.Errorf("flagged writev: %d Linux writevs, %d offloads; want 1, 1",
				got, n.Del.Count-offloads)
		}
		p.Sleep(5 * time.Millisecond)

		deregs := n.MlxPico.FastDeregs
		if err := u.DeregMR(p, mr); err != nil {
			return err
		}
		if n.MlxPico.FastDeregs != deregs+1 || n.Del.Count != offloads+1 {
			t.Errorf("DeregMR during an HFI bypass: %d fast deregistrations, %d offloads since the writev",
				n.MlxPico.FastDeregs-deregs, n.Del.Count-offloads-1)
		}
		if err := u.Close(p); err != nil {
			return err
		}
		return o.Close(p, f)
	})
}
