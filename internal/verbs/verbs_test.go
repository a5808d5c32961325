package verbs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mlx"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uproc"
	"repro/internal/verbs"
)

// withCluster boots a cluster and runs body in a simulation process.
func withCluster(t *testing.T, os cluster.OSType, nodes int, seed int64,
	body func(p *sim.Proc, cl *cluster.Cluster) error) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: nodes, OS: os, Params: model.Default(), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cl.Go(0, "test", func(p *sim.Proc) {
		if err := body(p, cl); err != nil {
			t.Error(err)
		}
		done = true
	})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test body did not complete")
	}
	return cl
}

// syscallTotal sums kernel time across every node's profilers — the
// quantity that must not move during the data path.
func syscallTotal(cl *cluster.Cluster) time.Duration {
	var tot time.Duration
	for _, n := range cl.Nodes {
		tot += n.Lin.Syscalls.Total()
		if n.Mck != nil {
			tot += n.Mck.Syscalls.Total()
		}
	}
	return tot
}

// pair is an initiator (node 0) with an RTS QP bound to a passive
// RDMA target (node 1), with size-byte registered buffers on both ends.
type pair struct {
	osI, osT   verbs.OSOps
	uI, uT     *verbs.UContext
	qpI, qpT   *verbs.QP
	bufI, bufT uproc.VirtAddr
	mrI, mrT   *verbs.MR
}

func setupPair(p *sim.Proc, cl *cluster.Cluster, size uint64, targetAccess uint32) (*pair, error) {
	pr := &pair{}
	pr.osI = cl.Nodes[0].NewRankOS(0)
	pr.osT = cl.Nodes[1].NewRankOS(1)
	var err error
	if pr.uI, err = verbs.Open(p, pr.osI); err != nil {
		return nil, err
	}
	if pr.uT, err = verbs.Open(p, pr.osT); err != nil {
		return nil, err
	}
	// Target: window buffer plus an any-source QP in RTR.
	if pr.bufT, err = pr.osT.MmapAnon(p, size); err != nil {
		return nil, err
	}
	if pr.mrT, err = pr.uT.RegMR(p, pr.bufT, size, targetAccess); err != nil {
		return nil, err
	}
	if pr.qpT, err = pr.uT.CreateQP(p, verbs.QPConfig{}); err != nil {
		return nil, err
	}
	if err = pr.qpT.ToInit(p); err != nil {
		return nil, err
	}
	if err = pr.qpT.ToRTRAnySource(p); err != nil {
		return nil, err
	}
	// Initiator: local buffer plus a connected QP in RTS.
	if pr.bufI, err = pr.osI.MmapAnon(p, size); err != nil {
		return nil, err
	}
	if pr.mrI, err = pr.uI.RegMR(p, pr.bufI, size, mlx.AccessLocalWrite); err != nil {
		return nil, err
	}
	if pr.qpI, err = pr.uI.CreateQP(p, verbs.QPConfig{}); err != nil {
		return nil, err
	}
	if err = pr.qpI.ToInit(p); err != nil {
		return nil, err
	}
	if err = pr.qpI.ToRTR(p, 1, pr.qpT.QPN); err != nil {
		return nil, err
	}
	if err = pr.qpI.ToRTS(p); err != nil {
		return nil, err
	}
	return pr, nil
}

func pattern(n uint64, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// TestRDMAWriteReadByteExact drives an RDMA WRITE then an RDMA READ
// between two nodes for message sizes straddling the one-page,
// multi-page and large-page boundaries, on all three OS configurations,
// and checks the remote/local memory byte-for-byte against an in-memory
// reference. It also asserts the paper's kernel-bypass claim: after QP
// setup, the entire data path adds zero time to any kernel's syscall
// profile on either node.
func TestRDMAWriteReadByteExact(t *testing.T) {
	sizes := []uint64{1000, 12345, 2<<20 + 4096}
	for _, os := range cluster.AllOSTypes {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/%d", os, size), func(t *testing.T) {
				withCluster(t, os, 2, 7, func(p *sim.Proc, cl *cluster.Cluster) error {
					return writeReadBody(p, cl, size)
				})
			})
		}
	}
}

func writeReadBody(p *sim.Proc, cl *cluster.Cluster, size uint64) error {
	pr, err := setupPair(p, cl, size,
		mlx.AccessLocalWrite|mlx.AccessRemoteRead|mlx.AccessRemoteWrite)
	if err != nil {
		return err
	}
	procI, procT := pr.osI.Proc(), pr.osT.Proc()
	ref := pattern(size, 13)
	if err := procI.WriteAt(pr.bufI, ref); err != nil {
		return err
	}

	base := syscallTotal(cl)

	// WRITE: local pattern lands in the remote window.
	err = pr.qpI.PostSend(p, &verbs.WQE{Opcode: verbs.OpcodeWrite, WRID: 1,
		LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI), Len: size,
		RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT)})
	if err != nil {
		return err
	}
	cqes, err := pr.qpI.WaitCQ(p, 1)
	if err != nil {
		return err
	}
	if len(cqes) != 1 || cqes[0].Status != verbs.StatusOK || cqes[0].WRID != 1 ||
		cqes[0].Opcode != verbs.OpcodeWrite || cqes[0].Bytes != size {
		return fmt.Errorf("WRITE completion = %+v", cqes)
	}
	got := make([]byte, size)
	if err := procT.ReadAt(pr.bufT, got); err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("WRITE payload mismatch (size %d)", size)
	}

	// READ: fresh remote content lands in the local buffer.
	ref2 := pattern(size, 101)
	if err := procT.WriteAt(pr.bufT, ref2); err != nil {
		return err
	}
	err = pr.qpI.PostSend(p, &verbs.WQE{Opcode: verbs.OpcodeRead, WRID: 2,
		LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI), Len: size,
		RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT)})
	if err != nil {
		return err
	}
	if cqes, err = pr.qpI.WaitCQ(p, 1); err != nil {
		return err
	}
	if len(cqes) != 1 || cqes[0].Status != verbs.StatusOK || cqes[0].WRID != 2 {
		return fmt.Errorf("READ completion = %+v", cqes)
	}
	if err := procI.ReadAt(pr.bufI, got); err != nil {
		return err
	}
	if !bytes.Equal(got, ref2) {
		return fmt.Errorf("READ payload mismatch (size %d)", size)
	}

	if d := syscallTotal(cl) - base; d != 0 {
		return fmt.Errorf("data path entered a kernel: syscall profile grew by %v", d)
	}
	return nil
}

// TestCQErrors checks that every misuse of the data path surfaces as an
// error completion with the right status — never a hang, never silent
// memory corruption.
func TestCQErrors(t *testing.T) {
	const size = 4096
	withCluster(t, cluster.OSMcKernelHFI, 2, 11, func(p *sim.Proc, cl *cluster.Cluster) error {
		// Target window deliberately lacks RemoteRead.
		pr, err := setupPair(p, cl, size, mlx.AccessLocalWrite|mlx.AccessRemoteWrite)
		if err != nil {
			return err
		}
		post1 := func(w *verbs.WQE) (verbs.CQE, error) {
			if err := pr.qpI.PostSend(p, w); err != nil {
				return verbs.CQE{}, err
			}
			cqes, err := pr.qpI.WaitCQ(p, 1)
			if err != nil {
				return verbs.CQE{}, err
			}
			if len(cqes) != 1 {
				return verbs.CQE{}, fmt.Errorf("got %d completions", len(cqes))
			}
			return cqes[0], nil
		}
		cases := []struct {
			name string
			wqe  verbs.WQE
			want uint32
		}{
			{"wrong rkey", verbs.WQE{Opcode: verbs.OpcodeWrite, WRID: 1,
				LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI), Len: 64,
				RKey: 0xdead, RAddr: uint64(pr.bufT)}, verbs.StatusRemoteInvalid},
			{"remote out of bounds", verbs.WQE{Opcode: verbs.OpcodeWrite, WRID: 2,
				LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI), Len: 64,
				RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT) + size - 4}, verbs.StatusRemoteAccess},
			{"READ without RemoteRead", verbs.WQE{Opcode: verbs.OpcodeRead, WRID: 3,
				LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI), Len: 64,
				RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT)}, verbs.StatusRemoteAccess},
			{"bad lkey", verbs.WQE{Opcode: verbs.OpcodeWrite, WRID: 4,
				LKey: 0xbeef, LAddr: uint64(pr.bufI), Len: 64,
				RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT)}, verbs.StatusLocalProt},
			{"local out of bounds", verbs.WQE{Opcode: verbs.OpcodeWrite, WRID: 5,
				LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI) + size - 4, Len: 64,
				RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT)}, verbs.StatusLocalProt},
		}
		for _, c := range cases {
			cqe, err := post1(&c.wqe)
			if err != nil {
				return fmt.Errorf("%s: %v", c.name, err)
			}
			if cqe.Status != c.want || cqe.WRID != c.wqe.WRID {
				return fmt.Errorf("%s: completion = %+v, want status %s",
					c.name, cqe, verbs.StatusString(c.want))
			}
		}
		// A failed WRITE must not have touched the window.
		got := make([]byte, size)
		if err := pr.osT.Proc().ReadAt(pr.bufT, got); err != nil {
			return err
		}
		if !bytes.Equal(got, make([]byte, size)) {
			return fmt.Errorf("error path modified target memory")
		}
		// Posting on a QP that never reached RTS completes in error.
		qp2, err := pr.uI.CreateQP(p, verbs.QPConfig{})
		if err != nil {
			return err
		}
		if err := qp2.ToInit(p); err != nil {
			return err
		}
		if err := qp2.PostSend(p, &verbs.WQE{Opcode: verbs.OpcodeWrite, WRID: 6,
			LKey: pr.mrI.LKey, LAddr: uint64(pr.bufI), Len: 64,
			RKey: pr.mrT.LKey, RAddr: uint64(pr.bufT)}); err != nil {
			return err
		}
		cqes, err := qp2.WaitCQ(p, 1)
		if err != nil {
			return err
		}
		if cqes[0].Status != verbs.StatusLocalQPErr {
			return fmt.Errorf("post on INIT QP: completion = %+v", cqes[0])
		}
		return nil
	})
}

// TestSendRecvChannel exercises the two-sided path: RNR when the RQ is
// empty, a byte-exact delivery into a posted receive, and the truncation
// error when the message overruns the receive buffer.
func TestSendRecvChannel(t *testing.T) {
	const size = 8192
	withCluster(t, cluster.OSMcKernel, 2, 19, func(p *sim.Proc, cl *cluster.Cluster) error {
		osI := cl.Nodes[0].NewRankOS(0)
		osT := cl.Nodes[1].NewRankOS(1)
		uI, err := verbs.Open(p, osI)
		if err != nil {
			return err
		}
		uT, err := verbs.Open(p, osT)
		if err != nil {
			return err
		}
		bufI, err := osI.MmapAnon(p, size)
		if err != nil {
			return err
		}
		bufT, err := osT.MmapAnon(p, size)
		if err != nil {
			return err
		}
		mrI, err := uI.RegMR(p, bufI, size, mlx.AccessLocalWrite)
		if err != nil {
			return err
		}
		mrT, err := uT.RegMR(p, bufT, size, mlx.AccessLocalWrite)
		if err != nil {
			return err
		}
		// Connected in both directions: SENDs consume the target's RQ.
		qpI, err := uI.CreateQP(p, verbs.QPConfig{})
		if err != nil {
			return err
		}
		qpT, err := uT.CreateQP(p, verbs.QPConfig{})
		if err != nil {
			return err
		}
		if err := qpI.ToInit(p); err != nil {
			return err
		}
		if err := qpI.ToRTR(p, 1, qpT.QPN); err != nil {
			return err
		}
		if err := qpI.ToRTS(p); err != nil {
			return err
		}
		if err := qpT.ToInit(p); err != nil {
			return err
		}
		if err := qpT.ToRTR(p, 0, qpI.QPN); err != nil {
			return err
		}

		ref := pattern(size, 77)
		if err := osI.Proc().WriteAt(bufI, ref); err != nil {
			return err
		}
		send := func(wrid, n uint64) error {
			return qpI.PostSend(p, &verbs.WQE{Opcode: verbs.OpcodeSend, WRID: wrid,
				LKey: mrI.LKey, LAddr: uint64(bufI), Len: n})
		}

		// RQ empty: receiver not ready.
		if err := send(1, size); err != nil {
			return err
		}
		cqes, err := qpI.WaitCQ(p, 1)
		if err != nil {
			return err
		}
		if cqes[0].Status != verbs.StatusRNR {
			return fmt.Errorf("SEND to empty RQ: completion = %+v", cqes[0])
		}

		// Posted receive: byte-exact delivery, completions on both ends.
		if err := qpT.PostRecv(p, &verbs.WQE{WRID: 100, LKey: mrT.LKey,
			LAddr: uint64(bufT), Len: size}); err != nil {
			return err
		}
		if err := send(2, size); err != nil {
			return err
		}
		if cqes, err = qpI.WaitCQ(p, 1); err != nil {
			return err
		}
		if cqes[0].Status != verbs.StatusOK || cqes[0].Opcode != verbs.OpcodeSend {
			return fmt.Errorf("SEND completion = %+v", cqes[0])
		}
		rcq, err := qpT.WaitCQ(p, 1)
		if err != nil {
			return err
		}
		if rcq[0].Status != verbs.StatusOK || rcq[0].Opcode != verbs.OpcodeRecv ||
			rcq[0].WRID != 100 || rcq[0].Bytes != size {
			return fmt.Errorf("RECV completion = %+v", rcq[0])
		}
		got := make([]byte, size)
		if err := osT.Proc().ReadAt(bufT, got); err != nil {
			return err
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("SEND payload mismatch")
		}

		// Receive buffer too small: truncation error on both sides.
		if err := qpT.PostRecv(p, &verbs.WQE{WRID: 101, LKey: mrT.LKey,
			LAddr: uint64(bufT), Len: 100}); err != nil {
			return err
		}
		if err := send(3, size); err != nil {
			return err
		}
		if cqes, err = qpI.WaitCQ(p, 1); err != nil {
			return err
		}
		if cqes[0].Status != verbs.StatusRemoteInvalid {
			return fmt.Errorf("overrun SEND completion = %+v", cqes[0])
		}
		if rcq, err = qpT.WaitCQ(p, 1); err != nil {
			return err
		}
		if rcq[0].Status != verbs.StatusLocalLen || rcq[0].WRID != 101 {
			return fmt.Errorf("overrun RECV completion = %+v", rcq[0])
		}
		return nil
	})
}

// TestReleaseTeardown closes a device file with live MRs and QPs still
// attached: the driver must destroy the QPs through the engine, tear
// down every orphaned registration, unpin the pages and invalidate the
// HCA keys — no leak survives the file.
func TestReleaseTeardown(t *testing.T) {
	cl := withCluster(t, cluster.OSLinux, 1, 23, func(p *sim.Proc, cl *cluster.Cluster) error {
		os := cl.Nodes[0].NewRankOS(0)
		u, err := verbs.Open(p, os)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			buf, err := os.MmapAnon(p, 256<<10)
			if err != nil {
				return err
			}
			if _, err := u.RegMR(p, buf, 256<<10, mlx.AccessLocalWrite); err != nil {
				return err
			}
		}
		qp, err := u.CreateQP(p, verbs.QPConfig{})
		if err != nil {
			return err
		}
		if err := qp.ToInit(p); err != nil {
			return err
		}
		if _, err := u.CreateQP(p, verbs.QPConfig{}); err != nil {
			return err
		}
		n := cl.Nodes[0]
		if n.Mlx.LiveMRs() != 3 || n.RNIC.LiveQPs() != 2 || n.RNIC.KeysLive() != 3 {
			return fmt.Errorf("pre-close: MRs=%d QPs=%d keys=%d",
				n.Mlx.LiveMRs(), n.RNIC.LiveQPs(), n.RNIC.KeysLive())
		}
		return u.Close(p)
	})
	n := cl.Nodes[0]
	if n.Mlx.LiveMRs() != 0 {
		t.Errorf("LiveMRs = %d after close", n.Mlx.LiveMRs())
	}
	if n.RNIC.LiveQPs() != 0 {
		t.Errorf("LiveQPs = %d after close", n.RNIC.LiveQPs())
	}
	if n.RNIC.KeysLive() != 0 {
		t.Errorf("KeysLive = %d after close", n.RNIC.KeysLive())
	}
}

// TestRDMAImmuneToFabricFaults pins the fault model's RDMA exemption:
// verbs traffic models a hardware-reliable HCA whose link-level retry
// sits below the simulation, so even a heavily lossy fault profile
// applied to the InfiniBand fabric must inject nothing into KindRDMA
// packets. The WRITE/READ data path must complete with StatusOK CQEs
// and byte-exact payloads, and the fabric's fault counters must stay
// zero — no drop, corruption, duplication or reordering ever reaches
// the CQ, which is exactly the retry semantics the CQ contract assumes.
func TestRDMAImmuneToFabricFaults(t *testing.T) {
	fp := fabric.FaultProfile{
		LinkFaults: fabric.LinkFaults{
			Drop: 0.5, Corrupt: 0.3, Dup: 0.5, Reorder: 0.5,
			ReorderDelay: time.Microsecond,
		},
		Seed: 17,
	}
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The cluster only arms its OmniPath fabric; arm the InfiniBand
	// fabric too so the KindRDMA exemption (not fabric separation) is
	// what keeps the data path clean.
	cl.IBFab.SetFaults(&fp)
	done := false
	cl.Go(0, "test", func(p *sim.Proc) {
		if err := writeReadBody(p, cl, 12345); err != nil {
			t.Error(err)
		}
		done = true
	})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test body did not complete")
	}
	if fs := cl.IBFab.FaultStats(); fs != (fabric.FaultStats{}) {
		t.Fatalf("fault injection touched RDMA traffic: %+v", fs)
	}
}
