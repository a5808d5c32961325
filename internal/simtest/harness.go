package simtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mlx"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/uproc"
	"repro/internal/verbs"
)

// Report summarizes one successful workload execution.
type Report struct {
	Digest      string
	VirtualTime time.Duration
	Messages    int
	// Spans is the number of trace spans the run's recorder captured;
	// the serialized trace is folded into Digest.
	Spans int
}

// Repro is the single-seed repro command printed with every failure.
func Repro(base int64, cell string) string {
	return fmt.Sprintf("go test ./internal/simtest -run 'TestSimHarness$' -seed=%d -cell='%s'", base, cell)
}

// CheckCell generates the cell's workload and runs it through Check.
// Any failure carries the workload summary and a one-line repro
// command.
func CheckCell(base int64, cell string) (*Report, error) {
	return withRepro(base, cell, Check)
}

// TraceCell runs the cell once straight through, as Check's reference
// run does, and writes the run's Chrome trace to file whether or not
// the run fails; it returns the run's failure as CheckCell words it.
// Shard cells record no spans (their recorder is off).
func TraceCell(base int64, cell, file string) error {
	_, err := withRepro(base, cell, func(w Workload) (*Report, error) {
		return runWith(w, runOpts{traceOut: file})
	})
	return err
}

// withRepro generates the cell's workload and runs it with run, adding
// the workload summary and the repro command to any failure.
func withRepro(base int64, cell string, run func(Workload) (*Report, error)) (*Report, error) {
	w, err := Generate(base, cell)
	if err != nil {
		return nil, err
	}
	rep, err := run(w)
	if err != nil {
		return nil, fmt.Errorf("%w\nworkload: %s\nrepro: %s", err, w.Summary(), Repro(base, cell))
	}
	return rep, nil
}

// Check runs the workload three times and asserts same-seed
// determinism plus snapshot equivalence:
//
//  1. straight through (the reference digest);
//  2. paused at half the reference virtual time, where a full
//     simulator snapshot is captured, then resumed — the digest must
//     match, so the determinism check doubles as a pause/resume
//     invariant on Engine.Run's limit handling;
//  3. restored from that snapshot — snapshot.Restore rebuilds the
//     midpoint by replay, byte-verifies the re-encoded state against
//     the image, and the finished run's digest must again match.
func Check(w Workload) (*Report, error) {
	r1, err := Run(w)
	if err != nil {
		return nil, err
	}
	var snap []byte
	r2, err := runWith(w, runOpts{snapshotAt: r1.VirtualTime / 2, snapOut: &snap})
	if err != nil {
		return nil, fmt.Errorf("simtest: split rerun of identical workload failed: %w", err)
	}
	if r1.Digest != r2.Digest {
		return nil, fmt.Errorf("simtest: nondeterminism: same seed produced digests %s (one-shot) and %s (split at %v)",
			r1.Digest, r2.Digest, r1.VirtualTime/2)
	}
	r3, err := runWith(w, runOpts{restore: snap})
	if err != nil {
		return nil, fmt.Errorf("simtest: restore from the %v snapshot failed: %w", r1.VirtualTime/2, err)
	}
	if r1.Digest != r3.Digest {
		return nil, fmt.Errorf("simtest: snapshot equivalence violated: straight digest %s, restored-from-%v digest %s",
			r1.Digest, r1.VirtualTime/2, r3.Digest)
	}
	// Shard-aware cells additionally run unsharded: the shard count is
	// an execution strategy, so the digest must not depend on it.
	if w.Shards > 1 {
		w1 := w
		w1.Shards = 1
		ru, err := Run(w1)
		if err != nil {
			return nil, fmt.Errorf("simtest: Shards=1 rerun of shard cell failed: %w", err)
		}
		if ru.Digest != r1.Digest {
			return nil, fmt.Errorf("simtest: shard-count dependence: digest %s at Shards=%d vs %s at Shards=1",
				r1.Digest, w.Shards, ru.Digest)
		}
	}
	return r1, nil
}

// Run executes the workload once through the real stack and checks the
// invariant battery: byte-exact delivery, per-rank virtual-clock
// monotonicity, and Cluster.CheckTeardown once the machine has drained.
func Run(w Workload) (*Report, error) { return runWith(w, runOpts{}) }

// runOpts selects the checkpoint/restore variant of a harness run and
// where its trace goes.
type runOpts struct {
	// snapshotAt pauses the engine at this virtual time, captures a
	// full simulator snapshot into snapOut, and resumes. The pause
	// alone must not change any observable.
	snapshotAt time.Duration
	snapOut    *[]byte
	// restore fast-forwards the freshly built simulation through this
	// snapshot image (snapshot.Restore: replay, re-encode,
	// byte-compare) before finishing the run.
	restore []byte
	// traceOut, when non-empty, receives the run's Chrome trace JSON
	// even if the run fails.
	traceOut string
}

// runWith executes the workload under o's checkpoint/restore plan.
func runWith(w Workload, o runOpts) (*Report, error) {
	if len(w.Msgs) == 0 {
		return nil, fmt.Errorf("simtest: empty workload")
	}
	ranks := w.Nodes * w.RanksPerNode
	for i, m := range w.Msgs {
		if m.Src == m.Dst || m.Src < 0 || m.Dst < 0 || m.Src >= ranks || m.Dst >= ranks {
			return nil, fmt.Errorf("simtest: msg %d endpoints (%d→%d) invalid for %d ranks", i, m.Src, m.Dst, ranks)
		}
	}
	cl, err := cluster.New(cluster.Spec{
		Nodes:          w.Nodes,
		OS:             w.OS,
		Params:         w.Params,
		Seed:           w.Seed,
		LinuxHugePages: w.LargePages,
		Faults:         w.Faults,
		Congestion:     w.Congestion,
		Shards:         w.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rec := trace.NewRecorder()
	if !w.Untraced {
		cl.SetRecorder(rec)
	}
	sums := make([][]byte, len(w.Msgs))
	var (
		failed *cluster.FirstErr
		eps    []*psm.Endpoint
	)
	if w.RMA {
		failed = startRMA(cl, w, sums)
	} else {
		var rs *cluster.Ranks
		rs = cl.StartRanks("simtest/rank", cluster.Blocks(w.Nodes, w.RanksPerNode), nil, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
			if err := runRank(p, w, rs, r, ep, sums); err != nil {
				return fmt.Errorf("rank %d: %w", r, err)
			}
			return nil
		})
		failed, eps = &rs.FirstErr, rs.Endpoints()
	}
	var engineErr error
	if len(o.restore) > 0 {
		if _, rerr := snapshot.Restore(o.restore, cl.Machine()); rerr != nil {
			engineErr = fmt.Errorf("restore: %w", rerr)
		}
	}
	if engineErr == nil && o.snapshotAt > 0 {
		engineErr = cl.Run(o.snapshotAt)
		if engineErr == nil && o.snapOut != nil {
			var buf bytes.Buffer
			if serr := cl.Machine().Snapshot(&buf); serr != nil {
				engineErr = fmt.Errorf("snapshot at %v: %w", o.snapshotAt, serr)
			} else {
				*o.snapOut = buf.Bytes()
			}
		}
	}
	if engineErr == nil {
		engineErr = cl.Run(0)
	}
	var fails []string
	if err := failed.Err(); err != nil {
		fails = append(fails, err.Error())
	}
	// A rank's own error is the cause; a deadlock reported after it is
	// only the peers left waiting for the failed rank. Any other engine
	// error (a panic, a latched Fail) is a cause of its own and stays.
	var dl *sim.DeadlockError
	if engineErr != nil && (len(fails) == 0 || !errors.As(engineErr, &dl)) {
		fails = append(fails, engineErr.Error())
	}
	if o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, rec.ChromeTraceJSON(), 0o644); err != nil {
			fails = append(fails, fmt.Sprintf("writing trace: %v", err))
		}
	}
	if len(fails) > 0 {
		return nil, fmt.Errorf("simtest: %s", strings.Join(fails, "; "))
	}
	if err := cl.CheckTeardown(eps); err != nil {
		return nil, fmt.Errorf("simtest: %w", err)
	}
	digest, err := traceDigest(cl, eps, sums, rec)
	if err != nil {
		return nil, err
	}
	return &Report{
		Digest:      digest,
		VirtualTime: cl.Now(),
		Messages:    len(w.Msgs),
		Spans:       rec.SpanCount(),
	}, nil
}

// traceDigest folds the observable trace of a run — final virtual
// time, fabric fault and congestion counters, each node's whole NIC and
// HCA state as its snapshot section prints it, per-rank PSM statistics,
// per-message payload checksums and the serialized span trace — into a
// short stable digest. Two executions of the same workload must agree
// on every one of these.
func traceDigest(cl *cluster.Cluster, eps []*psm.Endpoint, sums [][]byte, rec *trace.Recorder) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "vt=%d\n", cl.Now())
	fmt.Fprintf(h, "faults %+v\n", cl.Fab.FaultStats())
	fmt.Fprintf(h, "cong %+v\n", cl.Fab.CongStats())
	for _, n := range cl.Nodes {
		for _, dev := range []any{n.NIC, n.RNIC} {
			fmt.Fprintf(h, "node%d %T\n", n.ID, dev)
			if err := cl.EngineFor(n.ID).WalkState(h, dev); err != nil {
				return "", err
			}
		}
	}
	for r, ep := range eps {
		if ep != nil {
			fmt.Fprintf(h, "rank%d %+v\n", r, ep.Stats)
		}
	}
	for i, s := range sums {
		fmt.Fprintf(h, "msg%d %x\n", i, s)
	}
	h.Write(rec.ChromeTraceJSON())
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// monotonic returns a check that p's virtual clock has not moved
// backwards since the previous check (the first compares with the time
// monotonic was called); stage names the point in the error.
func monotonic(p *sim.Proc) func(stage string) error {
	last := p.Now()
	return func(stage string) error {
		now := p.Now()
		if now < last {
			return fmt.Errorf("virtual clock moved backwards at %s: %v < %v", stage, now, last)
		}
		last = now
		return nil
	}
}

// runRank is one rank's life once StartRanks has opened its endpoint
// and every rank has published its address: map and fill buffers, post
// the workload's operations in the cell's order mode, verify every
// received payload byte-for-byte, then drain and tear everything down.
func runRank(p *sim.Proc, w Workload, rs *cluster.Ranks, r int, ep *psm.Endpoint, sums [][]byte) error {
	mono := monotonic(p)
	osops := ep.OS
	sends := msgsFrom(w, r)
	recvs := msgsTo(w, r)
	bufs := make(map[int]uproc.VirtAddr)
	for _, i := range sends {
		va, err := osops.MmapAnon(p, w.Msgs[i].Size)
		if err != nil {
			return err
		}
		if err := osops.Proc().WriteAt(va, payloadFor(w, i)); err != nil {
			return err
		}
		bufs[i] = va
	}
	for _, i := range recvs {
		va, err := osops.MmapAnon(p, w.Msgs[i].Size)
		if err != nil {
			return err
		}
		bufs[i] = va
	}

	var reqs []*psm.Request
	postSend := func(i int) error {
		m := w.Msgs[i]
		rq, err := ep.Isend(p, m.Dst, m.Tag, bufs[i], m.Size)
		if err != nil {
			return fmt.Errorf("isend msg %d: %w", i, err)
		}
		reqs = append(reqs, rq)
		return nil
	}
	postRecv := func(i int) error {
		m := w.Msgs[i]
		rq, err := ep.Irecv(p, m.Src, m.Tag, bufs[i], m.Size)
		if err != nil {
			return fmt.Errorf("irecv msg %d: %w", i, err)
		}
		reqs = append(reqs, rq)
		return nil
	}
	switch w.Order {
	case OrderSendFirst:
		for _, i := range sends {
			if err := postSend(i); err != nil {
				return err
			}
		}
		osops.Compute(p, 30*time.Microsecond)
		for _, i := range recvs {
			if err := postRecv(i); err != nil {
				return err
			}
		}
	case OrderReversed:
		for _, g := range reverseGroups(w, recvs) {
			for _, i := range g {
				if err := postRecv(i); err != nil {
					return err
				}
			}
		}
		for _, i := range sends {
			if err := postSend(i); err != nil {
				return err
			}
		}
	case OrderStaggered:
		for k := 0; k < len(sends) || k < len(recvs); k++ {
			if k < len(recvs) {
				if err := postRecv(recvs[k]); err != nil {
					return err
				}
			}
			if k < len(sends) {
				if err := postSend(sends[k]); err != nil {
					return err
				}
			}
			osops.Compute(p, 5*time.Microsecond)
		}
	default: // OrderInOrder
		for _, i := range recvs {
			if err := postRecv(i); err != nil {
				return err
			}
		}
		for _, i := range sends {
			if err := postSend(i); err != nil {
				return err
			}
		}
	}
	if err := ep.WaitAll(p, reqs); err != nil {
		return err
	}
	if err := mono("completion"); err != nil {
		return err
	}

	// Byte-exact delivery against the in-memory reference.
	for _, i := range recvs {
		m := w.Msgs[i]
		got := make([]byte, m.Size)
		if err := osops.Proc().ReadAt(bufs[i], got); err != nil {
			return err
		}
		want := payloadFor(w, i)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("msg %d (src %d dst %d tag %d size %d): delivered bytes differ from reference at offset %d",
				i, m.Src, m.Dst, m.Tag, m.Size, firstDiff(got, want))
		}
		sum := sha256.Sum256(got)
		sums[i] = sum[:8]
	}

	// Drain keeps this rank progressing until every rank's flows are
	// idle on a lossy or congested fabric, and returns at once on any
	// other. On those two fabrics the rank then progresses through a
	// grace window sized to the worst-case in-flight delay, so stray
	// duplicates, reordered packets and unsequenced CNPs land while the
	// context is still alive (the harness asserts RxDropped == 0 even on
	// a lossy fabric).
	if err := rs.Drain(p, ep); err != nil {
		return err
	}
	if w.Faults.Active() || w.Congestion.Active() {
		pr := w.Params
		grace := 4 * (pr.LinkLatency + pr.LinkJitter + maxReorderDelay(w.Faults) + 10*time.Microsecond)
		deadline := p.Now() + grace
		for p.Now() < deadline {
			if _, err := ep.Progress(p); err != nil {
				return err
			}
			p.Sleep(time.Microsecond)
		}
	}

	for _, i := range sends {
		if err := osops.Munmap(p, bufs[i]); err != nil {
			return err
		}
	}
	for _, i := range recvs {
		if err := osops.Munmap(p, bufs[i]); err != nil {
			return err
		}
	}
	if err := ep.Close(p); err != nil {
		return err
	}
	return mono("teardown")
}

// maxReorderDelay returns the largest reorder delay any link of fp can
// add (the drain grace window is sized from it).
func maxReorderDelay(fp fabric.FaultProfile) time.Duration {
	d := fp.ReorderDelay
	for _, lf := range fp.PerLink {
		if lf.ReorderDelay > d {
			d = lf.ReorderDelay
		}
	}
	return d
}

// startRMA spawns the ranks of a one-sided cell. They open no PSM
// endpoint, and an RDMA WRITE completes without the target polling, so
// the ranks can park in a done barrier between the writes and the
// verification without starving a peer.
func startRMA(cl *cluster.Cluster, w Workload, sums [][]byte) *cluster.FirstErr {
	ranks := w.Nodes * w.RanksPerNode
	failed := new(cluster.FirstErr)
	ready, done := cl.NewRendezvous(ranks), cl.NewRendezvous(ranks)
	descs := make([]rmaDesc, ranks)
	for r := 0; r < ranks; r++ {
		node := cl.Nodes[r/w.RanksPerNode]
		cl.Go(node.ID, fmt.Sprintf("simtest/rank%d", r), func(p *sim.Proc) {
			if err := runRankRMA(p, w, node, r, descs, ready, done, sums); err != nil {
				failed.Record(p, r, fmt.Errorf("rank %d: %w", r, err))
			}
		})
	}
	return failed
}

// rmaDesc is the out-of-band connection descriptor a rank publishes
// before the rendezvous: enough for any peer to target its window.
type rmaDesc struct {
	node int
	qpn  uint32
	rkey uint32
	base uint64
}

// rmaLayout assigns each message r receives a dedicated slot in r's
// window, in plan order. Senders recompute the same layout from the
// shared workload, so no slot offsets travel on the wire.
func rmaLayout(w Workload, r int) (total uint64, off map[int]uint64) {
	off = make(map[int]uint64)
	for _, i := range msgsTo(w, r) {
		off[i] = total
		total += w.Msgs[i].Size
	}
	if total == 0 {
		total = 4096 // every rank publishes a (possibly unused) window
	}
	return total, off
}

// runRankRMA is one rank's life in a one-sided cell: register a
// window, publish its descriptor, rendezvous, RDMA-WRITE every
// outgoing message into its slot on the receiver, rendezvous again
// (initiator completions imply remote placement), verify the window
// byte-for-byte, then tear the HCA state down explicitly.
func runRankRMA(p *sim.Proc, w Workload, node *cluster.Node, r int,
	descs []rmaDesc, ready, done *sim.Rendezvous, sums [][]byte) error {
	mono := monotonic(p)
	osops := node.NewRankOS(r)
	u, err := verbs.Open(p, osops)
	if err != nil {
		ready.Done(p)
		return err
	}
	winSize, off := rmaLayout(w, r)
	win, err := osops.MmapAnon(p, winSize)
	if err != nil {
		ready.Done(p)
		return err
	}
	mrWin, err := u.RegMR(p, win, winSize,
		mlx.AccessLocalWrite|mlx.AccessRemoteWrite)
	if err != nil {
		ready.Done(p)
		return err
	}
	qpT, err := u.CreateQP(p, verbs.QPConfig{})
	if err != nil {
		ready.Done(p)
		return err
	}
	if err := qpT.ToInit(p); err != nil {
		ready.Done(p)
		return err
	}
	if err := qpT.ToRTRAnySource(p); err != nil {
		ready.Done(p)
		return err
	}
	descs[r] = rmaDesc{node: node.ID, qpn: qpT.QPN, rkey: mrWin.LKey, base: uint64(win)}

	// Staging buffer: all outgoing payloads, concatenated in plan order.
	sends := msgsFrom(w, r)
	var sendSize uint64
	sendOff := make(map[int]uint64)
	for _, i := range sends {
		sendOff[i] = sendSize
		sendSize += w.Msgs[i].Size
	}
	if sendSize == 0 {
		sendSize = 4096
	}
	stage, err := osops.MmapAnon(p, sendSize)
	if err != nil {
		ready.Done(p)
		return err
	}
	for _, i := range sends {
		if err := osops.Proc().WriteAt(stage+uproc.VirtAddr(sendOff[i]), payloadFor(w, i)); err != nil {
			ready.Done(p)
			return err
		}
	}
	mrStage, err := u.RegMR(p, stage, sendSize, mlx.AccessLocalWrite)
	if err != nil {
		ready.Done(p)
		return err
	}
	ready.Done(p)
	ready.Wait(p)
	if err := mono("init"); err != nil {
		return err
	}

	// One connected QP per distinct destination, created lazily in plan
	// order; each WRITE waits for its completion before the next posts.
	peers := make(map[int]*verbs.QP)
	var peerOrder []int
	for _, i := range sends {
		m := w.Msgs[i]
		qp, ok := peers[m.Dst]
		if !ok {
			d := descs[m.Dst]
			qp, err = u.CreateQP(p, verbs.QPConfig{})
			if err != nil {
				return err
			}
			if err := qp.ToInit(p); err != nil {
				return err
			}
			if err := qp.ToRTR(p, d.node, d.qpn); err != nil {
				return err
			}
			if err := qp.ToRTS(p); err != nil {
				return err
			}
			peers[m.Dst] = qp
			peerOrder = append(peerOrder, m.Dst)
		}
		d := descs[m.Dst]
		_, dstOff := rmaLayout(w, m.Dst)
		if err := qp.PostSend(p, &verbs.WQE{
			Opcode: verbs.OpcodeWrite, WRID: uint64(i),
			LKey: mrStage.LKey, LAddr: uint64(stage) + sendOff[i], Len: m.Size,
			RKey: d.rkey, RAddr: d.base + dstOff[i],
		}); err != nil {
			return fmt.Errorf("write msg %d: %w", i, err)
		}
		cqes, err := qp.WaitCQ(p, 1)
		if err != nil {
			return fmt.Errorf("write msg %d: %w", i, err)
		}
		if len(cqes) != 1 || cqes[0].Status != verbs.StatusOK || cqes[0].WRID != uint64(i) {
			return fmt.Errorf("write msg %d: completion %+v", i, cqes)
		}
	}
	if err := mono("completion"); err != nil {
		return err
	}
	done.Done(p)
	done.Wait(p)

	// Byte-exact placement against the in-memory reference.
	for _, i := range msgsTo(w, r) {
		m := w.Msgs[i]
		got := make([]byte, m.Size)
		if err := osops.Proc().ReadAt(win+uproc.VirtAddr(off[i]), got); err != nil {
			return err
		}
		want := payloadFor(w, i)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("msg %d (src %d dst %d size %d): RDMA WRITE bytes differ from reference at offset %d",
				i, m.Src, m.Dst, m.Size, firstDiff(got, want))
		}
		sum := sha256.Sum256(got)
		sums[i] = sum[:8]
	}

	// Explicit teardown, initiator QPs in creation order: the harness
	// asserts QP/rkey/MR balance after the run.
	for _, dst := range peerOrder {
		if err := peers[dst].Destroy(p); err != nil {
			return err
		}
	}
	if err := qpT.Destroy(p); err != nil {
		return err
	}
	if err := u.DeregMR(p, mrStage); err != nil {
		return err
	}
	if err := u.DeregMR(p, mrWin); err != nil {
		return err
	}
	if err := u.Close(p); err != nil {
		return err
	}
	if err := osops.Munmap(p, stage); err != nil {
		return err
	}
	if err := osops.Munmap(p, win); err != nil {
		return err
	}
	return mono("teardown")
}

// msgsFrom returns the indices, in plan order, of messages r sends.
func msgsFrom(w Workload, r int) []int {
	var out []int
	for i, m := range w.Msgs {
		if m.Src == r {
			out = append(out, i)
		}
	}
	return out
}

// msgsTo returns the indices, in plan order, of messages r receives.
func msgsTo(w Workload, r int) []int {
	var out []int
	for i, m := range w.Msgs {
		if m.Dst == r {
			out = append(out, i)
		}
	}
	return out
}

// reverseGroups reorders receive indices so whole (src, tag) groups
// come out back-to-front while each group stays FIFO — receives that
// could match the same message must keep their posting order.
func reverseGroups(w Workload, idxs []int) [][]int {
	type key struct {
		src int
		tag uint64
	}
	var order []key
	groups := make(map[key][]int)
	for _, i := range idxs {
		k := key{w.Msgs[i].Src, w.Msgs[i].Tag}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]int, 0, len(order))
	for j := len(order) - 1; j >= 0; j-- {
		out = append(out, groups[order[j]])
	}
	return out
}

// payloadFor materializes the reference bytes of message i. The stream
// is keyed by (workload seed, tag) — not the message index — so the
// two copies of a duplicate-tag pair carry identical payloads and
// either FIFO pairing is byte-identical.
func payloadFor(w Workload, i int) []byte {
	m := w.Msgs[i]
	buf := make([]byte, m.Size)
	x := uint64(w.Seed) ^ m.Tag*0x9e3779b97f4a7c15
	for j := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[j] = byte(x >> 33)
	}
	return buf
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
