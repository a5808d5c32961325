package simtest_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtest"
)

var (
	seedFlag  = flag.Int64("seed", 1, "simtest base seed (reproduce a failure with the printed -seed/-cell pair)")
	cellFlag  = flag.String("cell", "", "run only this simtest cell (e.g. 'Linux/3')")
	cellsFlag = flag.Int("cells", 9, "randomized cells per OS configuration")

	restoreFlag      = flag.String("restore", "", "replay -cell from this snapshot file (TestSimRestore)")
	restoreTraceFlag = flag.String("restore-trace", "", "write the final-slice Chrome trace of the -restore replay here")
)

// TestSimHarness drives randomized workloads through the real
// sim→fabric→hfi→psm stack under all three OS configurations. Each
// cell asserts byte-exact delivery against an in-memory reference,
// pin/TID balance at teardown, virtual-clock monotonicity and
// same-seed trace-digest equality. A failing cell prints a one-line
// repro command and a greedily shrunk workload. Once every cell is
// done, no simulated process may be left parked: each run closes its
// cluster.
func TestSimHarness(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() { checkNoParkedProcesses(t, base) })
	if *cellFlag != "" {
		runCell(t, *cellFlag)
		return
	}
	for _, osType := range cluster.AllOSTypes {
		for i := 0; i < *cellsFlag; i++ {
			cell := fmt.Sprintf("%s/%d", osType, i)
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				runCell(t, cell)
			})
		}
		// One-sided cells: the same invariant battery over RDMA WRITEs
		// through the verbs HCA instead of PSM send/recv.
		for i := 0; i < (*cellsFlag+2)/3; i++ {
			cell := fmt.Sprintf("%s/rma/%d", osType, i)
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				runCell(t, cell)
			})
		}
		// Lossy cells: the same battery over a fabric that drops,
		// corrupts, duplicates and reorders packets; the reliability
		// layer must still deliver byte-identical payloads.
		for i := 0; i < (*cellsFlag+2)/3; i++ {
			cell := fmt.Sprintf("%s/lossy/%d", osType, i)
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				runCell(t, cell)
			})
		}
		// Failover cells: rail flaps, mid-message fast→slow switching and
		// recovery fallback; the health machine must carry every payload
		// across the failovers and the 3× straight/snapshot/restore digest
		// comparison covers the new health and rail snapshot sections.
		for i := 0; i < (*cellsFlag+2)/3; i++ {
			cell := fmt.Sprintf("%s/failover/%d", osType, i)
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				runCell(t, cell)
			})
		}
		// Tenancy cells: two concurrent jobs (or an incast fan-in) share
		// a congestion-controlled fabric; AIMD backoff, CNPs and the
		// congestion snapshot sections ride the same 3× digest check.
		for i := 0; i < (*cellsFlag+2)/3; i++ {
			cell := fmt.Sprintf("%s/tenancy/%d", osType, i)
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				runCell(t, cell)
			})
		}
		// Shard cells: the same battery on a sharded engine (Shards=4).
		// Check additionally reruns each at Shards=1 and fails on any
		// digest difference, so these cells certify the conservative
		// parallel engine is observationally identical to the sequential
		// one — and the sharded run's snapshot/restore leg covers the
		// versioned ShardSet snapshot sections.
		for i := 0; i < (*cellsFlag+2)/3; i++ {
			cell := fmt.Sprintf("%s/shard/%d", osType, i)
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				runCell(t, cell)
			})
		}
	}
}

// checkNoParkedProcesses fails t unless the goroutine count falls back
// to base within a second (a finished subtest may still be exiting).
func checkNoParkedProcesses(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the battery, %d before: a run left its cluster unclosed", runtime.NumGoroutine(), base)
			return
		}
	}
}

func runCell(t *testing.T, cell string) {
	rep, err := simtest.CheckCell(*seedFlag, cell)
	if err == nil {
		t.Logf("cell %s: %d msgs, digest %s, %v virtual time",
			cell, rep.Messages, rep.Digest, rep.VirtualTime)
		return
	}
	w, gerr := simtest.Generate(*seedFlag, cell)
	if gerr != nil {
		t.Fatalf("cell %s: %v", cell, err)
	}
	if min, minErr := simtest.Shrink(w, 24); minErr != nil {
		t.Fatalf("cell %s failed: %v\nshrunk to %d msgs (%s): %v",
			cell, err, len(min.Msgs), min.Summary(), minErr)
	}
	t.Fatalf("cell %s failed: %v", cell, err)
}

// TestSimTIDExhaustionFault checks the harness catches injected
// faults: a cell whose RcvArray is shrunk below one rendezvous
// window's demand must fail, the failure must name the exhausted
// RcvArray and carry a working single-seed repro command, and the
// shrinker must preserve the failure while reducing the workload.
func TestSimTIDExhaustionFault(t *testing.T) {
	cell := "Linux/!tid/0"
	_, err := simtest.CheckCell(*seedFlag, cell)
	if err == nil {
		t.Fatal("TID-exhaustion fault cell passed; the injection is broken")
	}
	out := err.Error()
	if !strings.Contains(out, "RcvArray exhausted") {
		t.Fatalf("failure does not name TID exhaustion:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("-seed=%d", *seedFlag)) ||
		!strings.Contains(out, "-cell='"+cell+"'") {
		t.Fatalf("failure lacks a repro command:\n%s", out)
	}
	// The printed repro pair actually reproduces the fault.
	if _, err2 := simtest.CheckCell(*seedFlag, cell); err2 == nil ||
		!strings.Contains(err2.Error(), "RcvArray exhausted") {
		t.Fatalf("repro run did not reproduce the fault: %v", err2)
	}
	w, gerr := simtest.Generate(*seedFlag, cell)
	if gerr != nil {
		t.Fatal(gerr)
	}
	min, minErr := simtest.Shrink(w, 16)
	if minErr == nil {
		t.Fatal("shrinker lost the injected failure")
	}
	if len(min.Msgs) > len(w.Msgs) {
		t.Fatalf("shrinker grew the workload: %d > %d msgs", len(min.Msgs), len(w.Msgs))
	}
	t.Logf("fault output:\n%s\nshrunk: %s → %v", out, min.Summary(), minErr)
}

// TestSimRestore is the time-travel entry point printed with failure
// snapshots: given -cell and -restore=<snapshot file>, it rebuilds the
// cell's simulation, fast-forwards it through the snapshot (byte-
// verified), and replays the final slice with tracing attached from
// the restore point on. -restore-trace names the Chrome trace output.
// The replayed cell's failure — the thing being debugged — is
// reported after the trace is written.
func TestSimRestore(t *testing.T) {
	if *restoreFlag == "" {
		t.Skip("no -restore snapshot given")
	}
	if *cellFlag == "" {
		t.Fatal("-restore requires -cell (and the matching -seed)")
	}
	img, err := os.ReadFile(*restoreFlag)
	if err != nil {
		t.Fatal(err)
	}
	rep, rerr := simtest.Replay(*seedFlag, *cellFlag, img, *restoreTraceFlag)
	if *restoreTraceFlag != "" {
		t.Logf("final-slice trace written to %s", *restoreTraceFlag)
	}
	if rerr != nil {
		t.Fatalf("cell %s replayed from %s:\n%v", *cellFlag, *restoreFlag, rerr)
	}
	t.Logf("cell %s replayed clean from %s: digest %s, %v virtual time",
		*cellFlag, *restoreFlag, rep.Digest, rep.VirtualTime)
}

// TestFailureSnapshotRepro pins the failure time-travel workflow end
// to end on a known-failing cell: FailureSnapshot must capture a
// restorable image from before the injected fault, and Replay from
// that image must reproduce the same fault while emitting the
// final-slice trace.
func TestFailureSnapshotRepro(t *testing.T) {
	cell := "Linux/!tid/0"
	snap, at, err := simtest.FailureSnapshot(*seedFlag, cell)
	if err != nil {
		t.Fatal(err)
	}
	if at <= 0 || len(snap) == 0 {
		t.Fatalf("empty failure snapshot (at=%v, %d bytes)", at, len(snap))
	}
	tracePath := filepath.Join(t.TempDir(), "slice.trace.json")
	_, rerr := simtest.Replay(*seedFlag, cell, snap, tracePath)
	if rerr == nil {
		t.Fatal("replay from the failure snapshot passed; fault not reproduced")
	}
	if !strings.Contains(rerr.Error(), "RcvArray exhausted") {
		t.Fatalf("replay failed differently than the original fault:\n%v", rerr)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil || len(data) == 0 {
		t.Fatalf("failure replay wrote no final-slice trace: %v (%d bytes)", err, len(data))
	}
	t.Logf("snapshot at %v (%d bytes) reproduced the fault; %d-byte slice trace", at, len(snap), len(data))
}

// TestRankErrorReportedWithoutItsDeadlock pins the failure message of a
// committed soak repro (seed 1, Linux/lossy/25: a flow exhausts its retry
// budget — ROADMAP item 1, still open, so the cell still fails). The
// rank's error is the cause; the deadlock the engine reports afterwards
// only lists the peers left waiting for that rank and must not be
// appended to it.
func TestRankErrorReportedWithoutItsDeadlock(t *testing.T) {
	_, err := simtest.CheckCell(1, "Linux/lossy/25")
	if err == nil {
		t.Fatal("Linux/lossy/25 at seed 1 passed: update this test with the fix that made it pass")
	}
	msg := err.Error()
	if !strings.Contains(msg, "flow to rank 4 dead after 10 retries") {
		t.Fatalf("failure does not name the dead flow:\n%s", msg)
	}
	if strings.Contains(msg, "deadlock") || strings.Contains(msg, "rendezvous-wait") {
		t.Fatalf("failure reports the consequence beside the cause:\n%s", msg)
	}
}

// TestTraceFoldedIntoDigest pins the recorder integration: every cell
// run attaches a span recorder, so a successful Check must have seen a
// non-trivial number of spans (their serialized form participates in
// the digest the split-run comparison is made over).
func TestTraceFoldedIntoDigest(t *testing.T) {
	rep, err := simtest.CheckCell(*seedFlag, "McKernel+HFI1/0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans == 0 {
		t.Fatal("harness run recorded no spans; recorder not attached")
	}
	t.Logf("cell recorded %d spans, digest %s", rep.Spans, rep.Digest)
}

// TestGenerateStable pins generation determinism: the same (seed,
// cell) pair must always expand to the identical workload, and
// distinct cells must differ.
func TestGenerateStable(t *testing.T) {
	a, err := simtest.Generate(7, "Linux/0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := simtest.Generate(7, "Linux/0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() || len(a.Msgs) != len(b.Msgs) {
		t.Fatalf("generation unstable:\n%s\n%s", a.Summary(), b.Summary())
	}
	for i := range a.Msgs {
		if a.Msgs[i] != b.Msgs[i] {
			t.Fatalf("msg %d differs: %+v vs %+v", i, a.Msgs[i], b.Msgs[i])
		}
	}
	c, err := simtest.Generate(7, "Linux/1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Seed == c.Seed {
		t.Fatalf("distinct cells derived the same seed %d", a.Seed)
	}
	if _, err := simtest.Generate(7, "Plan9/0"); err == nil {
		t.Fatal("unknown OS prefix accepted")
	}
}
