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

	"repro/internal/simtest"
	"repro/internal/trace"
)

var (
	seedFlag      = flag.Int64("seed", 1, "simtest base seed (reproduce a failure with the printed -seed/-cell pair)")
	cellFlag      = flag.String("cell", "", "run only this simtest cell (e.g. 'Linux/3')")
	cellsFlag     = flag.Int("cells", 9, "plain cells per OS configuration (the soak runs 100)")
	cellTraceFlag = flag.String("cell-trace", "", "with -cell, write the cell's straight-run Chrome trace here, even if it fails")
)

// TestSimHarness drives randomized workloads through the real
// sim→fabric→hfi→psm stack under all three OS configurations, one
// subtest per cell of the simtest.Cells grid. Each cell asserts
// byte-exact delivery against an in-memory reference, pin/TID balance
// at teardown, virtual-clock monotonicity and same-seed trace-digest
// equality across a straight, a paused and a restored run (shard cells
// also at Shards=1). A failing cell prints a one-line repro command and
// a greedily shrunk workload. Once every cell is done, no simulated
// process may be left parked: each run closes its cluster. At
// -cells=100 this is the soak.
func TestSimHarness(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() { checkNoParkedProcesses(t, base) })
	if *cellTraceFlag != "" && *cellFlag == "" {
		t.Fatal("-cell-trace needs -cell")
	}
	if *cellFlag != "" {
		if *cellTraceFlag != "" {
			if err := simtest.TraceCell(*seedFlag, *cellFlag, *cellTraceFlag); err != nil {
				t.Fatalf("cell %s, traced into %s: %v", *cellFlag, *cellTraceFlag, err)
			}
			t.Logf("cell %s: trace written to %s", *cellFlag, *cellTraceFlag)
		}
		runCell(t, *cellFlag)
		return
	}
	for _, cell := range simtest.Cells(*cellsFlag) {
		t.Run(cell, func(t *testing.T) {
			t.Parallel()
			runCell(t, cell)
		})
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
// RcvArray and carry a working single-seed repro command, the traced
// repro must write a valid trace of the failed run, and the shrinker
// must preserve the failure while reducing the workload.
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
	// The printed repro pair reproduces the fault, and its traced run
	// (the -cell-trace repro) still writes a valid trace of the failure.
	tracePath := filepath.Join(t.TempDir(), "cell.json")
	if err2 := simtest.TraceCell(*seedFlag, cell, tracePath); err2 == nil ||
		!strings.Contains(err2.Error(), "RcvArray exhausted") {
		t.Fatalf("traced repro run did not reproduce the fault: %v", err2)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.Validate(data); err != nil {
		t.Fatalf("the failed run's trace: %v", err)
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

// TestRankErrorReportedWithoutItsDeadlock pins the failure message of
// the TID-exhaustion cell: the receiver's TID ioctl fails and the sender
// is left waiting for a CTS that never comes. The rank's error is the
// cause; the deadlock the engine reports afterwards only lists the peer
// left waiting for that rank and must not be appended to it.
func TestRankErrorReportedWithoutItsDeadlock(t *testing.T) {
	_, err := simtest.CheckCell(1, "Linux/!tid/0")
	if err == nil {
		t.Fatal("Linux/!tid/0 passed; the injection is broken")
	}
	msg := err.Error()
	if !strings.Contains(msg, "RcvArray exhausted") {
		t.Fatalf("failure does not name the exhausted RcvArray:\n%s", msg)
	}
	if strings.Contains(msg, "deadlock") || strings.Contains(msg, "rendezvous-wait") {
		t.Fatalf("failure reports the consequence beside the cause:\n%s", msg)
	}
}

// TestLossyCellsDrainWhileProgressing holds the lossy soak cells that
// once died with "flow to rank N dead after 10 retries". Each rank
// parked in a harness barrier after verifying its payloads and stopped
// ACKing, so a peer's flow spent its whole retry budget against it.
// The ranks now leave through Ranks.Drain, which keeps progressing.
func TestLossyCellsDrainWhileProgressing(t *testing.T) {
	checkCellsPass(t, []seedCell{
		{1, "Linux/lossy/11"},
		{1, "Linux/lossy/25"},
		{1, "McKernel+HFI1/lossy/13"},
		{1, "McKernel+HFI1/lossy/19"},
		{1, "McKernel+HFI1/lossy/20"},
		{1, "McKernel+HFI1/lossy/25"},
		{2, "McKernel+HFI1/lossy/10"},
	})
}

// TestTightRingsHoldTheirTraffic holds the tightened-ring cells that
// once failed with "hfi: eager ring overflow". The harness counted an
// eager-SDMA message in EagerChunk slots, but each request of the
// drivers' split takes a slot; the rings are now sized at
// hfi.MaxEagerRequests. Linux/18 at seed 4 overflowed after its
// receiver had polled.
func TestTightRingsHoldTheirTraffic(t *testing.T) {
	checkCellsPass(t, []seedCell{
		{1, "Linux/29"},
		{1, "McKernel/16"},
		{1, "McKernel/60"},
		{2, "Linux/5"},
		{3, "Linux/60"},
		{4, "Linux/18"},
	})
}

// seedCell names one soak cell with its base seed.
type seedCell struct {
	seed int64
	cell string
}

// checkCellsPass runs each cell as a parallel subtest named
// seed<N>/<cell>, failing it on any error.
func checkCellsPass(t *testing.T, cells []seedCell) {
	for _, c := range cells {
		t.Run(fmt.Sprintf("seed%d/%s", c.seed, c.cell), func(t *testing.T) {
			t.Parallel()
			if _, err := simtest.CheckCell(c.seed, c.cell); err != nil {
				t.Fatal(err)
			}
		})
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
// distinct cells must differ. Every soak cell generates; a name
// outside the catalogue is refused.
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
	for _, bad := range []string{"Plan9/0", "Linux/lossy3/1", "Linux/shrad/2", "Linux/3x", "Linux//1", "Linux/03"} {
		if _, err := simtest.Generate(7, bad); err == nil {
			t.Errorf("cell %q outside the catalogue accepted", bad)
		}
	}
	for _, cell := range simtest.Cells(100) {
		if _, err := simtest.Generate(7, cell); err != nil {
			t.Fatal(err)
		}
	}
}
