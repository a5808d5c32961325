package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// defaultConfig is the configuration the simulator binaries build from
// their default flags, so every gate row is a run a user can repeat
// with cmd/profile or cmd/pingpong, and every artifact row what
// `make artifacts` writes.
func defaultConfig() experiments.Config {
	return experiments.NewConfig(experiments.SmallScale(), 0)
}

// tracedApp is `profile -what none -nodes N -rpn R -shards S -trace`.
func tracedApp(app string, nodes, rpn, shards int) func() (string, *trace.Recorder, error) {
	return func() (string, *trace.Recorder, error) {
		cfg := defaultConfig()
		cfg.Shards = shards
		rec, res, err := experiments.TracedRun(cfg, app, nodes, rpn, cluster.OSMcKernelHFI)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("elapsed=%v spans=%d\n%s", res.Elapsed, rec.SpanCount(), LatencyTable(rec)), rec, nil
	}
}

// lossyPingPong is `pingpong -sizes 32K,64K -reps 6 -loss 0.05 -trace`:
// the table of a verified ping-pong on a fabric dropping 5% of packets
// and the trace of its 64KB McKernel+HFI1 cell, the one cmd/pingpong
// exports. 5% (not lower) so that cell's fixed RNG stream observes
// drops — a drop-free trace has no retransmit span to require.
func lossyPingPong() (string, *trace.Recorder, error) {
	cfg := defaultConfig()
	cfg.Scale.PingPongSizes = []uint64{32 << 10, 64 << 10}
	cfg.Scale.PingPongReps = 6
	cfg.Faults.Drop = 0.05
	rows, err := experiments.Fig4(cfg)
	if err != nil {
		return "", nil, err
	}
	rec := trace.NewRecorder()
	if _, err := experiments.PingPongStraight(cfg, cluster.OSMcKernelHFI, 64<<10, rec); err != nil {
		return "", nil, err
	}
	return Fig4Table(rows), rec, nil
}

// tinyBigscale is the bigscale sweep small enough for tier-1: one
// seeded UMT2013 job at Shards=1/2/4. Bigscale itself fails on a digest
// that differs from the first row's; the checks here pin that the first
// row is the single-engine run and that the later rows really ran
// sharded. The table leaves out the host wall-clock columns.
func tinyBigscale() (string, *trace.Recorder, error) {
	rows, err := experiments.Bigscale(defaultConfig(), "UMT2013", 8, 4, []int{1, 2, 4})
	if err != nil {
		return "", nil, err
	}
	if len(rows) != 3 || rows[0].Shards != 1 {
		return "", nil, fmt.Errorf("rows = %+v, want shards 1, 2, 4", rows)
	}
	var b strings.Builder
	for _, r := range rows {
		if r.Digest != rows[0].Digest {
			return "", nil, fmt.Errorf("shards=%d digest %016x != shards=1 digest %016x", r.Shards, r.Digest, rows[0].Digest)
		}
		if sharded := r.Shards > 1; sharded != (r.Windows > 0) || sharded != (r.Cross > 0) {
			return "", nil, fmt.Errorf("shards=%d ran %d windows, %d cross-shard events", r.Shards, r.Windows, r.Cross)
		}
		fmt.Fprintf(&b, "shards=%d virt=%v elapsed=%v digest=%016x ties=%d windows=%d cross=%d\n",
			r.Shards, r.Virt, r.Elapsed, r.Digest, r.Ties, r.Windows, r.Cross)
	}
	return b.String(), nil, nil
}

// TestDeterminismGates is the repo's determinism gate table. Each row
// runs twice from the same seed and must produce identical table text
// and — when it traces — byte-identical Chrome trace JSON that passes
// trace.Validate (what cmd/tracecheck runs) and contains every span
// name in wantSpans.
//
// Gates that live elsewhere: checkpoint/resume of a traced cell is
// TestPingPongCheckpointResume and the -checkpoint/-resume manifest
// TestCheckpointManifest (internal/experiments); a sharded Fig4 table
// equal to the unsharded one is TestShardsReachEveryCell; the tenancy
// sweep rerun is TestTenancySweep; and the no-fault Fig4 sweep equal to
// the committed artifact is TestCommittedArtifactsByteIdentical/fig4.
func TestDeterminismGates(t *testing.T) {
	gates := []struct {
		name      string
		run       func() (table string, rec *trace.Recorder, err error)
		wantSpans []string
		// slow rows are skipped under -short: `make check` runs that
		// mode under the race detector, where the sweep takes ~18 s,
		// and the shards4 row and simtest's shard cells already put
		// the sharded engine under -race.
		slow bool
	}{
		{name: "umt2013-2x4", run: tracedApp("UMT2013", 2, 4, 1)},
		{name: "lammps-rma-2x4", run: tracedApp("LAMMPS-RMA", 2, 4, 1), wantSpans: []string{"doorbell", "dma", "cqe"}},
		{name: "lossy-pingpong", run: lossyPingPong, wantSpans: []string{"retransmit"}},
		{name: "failover", run: func() (string, *trace.Recorder, error) {
			row, rec, err := experiments.TracedFailover(defaultConfig(), cluster.OSMcKernelHFI)
			return FailoverTable([]experiments.FailoverRow{row}), rec, err
		}, wantSpans: []string{"failover", "fallback"}},
		{name: "neighbor", run: func() (string, *trace.Recorder, error) {
			solo, packed, rec, err := experiments.NeighborDelta(defaultConfig(), cluster.OSMcKernelHFI)
			return TenancyTable([]experiments.TenancyRow{solo, packed}), rec, err
		}},
		{name: "umt2013-4x2-shards4", run: tracedApp("UMT2013", 4, 2, 4)},
		{name: "bigscale-tiny", run: tinyBigscale, slow: true},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			if g.slow && testing.Short() {
				t.Skip("slow gate row: runs without -short")
			}
			table, rec, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			table2, rec2, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			if table != table2 {
				t.Errorf("two same-seed runs printed different tables:\n%s---\n%s", table, table2)
			}
			if rec == nil {
				return
			}
			json := rec.ChromeTraceJSON()
			if !bytes.Equal(json, rec2.ChromeTraceJSON()) {
				t.Error("two same-seed runs serialized different Chrome traces")
			}
			if _, _, err := trace.Validate(json); err != nil {
				t.Errorf("trace fails validation: %v", err)
			}
			names := map[string]bool{}
			rec.ForEachSpan(func(s *trace.Span) { names[s.Name] = true })
			for _, want := range g.wantSpans {
				if !names[want] {
					t.Errorf("trace has no %q span", want)
				}
			}
		})
	}
}

// TestBigscaleRefusesLossySharding pins that a shard sweep over a
// profile the sharded engine cannot run is an error naming the shard
// count, never a silently unsharded row.
func TestBigscaleRefusesLossySharding(t *testing.T) {
	cfg := defaultConfig()
	cfg.Faults.Drop = 0.01
	_, err := experiments.Bigscale(cfg, "UMT2013", 2, 2, []int{1, 2})
	if err == nil || !strings.Contains(err.Error(), "Shards=2") {
		t.Fatalf("lossy Bigscale at shards 1,2: want the error naming Shards=2, got %v", err)
	}
}
