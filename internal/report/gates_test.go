package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/miniapps"
	"repro/internal/trace"
)

// defaultConfig is the configuration cmd/experiments builds from its
// default flags, so every gate row is a run a user can repeat with
// `experiments -only ID -trace FILE`, and every artifact row what
// `make artifacts` writes.
func defaultConfig() experiments.Config {
	return experiments.NewConfig(experiments.SmallScale(), 0)
}

// tracedSpans are the span names an id's exported trace must contain:
// the mechanism its traced cell exists to show.
var tracedSpans = map[string][]string{
	"verbs":       {"doorbell", "dma", "cqe"},
	"reliability": {"retransmit"},
	"failover":    {"failover", "fallback"},
}

// tracedCell is `experiments -only ID -trace FILE` without the file:
// the traced cell's line and its span latency table.
func tracedCell(a Artifact) func() (string, *trace.Recorder, error) {
	return func() (string, *trace.Recorder, error) {
		rec := trace.NewRecorder()
		line, err := a.Trace(defaultConfig(), rec)
		return line + "\n" + LatencyTable(rec), rec, err
	}
}

// shardedUMT is a traced UMT2013 cell on 4 nodes x 2 ranks partitioned
// into 4 engine shards: the sharded engine under a recorder.
func shardedUMT() (string, *trace.Recorder, error) {
	cfg := defaultConfig()
	cfg.Shards = 4
	cfg.Scale.RanksPerNode = 2
	rec := trace.NewRecorder()
	res, err := experiments.AppCell(cfg, miniapps.UMT2013(), 4, cluster.OSMcKernelHFI, rec)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("elapsed=%v spans=%d\n%s", res.Elapsed, rec.SpanCount(), LatencyTable(rec)), rec, nil
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

// TestDeterminismGates is the repo's determinism gate table: one row
// per traced cell of the Artifacts catalogue — every trace a user can
// export — plus a sharded traced cell and a tiny bigscale sweep. Each
// row runs twice from the same seed and must produce identical table
// text and — when it traces — byte-identical Chrome trace JSON that
// passes trace.Validate (what cmd/tracecheck runs) and contains every
// span name in wantSpans.
//
// Gates that live elsewhere: a traced restore is
// cluster.TestSnapshotRestore and the -checkpoint manifest
// TestCheckpointManifest (internal/experiments); a sharded Fig4 table
// equal to the unsharded one is TestShardsReachEveryCell; the tenancy
// sweep rerun is TestTenancySweep; a traced cell equal to its table's
// row is TestTracedCellsReproduceTheirRows; and the no-fault sweeps
// equal to the committed artifacts are
// TestCommittedArtifactsByteIdentical.
func TestDeterminismGates(t *testing.T) {
	type gate struct {
		name      string
		run       func() (table string, rec *trace.Recorder, err error)
		wantSpans []string
		// slow rows are skipped under -short: `make check` runs that
		// mode under the race detector, where the sweep takes ~18 s,
		// and the shards4 row and simtest's shard cells already put
		// the sharded engine under -race.
		slow bool
	}
	var gates []gate
	for _, a := range Artifacts {
		if a.Trace != nil {
			gates = append(gates, gate{name: a.ID, run: tracedCell(a), wantSpans: tracedSpans[a.ID]})
		}
	}
	gates = append(gates,
		gate{name: "umt2013-4x2-shards4", run: shardedUMT},
		gate{name: "bigscale-tiny", run: tinyBigscale, slow: true})
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

// TestTracedCellsReproduceTheirRows pins that tracing moves no
// simulated value and that each exported trace explains a row of its
// artifact: every traced cell's line equals the line rendered from the
// same cell's entries in the untraced table. The untraced sweeps are
// narrowed to the traced cell's key; a cell's seed derives from its id
// alone, so the narrowing moves nothing. verbs is exempt: its traced
// cell is the application that drives the verbs path, not a sweep cell.
func TestTracedCellsReproduceTheirRows(t *testing.T) {
	const hfi = "McKernel+HFI1"
	tables := map[string]func(cfg experiments.Config) (string, error){
		"fig4": func(cfg experiments.Config) (string, error) {
			cfg.Scale.PingPongSizes = []uint64{tracedPPSize}
			rows, err := experiments.Fig4(cfg)
			if err != nil {
				return "", err
			}
			return fig4Line(rows[0].OneWayP50[hfi], rows[0].OneWayP99[hfi]), nil
		},
		"fig6a": func(cfg experiments.Config) (string, error) {
			pts, err := experiments.AppScaling(cfg, miniapps.UMT2013(), []int{tracedNodes})
			if err != nil {
				return "", err
			}
			return fig6aLine(pts[0].Elapsed[hfi]), nil
		},
		"reliability": func(cfg experiments.Config) (string, error) {
			cfg.Scale.LossRates = []float64{tracedRelLoss}
			cfg.Scale.ReliabilitySizes = []uint64{tracedRelSize}
			rows, err := experiments.Reliability(cfg)
			if err != nil {
				return "", err
			}
			r := rows[0]
			return reliabilityLine(r.OneWayP50[hfi], r.OneWayP99[hfi], r.Retransmits[hfi]), nil
		},
		"failover": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Failover(cfg)
			for _, r := range rows {
				if r.OS == hfi {
					return rowLine("failover", r), nil
				}
			}
			return "", fmt.Errorf("no %s row (%v)", hfi, err)
		},
		"tenancy": func(cfg experiments.Config) (string, error) {
			rows, err := experiments.Tenancy(cfg)
			for _, r := range rows {
				if r.OS == hfi && r.Scenario == "packed" {
					return rowLine("tenancy", r), nil
				}
			}
			return "", fmt.Errorf("no %s packed row (%v)", hfi, err)
		},
	}
	for _, a := range Artifacts {
		if a.Trace == nil || a.ID == "verbs" {
			continue
		}
		t.Run(a.ID, func(t *testing.T) {
			table, ok := tables[a.ID]
			if !ok {
				t.Fatal("traced cell has no row to reproduce")
			}
			want, err := table(defaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Trace(defaultConfig(), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("traced cell differs from its table row:\n got  %s\n want %s", got, want)
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
