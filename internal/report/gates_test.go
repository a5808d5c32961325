package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

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
// the mechanism its traced cell exists to show. fig4's and fig6a's show
// the PicoDriver fast path: writev served in McKernel, and none
// offloaded to Linux (noSpans).
var tracedSpans = map[string][]string{
	"fig4":        {"writev"},
	"fig6a":       {"writev"},
	"verbs":       {"doorbell", "dma", "cqe"},
	"reliability": {"retransmit"},
	"failover":    {"failover", "fallback"},
}

var noSpans = map[string][]string{"fig4": {"offload:writev"}, "fig6a": {"offload:writev"}}

// gateScale narrows an id's sweep for its gate row to the traced cell's
// key. A cell's seed derives from its id alone, so the narrowing moves
// nothing in the traced cell.
var gateScale = map[string]func(*experiments.Scale){
	"fig4":  func(sc *experiments.Scale) { sc.PingPongSizes = []uint64{64 << 10} },
	"fig6a": func(sc *experiments.Scale) { sc.AppNodes = []int{2} },
	"verbs": func(sc *experiments.Scale) { sc.VerbsSizes = []uint64{64 << 10} },
	"reliability": func(sc *experiments.Scale) {
		sc.LossRates, sc.ReliabilitySizes = []float64{0.05}, []uint64{32 << 10}
	},
}

// traced runs sweep with cell under a recorder and returns what it
// printed, the recorder's span latency table after it.
func traced(cfg experiments.Config, cell string, sweep func(experiments.Config) (any, error)) (string, *trace.Recorder, error) {
	rec := trace.NewRecorder()
	cfg.Trace = map[string]*trace.Recorder{cell: rec}
	out, err := sweep(cfg)
	return fmt.Sprintf("%v\n%s", out, LatencyTable(rec)), rec, err
}

// tracedArtifact is `experiments -only ID -trace FILE` without the
// file, on the gate's narrowed scale.
func tracedArtifact(a Artifact) func() (string, *trace.Recorder, error) {
	return func() (string, *trace.Recorder, error) {
		cfg := defaultConfig()
		if narrow := gateScale[a.ID]; narrow != nil {
			narrow(&cfg.Scale)
		}
		return traced(cfg, a.Trace, func(cfg experiments.Config) (any, error) {
			text, _, err := a.Run(cfg)
			return text, err
		})
	}
}

// tracedApp is the McKernel+HFI1 cell of app's AppScaling sweep at one
// node count and rpn ranks per node, traced; shards partitions it.
func tracedApp(app *miniapps.App, nodes, rpn, shards int) func() (string, *trace.Recorder, error) {
	return func() (string, *trace.Recorder, error) {
		cfg := defaultConfig()
		cfg.Shards = shards
		cfg.Scale.RanksPerNode = rpn
		return traced(cfg, fmt.Sprintf("%s/%dn/McKernel+HFI1", app.Name, nodes), func(cfg experiments.Config) (any, error) {
			return experiments.AppScaling(cfg, app, []int{nodes})
		})
	}
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
// per traced id of the Artifacts catalogue — every trace a user can
// export — plus LAMMPS-RMA's MPI RMA over the verbs path, a sharded
// traced cell and a tiny bigscale sweep. Each row runs twice from the
// same seed and must produce identical table text and — when it
// traces — byte-identical Chrome trace JSON that passes trace.Validate
// (what cmd/tracecheck runs), contains every span name in wantSpans
// and none in noSpans.
//
// Gates that live elsewhere: a traced restore is
// cluster.TestSnapshotRestore and the -checkpoint manifest
// TestCheckpointManifest (internal/experiments); a sharded Fig4 table
// equal to the unsharded one is TestShardsReachEveryCell; the tenancy
// sweep rerun is TestTenancySweep; traced rows equal to untraced ones
// are TestTracedCellsAreTheirRows (internal/experiments) and traced
// artifacts equal to untraced ones TestTracedCellsReproduceTheirRows;
// and the no-fault sweeps, traced
// cells recorded, equal to the committed artifacts are
// TestCommittedArtifactsByteIdentical.
func TestDeterminismGates(t *testing.T) {
	type gate struct {
		name      string
		run       func() (table string, rec *trace.Recorder, err error)
		wantSpans []string
		noSpans   []string
		// slow rows are skipped under -short: `make check` runs that
		// mode under the race detector, where the sweep takes ~18 s,
		// and the shards4 row and simtest's shard cells already put
		// the sharded engine under -race.
		slow bool
	}
	var gates []gate
	for _, a := range Artifacts {
		if a.Trace != "" {
			gates = append(gates, gate{name: a.ID, run: tracedArtifact(a), wantSpans: tracedSpans[a.ID], noSpans: noSpans[a.ID]})
		}
	}
	gates = append(gates,
		gate{name: "lammps-rma-2x4", run: tracedApp(miniapps.LAMMPSRMA(), 2, 4, 1), wantSpans: tracedSpans["verbs"]},
		gate{name: "umt2013-4x2-shards4", run: tracedApp(miniapps.UMT2013(), 4, 2, 4)},
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
			for _, no := range g.noSpans {
				if names[no] {
					t.Errorf("trace has a %q span", no)
				}
			}
		})
	}
}

// TestShardedTraceKeepsEverySpan: fig6a's traced cell records the same
// spans at Shards=2 as on one engine, the same multiset keyed by
// (category, name, track, start, duration), although the trace
// interleaves them in another order. A flight routed between shards
// ends in the same arrival as a local one, flight span included.
func TestShardedTraceKeepsEverySpan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6a's traced cell twice: runs without -short")
	}
	var fig6a Artifact
	for _, a := range Artifacts {
		if a.ID == "fig6a" {
			fig6a = a
		}
	}
	type key struct {
		cat, name, track string
		begin, dur       time.Duration
	}
	spans := func(shards int) map[key]int {
		cfg := defaultConfig()
		gateScale["fig6a"](&cfg.Scale)
		cfg.Shards = shards
		_, rec, err := traced(cfg, fig6a.Trace, func(cfg experiments.Config) (any, error) {
			text, _, err := fig6a.Run(cfg)
			return text, err
		})
		if err != nil {
			t.Fatal(err)
		}
		m := map[key]int{}
		rec.ForEachSpan(func(s *trace.Span) { m[key{s.Cat, s.Name, s.Track, s.Begin, s.End - s.Begin}]++ })
		return m
	}
	one, two := spans(1), spans(2)
	flights, differ := 0, 0
	for k := range two {
		one[k] += 0 // a span only Shards=2 recorded is compared too
	}
	for k, n := range one {
		if k.cat == trace.CatFabric {
			flights += n
		}
		if two[k] != n {
			if differ++; differ <= 5 {
				t.Errorf("span %+v: %d at Shards=1, %d at Shards=2", k, n, two[k])
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d spans differ in count between Shards=1 and Shards=2", differ)
	}
	if flights == 0 {
		t.Error("the cell recorded no flight span")
	}
}

// TestTracedCellsReproduceTheirRows pins that each exported trace is
// a cell of its artifact's own run: the artifact rendered with its
// traced cell under a recorder is byte-identical, text and CSV, to the
// untraced rendering, and the cell recorded spans. Both runs take the
// gate's narrowed scale.
func TestTracedCellsReproduceTheirRows(t *testing.T) {
	for _, a := range Artifacts {
		if a.Trace == "" {
			continue
		}
		t.Run(a.ID, func(t *testing.T) {
			cfg := defaultConfig()
			if narrow := gateScale[a.ID]; narrow != nil {
				narrow(&cfg.Scale)
			}
			wantText, wantCSV, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := trace.NewRecorder()
			cfg.Trace = map[string]*trace.Recorder{a.Trace: rec}
			text, csv, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if text != wantText || csv != wantCSV {
				t.Errorf("traced artifact differs from untraced:\n--- traced\n%s%s--- untraced\n%s%s", text, csv, wantText, wantCSV)
			}
			if rec.SpanCount() == 0 {
				t.Errorf("traced cell %s recorded no spans", a.Trace)
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
