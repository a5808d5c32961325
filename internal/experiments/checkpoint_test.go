package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// TestCheckpointManifest covers the experiment-level resume protocol:
// recorded artifacts come back verbatim, resume tolerates a missing
// file, and a manifest recorded under a different scale, seed or fault
// profile is refused — but not one recorded at another -j or -shards.
func TestCheckpointManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")

	ck, err := LoadCheckpoint(path, tinyConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Has("fig4") {
		t.Fatal("fresh manifest claims fig4 done")
	}
	if err := ck.Record("fig4", "the table\n", "a,b\n1,2\n"); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("table1", "profiles\n", ""); err != nil {
		t.Fatal(err)
	}

	// The pool and the shard count move no artifact, so they do not pin.
	same := NewConfig(tinyScale(), 1)
	same.Shards = 4
	re, err := LoadCheckpoint(path, same, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig4", "table1"} {
		if !re.Has(id) {
			t.Fatalf("resumed manifest lost %s", id)
		}
	}
	if re.Has("never-recorded") {
		t.Fatal("resumed manifest invents an id")
	}
	text, csv := re.Artifact("fig4")
	if text != "the table\n" || csv != "a,b\n1,2\n" {
		t.Fatalf("fig4 artifact mangled: %q / %q", text, csv)
	}
	if text, csv = re.Artifact("table1"); text != "profiles\n" || csv != "" {
		t.Fatalf("table1 artifact mangled: %q / %q", text, csv)
	}

	// A mismatch is refused by name; "Drop" was once replayed silently.
	for want, edit := range map[string]func(*Config){
		"scale=paper": func(c *Config) { c.Scale.Name = "paper" },
		"seed=2":      func(c *Config) { c.Scale.Seed = 2 },
		"Drop:0.05":   func(c *Config) { c.Faults.Drop = 0.05 },
	} {
		cfg := tinyConfig()
		edit(&cfg)
		if _, err := LoadCheckpoint(path, cfg, true); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("manifest recorded under tinyConfig resumed under %s: want a refusal naming it, got %v", want, err)
		}
	}

	// Resume with no file on disk starts fresh.
	fresh, err := LoadCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"), tinyConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Has("fig4") {
		t.Fatal("nonexistent manifest claims work done")
	}
}

// TestPingPongCheckpointResume pins the engine-level workflow
// cmd/snapcheck drives: a Figure 4 cell checkpointed at half its
// virtual time and resumed from the image must reproduce the straight
// run's statistics and serialize a byte-identical, valid Chrome trace.
func TestPingPongCheckpointResume(t *testing.T) {
	cfg := tinyConfig()
	const size = 256 << 10 // rendezvous: TID/SDMA state in flight at mid
	os := cluster.OSMcKernelHFI

	recA := trace.NewRecorder()
	straight, err := PingPongStraight(cfg, os, size, recA)
	if err != nil {
		t.Fatal(err)
	}

	var img bytes.Buffer
	at, err := PingPongCheckpoint(cfg, os, size, &img)
	if err != nil {
		t.Fatal(err)
	}
	if at <= 0 || img.Len() == 0 {
		t.Fatalf("empty checkpoint (at=%v, %d bytes)", at, img.Len())
	}

	recB := trace.NewRecorder()
	resumed, err := PingPongResume(cfg, os, size, img.Bytes(), recB)
	if err != nil {
		t.Fatal(err)
	}
	if straight != resumed {
		t.Fatalf("resumed cell diverged: straight %v, resumed %v", straight, resumed)
	}
	if !bytes.Equal(recA.ChromeTraceJSON(), recB.ChromeTraceJSON()) {
		t.Fatal("resumed run's trace differs from the straight run's")
	}
	if _, _, err := trace.Validate(recB.ChromeTraceJSON()); err != nil {
		t.Fatalf("resumed run's trace is not a loadable Chrome trace: %v", err)
	}

	// A corrupted image must be rejected, not half-restored.
	bad := append([]byte(nil), img.Bytes()...)
	bad[img.Len()/2] ^= 1
	if _, err := PingPongResume(cfg, os, size, bad, nil); err == nil {
		t.Fatal("bit-flipped checkpoint accepted")
	}
}

// TestTracedPingPongIsTheTableCell pins what `pingpong -trace` exports:
// PingPongStraight under a recorder is Fig4's own cell for that
// (size, OS) — same derived seed — so the spans belong to the run whose
// numbers the table prints, on a loss-free and on a lossy fabric.
func TestTracedPingPongIsTheTableCell(t *testing.T) {
	const size = 64 << 10
	os := cluster.OSMcKernelHFI
	for _, drop := range []float64{0, 0.05} {
		cfg := tinyConfig()
		cfg.Scale.PingPongSizes = []uint64{size}
		cfg.Scale.PingPongReps = 4
		cfg.Faults.Drop = drop
		rows, err := Fig4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		cell, err := PingPongStraight(cfg, os, size, rec)
		if err != nil {
			t.Fatal(err)
		}
		row := rows[0]
		if cell.P50 != row.OneWayP50[os.String()] || cell.P99 != row.OneWayP99[os.String()] {
			t.Errorf("drop=%g: traced cell p50/p99 = %v/%v, Fig4 row has %v/%v",
				drop, cell.P50, cell.P99, row.OneWayP50[os.String()], row.OneWayP99[os.String()])
		}
		if rec.SpanCount() == 0 {
			t.Errorf("drop=%g: traced cell recorded no spans", drop)
		}
	}
}
