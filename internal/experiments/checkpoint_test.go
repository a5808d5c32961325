package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointManifest covers the experiment-level resume protocol:
// recorded artifacts come back verbatim, a missing file starts an empty
// manifest, and a manifest recorded under a different scale, seed or
// fault profile is refused — but not one recorded at another -j or
// -shards.
func TestCheckpointManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")

	ck, err := LoadCheckpoint(path, tinyConfig())
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
	re, err := LoadCheckpoint(path, same)
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
		if _, err := LoadCheckpoint(path, cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("manifest recorded under tinyConfig resumed under %s: want a refusal naming it, got %v", want, err)
		}
	}

	// No file on disk starts fresh.
	fresh, err := LoadCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Has("fig4") {
		t.Fatal("nonexistent manifest claims work done")
	}
}
