package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// shortArtifacts are the sub-second ids `go test -short` still rebuilds
// (make check runs them under -race). Together they cover the plain PSM
// path (fig4), verbs, fault injection with go-back-N recovery
// (reliability) and with rail failover, congestion control across
// concurrent jobs (tenancy), and the mini-app bodies over mpi.RunJob
// (ablations).
var shortArtifacts = map[string]bool{
	"fig4": true, "verbs": true, "reliability": true, "failover": true, "tenancy": true, "ablations": true,
}

// TestCommittedArtifactsByteIdentical rebuilds the committed artifacts
// from the Artifacts catalogue — the calls cmd/experiments makes, at
// small scale — and byte-compares text and CSV against artifacts/, so a
// change that moves a simulated result cannot leave `go test ./...`
// green. Explicit ids are skipped (bigscale's wall-clock column is not
// reproducible; TestDeterminismGates runs a tiny one). It also checks
// that artifacts/ holds no file the catalogue does not own, and that
// every cell closed its cluster: a parked process is a goroutine, so a
// forgotten Close shows here as a count rather than as memory growth.
// Each id runs with its traced cell under a recorder, which must record
// spans: the committed bytes then prove that tracing moves nothing.
func TestCommittedArtifactsByteIdentical(t *testing.T) {
	defer checkNoParkedProcesses(t, runtime.NumGoroutine())
	cfg := defaultConfig()
	dir := filepath.Join("..", "..", "artifacts")
	owned := map[string]bool{}
	for _, a := range Artifacts {
		owned[a.ID+".txt"], owned[a.ID+".csv"] = true, true
		if a.Explicit || (testing.Short() && !shortArtifacts[a.ID]) {
			continue
		}
		t.Run(a.ID, func(t *testing.T) {
			rec := trace.NewRecorder()
			cfg := cfg
			cfg.Trace = map[string]*trace.Recorder{a.Trace: rec}
			text, csv, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Trace != "" && rec.SpanCount() == 0 {
				t.Errorf("traced cell %s recorded no spans", a.Trace)
			}
			for ext, got := range map[string]string{".txt": text, ".csv": csv} {
				path := filepath.Join(dir, a.ID+ext)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s differs from the committed artifact:\n--- got\n%s--- want\n%s", path, got, want)
				}
			}
		})
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !owned[f.Name()] {
			t.Errorf("artifacts/%s belongs to no id in the Artifacts catalogue", f.Name())
		}
	}
}

// TestCommittedCSVsAreRectangular checks that every line of every
// committed artifacts/*.csv has as many fields as its header, so a column
// whose CSV side emits the wrong number of fields cannot be committed.
func TestCommittedCSVsAreRectangular(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "artifacts", "*.csv"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed CSVs (%v)", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// FieldsPerRecord 0 holds every record to the header's count.
		if _, err := csv.NewReader(f).ReadAll(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		f.Close()
	}
}

// checkNoParkedProcesses fails t unless the goroutine count falls back
// to base within a second (a runner worker may still be exiting).
func checkNoParkedProcesses(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the run, %d before: a cell left its cluster unclosed", runtime.NumGoroutine(), base)
			return
		}
	}
}
