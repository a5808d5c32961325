package report

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// shortArtifacts are the sub-second ids `go test -short` still rebuilds
// (make check runs them under -race). Together they cover the plain PSM
// path (fig4), verbs, fault injection with go-back-N recovery
// (reliability) and with rail failover, congestion control with the
// job scheduler, and the mini-app bodies over mpi.RunJob (ablations).
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
			text, csv, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
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
