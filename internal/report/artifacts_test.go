package report

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestCommittedArtifactsByteIdentical rebuilds five committed artifacts
// through the calls cmd/experiments makes for them (experiments.* then
// report.*, small scale) and byte-compares text and CSV against
// artifacts/. Together they cover the plain PSM path (fig4), verbs,
// fault injection with go-back-N recovery (reliability) and with rail
// failover, and congestion control with the job scheduler, so a change
// that moves simulated results cannot leave `go test ./...` green. The
// full set stays behind `make artifacts`.
func TestCommittedArtifactsByteIdentical(t *testing.T) {
	cfg := experiments.NewConfig(experiments.SmallScale(), 0)
	cases := []struct {
		id  string
		run func() (text, csv string, err error)
	}{
		{"fig4", func() (string, string, error) {
			rows, err := experiments.Fig4(cfg)
			return Fig4Table(rows), Fig4CSV(rows), err
		}},
		{"verbs", func() (string, string, error) {
			rows, err := experiments.VerbsSweep(cfg)
			return VerbsTable(rows), VerbsCSV(rows), err
		}},
		{"reliability", func() (string, string, error) {
			rows, err := experiments.Reliability(cfg)
			return ReliabilityTable(rows), ReliabilityCSV(rows), err
		}},
		{"failover", func() (string, string, error) {
			rows, err := experiments.Failover(cfg)
			return FailoverTable(rows), FailoverCSV(rows), err
		}},
		{"tenancy", func() (string, string, error) {
			rows, err := experiments.Tenancy(cfg)
			return TenancyTable(rows), TenancyCSV(rows), err
		}},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			text, csv, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string]string{".txt": text, ".csv": csv} {
				path := filepath.Join("..", "..", "artifacts", c.id+ext)
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
}
