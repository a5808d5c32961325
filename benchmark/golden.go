package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json holds, for seeds 1 and 2, the exact counters of one unit of
// every workload at full size: the simulated results. A change meant only
// to speed up the simulator must leave them identical, and
// model.golden_mismatch says so in one number. Rewrite with
// `go run ./benchmark -update-golden` from the repository root, and only
// in a change that means to move simulated results.
//
//go:embed golden.json
var goldenJSON []byte

const goldenPath = "benchmark/golden.json"

var goldenSeeds = []int64{1, 2}

func goldenKey(workload string, seed int64) string { return fmt.Sprintf("%s/%d", workload, seed) }

func loadGolden() (map[string]counters, error) {
	g := map[string]counters{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenDiff returns how many of a unit's exact counters differ from the
// golden values and the first that does, or -1 when there is nothing to
// compare: no golden entry for this workload and seed, the smoke size, or
// no counters.
func goldenDiff(workload string, seed int64, smoke bool, got counters) (n float64, first string) {
	g, err := loadGolden()
	want, ok := g[goldenKey(workload, seed)]
	if err != nil || !ok || smoke || len(got) == 0 {
		return -1, ""
	}
	seen := map[string]bool{}
	for _, k := range append(want.names(), got.names()...) {
		if seen[k] {
			continue
		}
		seen[k] = true
		a, inA := want[k]
		b, inB := got[k]
		if !inA || !inB || a != b {
			if n++; first == "" {
				first = fmt.Sprintf("%s: golden %v, got %v", k, a, b)
			}
		}
	}
	return n, first
}

func goldenMismatch(u *unitResult) float64 {
	n, _ := goldenDiff(u.Workload, u.Seed, u.Smoke, u.Counters)
	return n
}

// updateGolden reruns one unit of every workload at every golden seed and
// rewrites golden.json.
func updateGolden(s *spawner) error {
	g := map[string]counters{}
	for _, seed := range goldenSeeds {
		for _, w := range workloads {
			u, err := s.unit(childOpts{workload: w.name, seed: seed})
			if err != nil {
				return err
			}
			g[goldenKey(w.name, seed)] = u.Counters
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
