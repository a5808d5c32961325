package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// dist summarises the per-unit samples of one end-to-end metric.
type dist struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func newDist(xs []float64) dist {
	q1, med, q3 := quartiles(xs)
	return dist{Median: med, Q1: q1, Q3: q3, Samples: xs}
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / d.Median
}

// runResult is one run of one workload: units measured back to back, each
// in a fresh child process, for about the requested time.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Units     int                `json:"units"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Notes     []string           `json:"notes,omitempty"`
	E2E       map[string]dist    `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	Counters  counters           `json:"counters"`

	spans []span
}

// spawner runs children of this same binary, one at a time.
type spawner struct {
	exe   string
	smoke bool
}

func newSpawner(smoke bool) (*spawner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	return &spawner{exe: exe, smoke: smoke}, nil
}

// unit runs one unit of a workload in a fresh child process and reads its
// one JSON line back. The child inherits the environment, so GOMAXPROCS is
// the default unless the caller set it.
func (s *spawner) unit(o childOpts) (*unitResult, error) {
	args := []string{"-child", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if s.smoke {
		args = append(args, "-smoke")
	}
	if o.traced {
		args = append(args, "-traced")
	}
	if o.shards1 {
		args = append(args, "-shards1")
	}
	cmd := exec.Command(s.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to exit
		return nil, fmt.Errorf("child %s: %w: %s", o.workload, err, bytes.TrimSpace(stderr.Bytes()))
	}
	var res unitResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child %s: bad result line: %w", o.workload, err)
	}
	return &res, nil
}

// measure runs units of one workload until about seconds have passed (at
// least one), untraced, and folds them into the end-to-end metrics.
func (s *spawner) measure(w *workload, seed int64, seconds float64) *runResult {
	r := &runResult{Workload: w.name, Seed: seed, Correct: true, E2E: map[string]dist{}}
	var units []*unitResult
	start := time.Now()
	for {
		u, err := s.unit(childOpts{workload: w.name, seed: seed})
		r.Units++
		if err != nil {
			r.fail("unit %d: %v", r.Units, err)
			r.Attempted++
			r.Failed++
			break
		}
		units = append(units, u)
		// Launch another unit only if it is expected to end nearer the
		// requested time than stopping now would.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(units))/2 >= seconds {
			break
		}
	}
	r.check(units)
	if len(units) > 0 {
		for _, m := range endToEnd {
			xs := make([]float64, len(units))
			for i, u := range units {
				xs[i] = m.of(u)
			}
			r.E2E[m.name] = newDist(xs)
		}
	}
	return r
}

func (r *runResult) fail(format string, a ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// check sums the units' operation counts and verifies that every unit
// agrees with unit 0 on every exact counter.
func (r *runResult) check(units []*unitResult) {
	if len(units) == 0 {
		return
	}
	for i, u := range units {
		r.Attempted += u.Attempted
		r.Failed += u.Failed
		if k := firstDiff(units[0].Counters, u.Counters); k != "" {
			r.Attempted++
			r.Failed++
			r.fail("unit %d differs from unit 0 on %s: %v vs %v", i, k, u.Counters[k], units[0].Counters[k])
		}
	}
	r.Counters = units[0].Counters
	if r.Failed > 0 {
		r.Correct = false
	}
}
