package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/miniapps"
	"repro/internal/mpi"
	"repro/internal/psm"
)

// TestSyntheticModeMovesNoTime: eliding payload bytes is a host-side
// shortcut every artifact cell takes, not part of the simulated
// machine. Each mini-app on 2 nodes × 4 ranks and each ping-pong size,
// on every OS, must finish at the same virtual time with the same
// per-rank body times, PSM statistics and NIC/RNIC counters whether the
// cluster is synthetic or moves real bytes.
func TestSyntheticModeMovesNoTime(t *testing.T) {
	cfg := tinyConfig()
	for _, os := range cluster.AllOSTypes {
		for _, app := range miniapps.All() {
			t.Run(app.Name+"/"+os.String(), func(t *testing.T) {
				sameInBothModes(t, func(synthetic bool) (string, error) {
					cl, err := cfg.cluster(cluster.Spec{Nodes: 2, OS: os, Synthetic: synthetic})
					if err != nil {
						return "", err
					}
					defer cl.Close()
					placement := cluster.Blocks(2, 4)
					body := make([]time.Duration, len(placement))
					h := mpi.StartJob(cl, mpi.JobSpec{Placement: placement, Body: func(c *mpi.Comm) error {
						start := c.P.Now()
						err := app.Body(c, app)
						body[c.Rank] = c.P.Now() - start
						return err
					}})
					if err := cl.Run(0); err != nil {
						return "", err
					}
					res, err := h.Result()
					if err != nil {
						return "", err
					}
					var eps []*psm.Endpoint
					for _, c := range h.Comms() {
						eps = append(eps, c.EP)
					}
					return fmt.Sprintf("elapsed=%v wall=%v body=%v\n", res.Elapsed, res.WallTime, body) +
						machineCounters(cl, eps), nil
				})
			})
		}
		for _, size := range cfg.Scale.PingPongSizes {
			t.Run(fmt.Sprintf("pingpong/%dB/%v", size, os), func(t *testing.T) {
				sameInBothModes(t, func(synthetic bool) (string, error) {
					c, err := buildPingPong(cfg, os, size, cfg.Scale.PingPongReps, !synthetic)
					if err != nil {
						return "", err
					}
					defer c.cl.Close()
					r, err := c.finish()
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("now=%v mean=%v p50=%v p99=%v\n", c.cl.Now(), r.mean, r.hist.P50(), r.hist.P99()) +
						machineCounters(c.cl, c.ranks.Endpoints()), nil
				})
			})
		}
	}
}

// sameInBothModes runs cell synthetic and with real bytes and fails on
// the first line where the two observations differ.
func sameInBothModes(t *testing.T, cell func(synthetic bool) (string, error)) {
	t.Helper()
	synth, err := cell(true)
	if err != nil {
		t.Fatalf("synthetic: %v", err)
	}
	full, err := cell(false)
	if err != nil {
		t.Fatalf("real bytes: %v", err)
	}
	if synth == full {
		return
	}
	s, r := strings.Split(synth, "\n"), strings.Split(full, "\n")
	for i := range min(len(s), len(r)) {
		if s[i] != r[i] {
			t.Fatalf("synthetic and real-byte runs differ:\n  synthetic %s\n  real      %s", s[i], r[i])
		}
	}
	t.Fatalf("synthetic and real-byte runs differ in length:\n%s\nvs\n%s", synth, full)
}

// machineCounters prints every rank's psm.Stats and every exported
// uint64 counter of each node's NIC and RNIC, one line each.
func machineCounters(cl *cluster.Cluster, eps []*psm.Endpoint) string {
	var b strings.Builder
	for r, ep := range eps {
		fmt.Fprintf(&b, "rank%d %+v\n", r, ep.Stats)
	}
	for _, n := range cl.Nodes {
		for _, dev := range []any{n.NIC, n.RNIC} {
			v := reflect.ValueOf(dev).Elem()
			fmt.Fprintf(&b, "node%d %T", n.ID, dev)
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() && f.Type.Kind() == reflect.Uint64 {
					fmt.Fprintf(&b, " %s=%d", f.Name, v.Field(i).Uint())
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
