// The reliability experiment measures what lossy-fabric recovery costs:
// a loss-rate × message-size sweep across the three OS configurations,
// reporting goodput, one-way latency percentiles and recovery counts.
// Every delivered payload is verified byte-for-byte against the
// loss-free reference pattern — the sweep is the end-to-end gate on the
// go-back-N + SDMA-degradation machinery, not just a timing.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/trace"
)

// ReliabilityRow is one (loss rate, message size) across the three OS
// configurations.
type ReliabilityRow struct {
	Loss float64
	Size uint64
	// Goodput is delivered payload over one-way time, in MB/s per OS
	// name (retransmissions shrink it; they never corrupt it).
	Goodput map[string]float64
	// OneWayP50/OneWayP99 are per-repetition one-way latency
	// percentiles per OS name.
	OneWayP50 map[string]time.Duration
	OneWayP99 map[string]time.Duration
	// Retransmits counts go-back-N resends plus message-level recovery
	// resends over both endpoints, per OS name.
	Retransmits map[string]uint64
	// Reps is the repetition count the cell ran (scaled up at low loss
	// so the drop injection is actually exercised).
	Reps int
}

// relKey is one (loss rate, message size) entry of the sweep.
type relKey struct {
	loss float64
	size uint64
}

func (k relKey) String() string { return fmt.Sprintf("reliability/%.4f/%dB", k.loss, k.size) }

// relCell is one (loss, size, OS) measurement.
type relCell struct {
	hist    *trace.Histogram
	retrans uint64
	reps    int
}

// relReps picks the repetition count for a cell: enough packets that the
// expected number of injected drops is well above one, so "retransmit
// counts nonzero exactly when loss > 0" holds deterministically, while
// loss-free and high-loss cells stay cheap.
func relReps(loss float64, size uint64, chunk uint64) int {
	const base = 6
	if loss <= 0 {
		return base
	}
	chunks := int((size + chunk - 1) / chunk)
	pktsPerRep := 2 * chunks // data packets, both directions; ACKs are extra margin
	need := int(6.0/(loss*float64(pktsPerRep))) + 1
	if need < base {
		return base
	}
	if need > 4000 {
		return 4000
	}
	return need
}

// Reliability runs the lossy-fabric sweep, one pool job per (loss rate,
// message size, OS) cell. Any payload mismatch fails the experiment.
func Reliability(cfg Config) ([]ReliabilityRow, error) {
	// Every cell, the loss-free column included, ends in Ranks.Drain,
	// which polls one counter on one clock.
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("reliability: verified ping-pong cells cannot run with Shards=%d", cfg.Shards)
	}
	sc := cfg.Scale
	var keys []relKey
	for _, loss := range sc.LossRates {
		for _, size := range sc.ReliabilitySizes {
			keys = append(keys, relKey{loss, size})
		}
	}
	grid, err := osGrid(cfg, keys, relKey.String, func(k relKey, os cluster.OSType, seed int64) (relCell, error) {
		return relCellRun(cfg, os, k, seed)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ReliabilityRow, 0, len(grid))
	for i, k := range keys {
		rows = append(rows, ReliabilityRow{
			Loss: k.loss, Size: k.size,
			Goodput: byOS(grid[i], func(c relCell) float64 {
				return float64(k.size) / c.hist.Mean().Seconds() / 1e6
			}),
			OneWayP50:   byOS(grid[i], func(c relCell) time.Duration { return c.hist.P50() }),
			OneWayP99:   byOS(grid[i], func(c relCell) time.Duration { return c.hist.P99() }),
			Retransmits: byOS(grid[i], func(c relCell) uint64 { return c.retrans }),
			Reps:        grid[i][0].reps,
		})
	}
	return rows, nil
}

// relCellRun runs the verified ping-pong cell under the key's drop
// rate and couples its recovery counters to the injected faults.
func relCellRun(cfg Config, os cluster.OSType, k relKey, seed int64) (relCell, error) {
	// The cell inherits cfg.Faults (duplication, reordering, SDMA
	// aborts, ...) and sweeps only the drop rate on top of it.
	cfg.Faults.Drop = k.loss
	reps := relReps(k.loss, k.size, model.Default().EagerChunk)
	c, err := buildPingPong(cfg, os, k.size, reps, seed, nil, true)
	if err != nil {
		return relCell{}, err
	}
	defer c.cl.Close()
	res, err := c.finish()
	if err != nil {
		return relCell{}, err
	}
	cell := relCell{hist: res.hist, reps: reps}
	for _, ep := range c.ranks.Endpoints() {
		cell.retrans += ep.Stats.Retransmits + ep.Stats.MsgResends
	}
	// A lossy cell with no drops means the repetition scaling is broken.
	fs := c.cl.Fab.FaultStats()
	if k.loss > 0 && fs.Dropped == 0 {
		return relCell{}, fmt.Errorf("reliability: loss=%g size=%d on %s injected no drops over %d reps",
			k.loss, k.size, os, reps)
	}
	if k.loss > 0 && cell.retrans == 0 {
		return relCell{}, fmt.Errorf("reliability: loss=%g size=%d on %s dropped %d packets but recovered none",
			k.loss, k.size, os, fs.Dropped)
	}
	return cell, nil
}
