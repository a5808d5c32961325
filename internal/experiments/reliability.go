// The reliability experiment measures what lossy-fabric recovery costs:
// a loss-rate × message-size sweep across the three OS configurations,
// reporting goodput, one-way latency percentiles and recovery counts.
// Every delivered payload is verified byte-for-byte against the
// loss-free reference pattern — the sweep is the end-to-end gate on the
// go-back-N + SDMA-degradation machinery, not just a timing.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/runner"
	"repro/internal/sim"
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
	sc := cfg.Scale
	chunk := model.Default().EagerChunk
	var jobs []runner.Job[relCell]
	for _, loss := range sc.LossRates {
		for _, size := range sc.ReliabilitySizes {
			for _, os := range cluster.AllOSTypes {
				loss, size, os := loss, size, os
				id := fmt.Sprintf("reliability/%.4f/%dB/%s", loss, size, osName(os))
				reps := relReps(loss, size, chunk)
				jobs = append(jobs, runner.Job[relCell]{ID: id, Fn: func() (relCell, error) {
					return reliabilityCell(cfg, os, loss, size, reps, runner.DeriveSeed(sc.Seed, id))
				}})
			}
		}
	}
	cells, err := runner.Run(cfg.pool(), jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]ReliabilityRow, 0, len(sc.LossRates)*len(sc.ReliabilitySizes))
	i := 0
	for _, loss := range sc.LossRates {
		for _, size := range sc.ReliabilitySizes {
			row := ReliabilityRow{
				Loss: loss, Size: size,
				Goodput:     make(map[string]float64),
				OneWayP50:   make(map[string]time.Duration),
				OneWayP99:   make(map[string]time.Duration),
				Retransmits: make(map[string]uint64),
			}
			for _, os := range cluster.AllOSTypes {
				cell := cells[i]
				i++
				name := osName(os)
				row.Goodput[name] = float64(size) / cell.hist.Mean().Seconds() / 1e6
				row.OneWayP50[name] = cell.hist.P50()
				row.OneWayP99[name] = cell.hist.P99()
				row.Retransmits[name] = cell.retrans
				row.Reps = cell.reps
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// reliabilityCell runs one symmetric ping-pong cell on a real-payload
// (non-synthetic) two-node cluster under the given drop rate, verifying
// every delivered message against the deterministic reference pattern.
func reliabilityCell(cfg Config, os cluster.OSType, loss float64, size uint64, reps int, seed int64) (relCell, error) {
	// The cell inherits cfg.Faults (duplication, reordering, SDMA
	// aborts, ...) and sweeps only the drop rate on top of it.
	fp := cfg.Faults
	fp.Drop = loss
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: os, Params: model.Default(), Seed: seed, Faults: fp,
	})
	if err != nil {
		return relCell{}, err
	}
	hist := &trace.Histogram{}
	var ranks *cluster.Ranks
	ranks = cl.StartRanks("rel", []int{0, 1}, false, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		proc := ep.OS.Proc()
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		verify := func(tag uint64) error {
			got := make([]byte, size)
			if err := proc.ReadAt(buf, got); err != nil {
				return err
			}
			if !bytes.Equal(got, relPattern(tag, size)) {
				return fmt.Errorf("reliability: payload mismatch at loss=%g size=%d tag=%d on %s",
					loss, size, tag, os)
			}
			return nil
		}
		// Warmup round, then timed rounds; both directions carry the
		// reference pattern and are verified on arrival.
		for i := 0; i <= reps; i++ {
			tag := uint64(10 + i)
			if r == 0 {
				if err := proc.WriteAt(buf, relPattern(tag, size)); err != nil {
					return err
				}
				start := p.Now()
				if err := ep.Send(p, 1, tag, buf, size); err != nil {
					return err
				}
				if err := ep.Recv(p, 1, tag, buf, size); err != nil {
					return err
				}
				if err := verify(tag); err != nil {
					return err
				}
				if i > 0 {
					hist.Observe((p.Now() - start) / 2)
				}
			} else {
				if err := ep.Recv(p, 0, tag, buf, size); err != nil {
					return err
				}
				if err := verify(tag); err != nil {
					return err
				}
				if err := ep.Send(p, 0, tag, buf, size); err != nil {
					return err
				}
			}
		}
		return ranks.Drain(p, ep)
	})
	if err := cl.Run(0); err != nil {
		return relCell{}, err
	}
	if err := ranks.Err(); err != nil {
		return relCell{}, err
	}
	cell := relCell{hist: hist, reps: reps}
	for _, ep := range ranks.Endpoints() {
		cell.retrans += ep.Stats.Retransmits + ep.Stats.MsgResends
	}
	// Sanity-couple the recovery counters to the injected faults: a
	// lossy cell with no drops means the repetition scaling is broken.
	fs := cl.Fab.FaultStats()
	if loss > 0 && fs.Dropped == 0 {
		return relCell{}, fmt.Errorf("reliability: loss=%g size=%d on %s injected no drops over %d reps",
			loss, size, os, reps)
	}
	if loss > 0 && cell.retrans == 0 {
		return relCell{}, fmt.Errorf("reliability: loss=%g size=%d on %s dropped %d packets but recovered none",
			loss, size, os, fs.Dropped)
	}
	return cell, nil
}

// relPattern is the deterministic loss-free reference payload for a tag.
func relPattern(tag, size uint64) []byte {
	b := make([]byte, size)
	for k := range b {
		b[k] = byte(uint64(k)*2654435761 + tag*97)
	}
	return b
}
