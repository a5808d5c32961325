// The failover experiment measures what a live rail failover costs: a
// paced message stream crosses a dual-rail fabric whose rail 0 goes
// down mid-stream, and the cell reports the blackout window (the
// longest gap between consecutive message completions) plus the
// goodput before the outage and after the fall back to rail 0. Every
// delivered payload is verified byte-for-byte, so the sweep is the
// end-to-end gate on the health machine's rail switching, not just a
// timing.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// failoverOutage is the rail-0 outage window every failover cell runs
// under: long enough that an unfrozen retry budget would visibly decay,
// short enough that the stream comfortably spans recovery.
const (
	failoverOutageFrom  = 400 * time.Microsecond
	failoverOutageUntil = 1400 * time.Microsecond
)

// FailoverRow is one OS configuration's failover measurement.
type FailoverRow struct {
	OS string
	// Msgs is the number of messages streamed, Size their payload size.
	Msgs int
	Size uint64
	// Blackout is the longest gap between consecutive message
	// completions — the time the stream stalled while the health
	// machine detected the outage and switched rails.
	Blackout time.Duration
	// PreMBps/PostMBps are goodput before the outage began and after it
	// ended (post-recovery traffic rides rail 1 until the probe falls
	// back, then rail 0 again).
	PreMBps  float64
	PostMBps float64
	// Health-machine counters observed on the sending endpoint.
	Failovers    uint64
	RailSwitches uint64
	Fallbacks    uint64
	Freezes      uint64
}

// Failover runs the failover cell once per OS configuration.
func Failover(cfg Config) ([]FailoverRow, error) {
	grid, err := osGrid(cfg, []string{"failover"}, func(k string) string { return k },
		func(_ string, os cluster.OSType, seed int64) (FailoverRow, error) {
			return failoverCell(cfg, os, seed, nil)
		})
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// TracedFailover runs one failover cell under a trace recorder and
// returns the measured row together with the recorder, so the
// failover/fallback spans of the health machine can be exported as a
// Chrome trace.
func TracedFailover(cfg Config, os cluster.OSType) (FailoverRow, *trace.Recorder, error) {
	rec := trace.NewRecorder()
	seed := runner.DeriveSeed(cfg.Scale.Seed, cellID("failover", os))
	row, err := failoverCell(cfg, os, seed, rec)
	return row, rec, err
}

// failoverCell streams the scale's paced messages from rank 0 to rank 1
// over a dual-rail cluster whose rail 0 is down for
// [failoverOutageFrom, failoverOutageUntil), verifying every payload and
// timing every completion.
func failoverCell(cfg Config, os cluster.OSType, seed int64, rec *trace.Recorder) (FailoverRow, error) {
	msgs, size := cfg.Scale.FailoverMsgs, cfg.Scale.FailoverSize
	if msgs <= 0 {
		msgs = 160
	}
	if size == 0 {
		size = 32 << 10
	}
	pr := model.Default()
	pr.DualRail = true
	// The outage rides on top of whatever the run-wide profile injects.
	cfg.Faults.Down = append(append([]fabric.DownWindow{}, cfg.Faults.Down...),
		fabric.DownWindow{Src: 0, Dst: 1, From: failoverOutageFrom, Until: failoverOutageUntil},
		fabric.DownWindow{Src: 1, Dst: 0, From: failoverOutageFrom, Until: failoverOutageUntil})
	cl, err := cfg.cluster(cluster.Spec{Nodes: 2, OS: os, Params: pr, Seed: seed})
	if err != nil {
		return FailoverRow{}, err
	}
	defer cl.Close()
	cl.SetRecorder(rec)
	completions := make([]time.Duration, 0, msgs)
	var streamStart time.Duration
	var ranks *cluster.Ranks
	ranks = cl.StartRanks("fo", []int{0, 1}, false, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		proc := ep.OS.Proc()
		buf, err := ep.OS.MmapAnon(p, size)
		if err != nil {
			return err
		}
		if r == 0 {
			streamStart = p.Now()
			for i := 0; i < msgs; i++ {
				tag := uint64(10 + i)
				if err := proc.WriteAt(buf, relPattern(tag, size)); err != nil {
					return err
				}
				if err := ep.Send(p, 1, tag, buf, size); err != nil {
					return fmt.Errorf("failover: send %d on %s: %w", i, os, err)
				}
				completions = append(completions, p.Now())
				// Pacing keeps the stream alive past the outage and the
				// probe-driven fall back to rail 0.
				p.Sleep(10 * time.Microsecond)
			}
		} else {
			for i := 0; i < msgs; i++ {
				tag := uint64(10 + i)
				if err := ep.Recv(p, 0, tag, buf, size); err != nil {
					return fmt.Errorf("failover: recv %d on %s: %w", i, os, err)
				}
				got := make([]byte, size)
				if err := proc.ReadAt(buf, got); err != nil {
					return err
				}
				if !bytes.Equal(got, relPattern(tag, size)) {
					return fmt.Errorf("failover: payload mismatch at msg %d on %s", i, os)
				}
			}
		}
		return ranks.Drain(p, ep)
	})
	if err := cl.Run(0); err != nil {
		return FailoverRow{}, err
	}
	if err := ranks.Err(); err != nil {
		return FailoverRow{}, err
	}
	row := FailoverRow{OS: osName(os), Msgs: msgs, Size: size}
	fs := ranks.Endpoints()[0].FailoverStats
	row.Failovers, row.RailSwitches = fs.Failovers, fs.RailSwitches
	row.Fallbacks, row.Freezes = fs.Fallbacks, fs.Freezes
	if row.Failovers == 0 || row.RailSwitches == 0 {
		return FailoverRow{}, fmt.Errorf("failover: outage never triggered a rail switch on %s: %+v", os, fs)
	}
	prev := streamStart
	var preBytes, postBytes uint64
	var preStart, preEnd, postStart, postEnd time.Duration
	preStart = streamStart
	for _, t := range completions {
		if gap := t - prev; gap > row.Blackout {
			row.Blackout = gap
		}
		prev = t
		switch {
		case t < failoverOutageFrom:
			preBytes += size
			preEnd = t
		case t >= failoverOutageUntil:
			if postBytes == 0 {
				postStart = t
			}
			postBytes += size
			postEnd = t
		}
	}
	mbps := func(b uint64, from, to time.Duration) float64 {
		if b == 0 || to <= from {
			return 0
		}
		return float64(b) / (to - from).Seconds() / 1e6
	}
	row.PreMBps = mbps(preBytes, preStart, preEnd)
	row.PostMBps = mbps(postBytes-size, postStart, postEnd) // first post message anchors the clock
	if preBytes == 0 || postBytes < 2*size {
		return FailoverRow{}, fmt.Errorf("failover: stream did not span the outage on %s (pre=%dB post=%dB)",
			os, preBytes, postBytes)
	}
	return row, nil
}
