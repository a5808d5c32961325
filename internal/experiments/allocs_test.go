package experiments

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// marginalMallocs is what one more repetition of run mallocs: run at
// reps and at 3*reps, so construction, warm-up and pool filling cancel.
// One unmeasured run at reps goes first: what a process builds once
// (the drivers' modules, the fast paths' layouts) would otherwise land
// in the first measurement only. The collector is off meanwhile: a
// cycle empties the runtime's sudog caches, whose refill is dozens of
// mallocs that are not the simulator's.
func marginalMallocs(t *testing.T, reps int, run func(reps int) error) float64 {
	if err := run(reps); err != nil {
		t.Fatal(err)
	}
	mallocs := func(reps int) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(reps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	return (mallocs(3*reps) - mallocs(reps)) / float64(2*reps)
}

// TestSteadyStateAllocsPerRoundTrip is the data path's host-allocation
// gate: what one more ping-pong round trip mallocs, per protocol and OS
// configuration (cluster.AllOSTypes order), under a ceiling of the count
// measured plus half the round trip's packets. One allocation per packet
// (or event, or SDMA request: there are more of those) always fails;
// runtime noise, spread over reps round trips, never does.
func TestSteadyStateAllocsPerRoundTrip(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's own allocations are counted too")
	}
	for _, c := range []struct {
		size    uint64
		reps    int
		drop    float64
		ceiling [3]float64
	}{
		{1 << 10, 256, 0, [3]float64{0.0 + 1, 0.0 + 1, 0.0 + 1}},       // PIO: 2 packets
		{32 << 10, 64, 0, [3]float64{0.2 + 8, 0.1 + 8, 0.0 + 4}},       // eager SDMA: 16, 16, 8 packets
		{4 << 20, 4, 0, [3]float64{1.8 + 1033, 0.8 + 1033, 0.5 + 425}}, // rendezvous: 2066, 2066, 850 packets
		// Eager SDMA at 2 % drop (fault seed 7), verified: 20, 20, 12
		// packets before any loss (data, two FINs, their ACKs), plus
		// go-back-N rounds, message timers and PIO replays. Recovery
		// recycles its records and the replays' retained chunks go back
		// to their endpoint by hold count (psm chunk), so less than one
		// malloc per round trip remains.
		{32 << 10, 64, 0.02, [3]float64{0.5 + 10, 0.4 + 10, 0.2 + 6}},
	} {
		cfg := tinyConfig()
		cfg.Faults = fabric.FaultProfile{LinkFaults: fabric.LinkFaults{Drop: c.drop}, Seed: 7}
		id := func(os cluster.OSType) string {
			if c.drop > 0 {
				return cellID(relKey{c.drop, c.size}.String(), os)
			}
			return cellID(fig4Key(c.size), os)
		}
		for i, os := range cluster.AllOSTypes {
			got := marginalMallocs(t, c.reps, func(reps int) error {
				cell, err := buildPingPong(cfg, os, c.size, reps, c.drop > 0)
				if err == nil {
					_, err = cell.finish()
				}
				return err
			})
			t.Logf("%s: %.2f mallocs per round trip", id(os), got)
			if got > c.ceiling[i] {
				t.Errorf("%s: %.2f mallocs per round trip, ceiling %.2f: something allocates per packet, event or request", id(os), got, c.ceiling[i])
			}
		}
	}
	// No benchmark workload covers verbs. One repetition is six work
	// requests (64 KB WRITE and READ per OS configuration); half is 3.
	cfg := NewConfig(tinyScale(), 1)
	cfg.Scale.VerbsSizes = []uint64{64 << 10}
	got := marginalMallocs(t, 32, func(reps int) error {
		cfg.Scale.VerbsReps = reps
		_, err := VerbsSweep(cfg)
		return err
	})
	if ceiling := 18.0 + 3; got > ceiling {
		t.Errorf("verbs/65536B: %.2f mallocs per repetition, ceiling %.2f: something allocates per work request or packet", got, ceiling)
	}
}
