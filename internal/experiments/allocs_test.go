package experiments

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// marginalMallocs is what one more repetition of run mallocs: run at
// reps and at 3*reps, so construction, warm-up and pool filling cancel.
// The collector is off meanwhile: a cycle empties the runtime's sudog
// caches, whose refill is dozens of mallocs that are not the simulator's.
func marginalMallocs(t *testing.T, reps int, run func(reps int) error) float64 {
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
		ceiling [3]float64
	}{
		{1 << 10, 256, [3]float64{6.0 + 1, 6.0 + 1, 6.0 + 1}},       // PIO: 2 packets
		{32 << 10, 64, [3]float64{16.2 + 8, 30.1 + 8, 16.1 + 4}},    // eager SDMA: 16, 16, 8 packets
		{4 << 20, 4, [3]float64{147 + 1033, 482 + 1033, 146 + 425}}, // rendezvous: 2066, 2066, 850 packets
	} {
		for i, os := range cluster.AllOSTypes {
			got := marginalMallocs(t, c.reps, func(reps int) error {
				cell, err := buildPingPong(tinyConfig(), os, c.size, reps, 1, nil, false)
				if err == nil {
					_, err = cell.finish()
				}
				return err
			})
			if got > c.ceiling[i] {
				t.Errorf("%s: %.2f mallocs per round trip, ceiling %.2f: something allocates per packet, event or request", cellID(fig4Key(c.size), os), got, c.ceiling[i])
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
