package cluster

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// startPair boots a 2-node cluster and spawns one ping-pong exchange
// per rank without running the engine, so the caller owns the clock.
// Identical calls build byte-identical simulations.
func startPair(t *testing.T, os OSType, size uint64) *Cluster {
	t.Helper()
	c, err := New(Spec{Nodes: 2, OS: os, Params: model.Default(), Seed: 42, Synthetic: true})
	if err != nil {
		t.Fatal(err)
	}
	startPairOn(t, c, size)
	return c
}

// startPairOn spawns the ping-pong ranks onto an existing cluster.
// Failures are reported when a rank ends, with t.Error only
// (goroutine-safe).
func startPairOn(t *testing.T, c *Cluster, size uint64) {
	body := pingPong(1, size)
	c.StartRanks("rank", []int{0, 1}, true, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		err := body(p, r, ep)
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		return err
	})
}

// snapAt builds the pair workload, runs to at, and snapshots.
func snapAt(t *testing.T, os OSType, size uint64, at time.Duration) []byte {
	t.Helper()
	c := startPair(t, os, size)
	if err := c.Run(at); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Machine().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// totalTime runs the pair workload to completion.
func totalTime(t *testing.T, os OSType, size uint64) time.Duration {
	t.Helper()
	c := startPair(t, os, size)
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	return c.Now()
}

// TestSnapshotDeterminism: identically seeded clusters snapshotted at
// the same virtual midpoint produce byte-identical snapshots, on every
// OS configuration; and snapshotting is side-effect free (a second
// snapshot of the same machine matches the first).
func TestSnapshotDeterminism(t *testing.T) {
	const size = 256 << 10 // rendezvous: TID pins and SDMA in flight
	for _, os := range AllOSTypes {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			total := totalTime(t, os, size)
			mid := total / 2
			a := snapAt(t, os, size, mid)
			b := snapAt(t, os, size, mid)
			if !bytes.Equal(a, b) {
				t.Fatalf("snapshots differ:\n%s", snapshot.Diff(a, b))
			}

			c := startPair(t, os, size)
			if err := c.Run(mid); err != nil {
				t.Fatal(err)
			}
			var s1, s2 bytes.Buffer
			if err := c.Machine().Snapshot(&s1); err != nil {
				t.Fatal(err)
			}
			if err := c.Machine().Snapshot(&s2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
				t.Fatal("Snapshot mutated engine state: back-to-back snapshots differ")
			}
			f, err := snapshot.Decode(a)
			if err != nil {
				t.Fatal(err)
			}
			if f.Now != mid {
				t.Fatalf("snapshot Now = %v, want %v", f.Now, mid)
			}
			// The expected per-layer sections are all present. PSM
			// endpoints self-register only once MPI_Init finishes —
			// on McKernel that is most of the run — so check late.
			late, err := snapshot.Decode(snapAt(t, os, size, total*9/10))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{
				"engine", "fabric", "fabric#1",
				"node0/mem", "node0/kmem-linux", "node0/linux",
				"node0/hfi", "node0/hfidrv", "node0/rnic", "node0/mlx",
				"node1/mem", "psm/rank0", "psm/rank1",
			} {
				if late.Section(name) == nil {
					t.Errorf("section %q missing", name)
				}
			}
			if os != OSLinux && late.Section("node0/kmem-lwk") == nil {
				t.Error("section node0/kmem-lwk missing on multi-kernel config")
			}
		})
	}
}

// TestSnapshotRestore: a fresh, identically constructed simulation
// restored from a midpoint snapshot verifies byte-exact (replay
// equivalence) and then finishes the run at the same virtual time as
// the straight run.
func TestSnapshotRestore(t *testing.T) {
	const size = 256 << 10
	for _, os := range AllOSTypes {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			total := totalTime(t, os, size)
			mid := total / 2
			snap := snapAt(t, os, size, mid)

			fresh := startPair(t, os, size)
			now, err := snapshot.Restore(snap, fresh.Machine())
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if now != mid {
				t.Fatalf("restored to %v, want %v", now, mid)
			}
			if err := fresh.Run(0); err != nil {
				t.Fatal(err)
			}
			if fresh.Now() != total {
				t.Fatalf("restored run finished at %v, straight run at %v", fresh.Now(), total)
			}
		})
	}
}

// TestSnapshotRestoreDivergence: restoring into a simulation built with
// a different seed must fail with a divergence error, not silently
// succeed.
func TestSnapshotRestoreDivergence(t *testing.T) {
	const size = 64 << 10
	mid := totalTime(t, OSLinux, size) / 2
	snap := snapAt(t, OSLinux, size, mid)

	c, err := New(Spec{Nodes: 2, OS: OSLinux, Params: model.Default(), Seed: 43, Synthetic: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Restore(snap, c.Machine()); err == nil {
		t.Fatal("restore into a differently seeded simulation succeeded")
	}
}

// TestConcurrentEngineIsolation pins the package-state audit: engines
// share no mutable package-level state, so identically seeded
// simulations running concurrently in one process must snapshot
// byte-identically. A shared RNG, pool, or counter anywhere in the
// stack would make these images race-dependent.
func TestConcurrentEngineIsolation(t *testing.T) {
	const size = 64 << 10
	mid := totalTime(t, OSMcKernelHFI, size) / 2
	snaps := make([][]byte, 4)
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i := range snaps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := New(Spec{Nodes: 2, OS: OSMcKernelHFI, Params: model.Default(), Seed: 42, Synthetic: true})
			if err != nil {
				errs[i] = err
				return
			}
			startPairOn(t, c, size)
			if err := c.Run(mid); err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := c.Machine().Snapshot(&buf); err != nil {
				errs[i] = err
				return
			}
			snaps[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("concurrent engines produced divergent snapshots:\n%s", snapshot.Diff(snaps[0], snaps[i]))
		}
	}
}

// TestSnapshotRestoredRngSequence: the engine RNG of a restored run
// produces exactly the sequence the straight run would have produced
// from the same point (satellite: PRNG state is owned and serialized).
func TestSnapshotRestoredRngSequence(t *testing.T) {
	const size = 64 << 10
	mid := totalTime(t, OSLinux, size) / 2
	snap := snapAt(t, OSLinux, size, mid)

	// Straight run: advance to mid, then draw.
	straight := startPair(t, OSLinux, size)
	if err := straight.Run(mid); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 8)
	for i := range want {
		want[i] = straight.EngineFor(0).Rng().Int63n(1 << 30)
	}

	restored := startPair(t, OSLinux, size)
	if _, err := snapshot.Restore(snap, restored.Machine()); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := restored.EngineFor(0).Rng().Int63n(1 << 30); got != want[i] {
			t.Fatalf("draw %d: restored %d, straight %d", i, got, want[i])
		}
	}
}
