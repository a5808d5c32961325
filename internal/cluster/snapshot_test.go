package cluster

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hfi"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// startPair boots a 2-node cluster and spawns one ping-pong exchange
// per rank without running the engine, so the caller owns the clock.
// Identical calls build byte-identical simulations; each closes with t.
func startPair(t *testing.T, os OSType, size uint64) *Cluster {
	t.Helper()
	c, err := New(Spec{Nodes: 2, OS: os, Params: model.Default(), Seed: 42, Synthetic: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	startPairOn(t, c, size)
	return c
}

// startPairOn spawns the ping-pong ranks onto an existing cluster.
// Failures are reported when a rank ends, with t.Error only
// (goroutine-safe).
func startPairOn(t *testing.T, c *Cluster, size uint64) {
	body := pingPong(1, size)
	c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
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

// TestSnapshotNamesRootEvents: a pending event whose argument is a
// registered snapshot root, such as the SDMA completion interrupt's
// *hfi.NIC, names that root's section in the engine section rather
// than repeating the whole section under "event[<seq>].". A 32 KB
// round trip goes by eager SDMA, so such an event is pending at some
// 100 ns step.
func TestSnapshotNamesRootEvents(t *testing.T) {
	c := startPair(t, OSLinux, 32<<10)
	for at := time.Microsecond; at <= 200*time.Microsecond; at += 100 * time.Nanosecond {
		if err := c.Run(at); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Machine().Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		engine := string(f.Section("engine"))
		nics := 0
		for _, l := range strings.Split(engine, "\n") {
			head, typ, ok := strings.Cut(l, " arg=")
			if !ok || typ != "*hfi.NIC" {
				continue
			}
			nics++
			_, seq, _ := strings.Cut(head, " seq=")
			if !regexp.MustCompile(`(?m)^event\[` + seq + `\]=node[01]/hfi$`).MatchString(engine) {
				t.Errorf("at %v: NIC event %s does not name its node's hfi section:\n%s", at, seq, engine)
			}
			if strings.Contains(engine, "event["+seq+"].") {
				t.Errorf("at %v: NIC event %s walks the NIC again:\n%s", at, seq, engine)
			}
		}
		if nics > 0 {
			return
		}
	}
	t.Fatal("no snapshot in the first 200 µs held a pending NIC event")
}

// TestRingFootprint: once a context's eager ring has wrapped, the node
// backs only the ring frames that hold entries not yet handed back, not
// every frame the NIC ever wrote. 5 000 1 KB round trips wrap the
// 4 096-slot ring; while the NIC kept what it wrote, each context held
// more than 4 000 frames of its eager ring and header queue. The count
// is read off the snapshot: the hfi section's contexts lines give the
// rings' extents, the mem section's frames lines the backed frames.
func TestRingFootprint(t *testing.T) {
	const trips, size = 5000, 1 << 10
	pr := model.Default()
	for _, os := range AllOSTypes {
		t.Run(os.String(), func(t *testing.T) {
			c, err := New(Spec{Nodes: 2, OS: os, Params: pr, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ranks := c.StartRanks("rank", []int{0, 1}, nil, pingPong(trips, size))
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if err := ranks.Err(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.Machine().Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			snap, err := snapshot.Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			for node := range 2 {
				backed := backedFrames(string(snap.Section(fmt.Sprintf("node%d/mem", node))))
				// The hfi section's contexts[ID].<field>=<value> lines.
				rings := map[uint64]map[string]uint64{}
				for _, line := range strings.Split(string(snap.Section(fmt.Sprintf("node%d/hfi", node))), "\n") {
					var id, v uint64
					var field string
					if _, err := fmt.Sscanf(strings.Replace(line, "=", " ", 1), "contexts[%d].%s %d", &id, &field, &v); err != nil {
						continue
					}
					if rings[id] == nil {
						rings[id] = map[string]uint64{}
					}
					rings[id][field] = v
				}
				for id, ctx := range rings {
					frames := 0
					for _, ring := range [][2]uint64{
						{ctx["HdrqPA"], ctx["HdrqEntries"] * hfi.HdrqEntrySize},
						{ctx["EagerPA"], ctx["EagerSlots"] * pr.EagerChunk},
					} {
						for pa := ring[0]; pa < ring[0]+ring[1]; pa += mem.PageSize4K {
							if backed[pa] {
								frames++
							}
						}
					}
					if frames > 4 {
						t.Errorf("node %d ctx %d: %d ring frames backed after %d round trips, want a handful",
							node, id, frames, trips)
					}
				}
				if len(rings) == 0 {
					t.Fatalf("node %d: no receive context in the snapshot", node)
				}
			}
		})
	}
}

// frameLine matches a backed frame's buffer or one of its sectors in
// the mem section: regions[R].chunks[G][C].frames[F].buf or
// .sectors[S], chunk C of 64-chunk directory group G.
var frameLine = regexp.MustCompile(`^regions\[(\d+)\]\.chunks\[(\d+)\]\[(\d+)\]\.frames\[(\d+)\]\.(?:buf|sectors\[\d+\])=`)

// backedFrames lists the frame addresses a node<N>/mem snapshot
// section holds bytes for.
func backedFrames(section string) map[uint64]bool {
	bases := map[uint64]uint64{}
	backed := map[uint64]bool{}
	for _, line := range strings.Split(section, "\n") {
		var reg, base uint64
		if _, err := fmt.Sscanf(line, "regions[%d].Region.Base=%d", &reg, &base); err == nil {
			bases[reg] = base
		}
		if m := frameLine.FindStringSubmatch(line); m != nil {
			var n [4]uint64
			for i := range n {
				n[i], _ = strconv.ParseUint(m[i+1], 10, 64)
			}
			frame := (n[1]*64+n[2])*(mem.PageSize2M/mem.PageSize4K) + n[3]
			backed[bases[n[0]]+frame*mem.PageSize4K] = true
		}
	}
	return backed
}

// TestSnapshotRestore: a fresh, identically constructed simulation
// restored from a midpoint snapshot verifies byte-exact (replay
// equivalence), then finishes the run at the same virtual time as the
// straight run and records a byte-identical, valid Chrome trace. The
// sharded row restores through the engine set's per-shard sections.
func TestSnapshotRestore(t *testing.T) {
	const size = 256 << 10 // rendezvous: TID/SDMA state in flight at mid
	for _, c := range []struct {
		name   string
		os     OSType
		shards int
	}{
		{"Linux", OSLinux, 1},
		{"McKernel", OSMcKernel, 1},
		{"McKernel+HFI1", OSMcKernelHFI, 1},
		{"McKernel+HFI1/shards=2", OSMcKernelHFI, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(rec *trace.Recorder) *Cluster {
				cl, err := New(Spec{Nodes: 2, OS: c.os, Params: model.Default(), Seed: 42,
					Synthetic: true, Shards: c.shards})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cl.Close)
				cl.SetRecorder(rec)
				startPairOn(t, cl, size)
				return cl
			}
			straightRec := trace.NewRecorder()
			straight := build(straightRec)
			if err := straight.Run(0); err != nil {
				t.Fatal(err)
			}
			total := straight.Now()
			mid := total / 2

			half := build(nil)
			if err := half.Run(mid); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := half.Machine().Snapshot(&snap); err != nil {
				t.Fatal(err)
			}

			rec := trace.NewRecorder()
			fresh := build(rec)
			now, err := snapshot.Restore(snap.Bytes(), fresh.Machine())
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
			if straightRec.SpanCount() == 0 {
				t.Fatal("straight run recorded no spans")
			}
			if !bytes.Equal(rec.ChromeTraceJSON(), straightRec.ChromeTraceJSON()) {
				t.Fatal("restored run's trace differs from the straight run's")
			}
			if _, _, err := trace.Validate(rec.ChromeTraceJSON()); err != nil {
				t.Fatalf("restored run's trace is not a loadable Chrome trace: %v", err)
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
	t.Cleanup(c.Close)
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
			defer c.Close()
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
