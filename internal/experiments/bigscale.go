// The bigscale experiment measures the sharded engine: one large
// mini-app job, same seed, executed once per shard count. Every run
// must be digest-identical — the sharded engine is an execution
// strategy, not a model change — so each row carries a digest over the
// simulation's observable outcome and the sweep fails if any two rows
// disagree. The speedup column is host wall-clock relative to the
// Shards=1 row.
package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cluster"
	"repro/internal/miniapps"
	"repro/internal/mpi"
	"repro/internal/snapshot"
)

// BigscaleRow is one shard count of the bigscale sweep.
type BigscaleRow struct {
	Shards int
	// Wall is host wall-clock for the simulation run (cluster
	// construction excluded). The only non-deterministic column.
	Wall time.Duration
	// Virt is the cluster's final virtual time.
	Virt time.Duration
	// Elapsed is the job's body time (max over ranks).
	Elapsed time.Duration
	// Digest folds the run's observable outcome (virtual times, rank
	// distribution, fabric traffic totals); all rows must agree.
	Digest uint64
	// Ties counts simultaneity ties (see fabric.Ties); zero certifies
	// shard-count independence structurally, not just empirically.
	Ties uint64
	// Windows/Cross are the shard barrier iteration and cross-shard
	// event counts (zero on the Shards=1 row).
	Windows, Cross uint64
	// Speedup is Wall(Shards=1) / Wall.
	Speedup float64
}

// Bigscale runs appName at the given size once per entry of shards,
// all from one seed, and returns the per-shard-count measurements. It
// fails if any run's digest differs from the first row's: a sweep that
// returns is proof of shard-count independence for this workload.
func Bigscale(cfg Config, appName string, nodes, rpn int, shards []int) ([]BigscaleRow, error) {
	app, err := miniapps.ByName(appName)
	if err != nil {
		return nil, err
	}
	if rpn <= 0 {
		rpn = app.RanksPerNode
	}
	// The rows are one cell at each shard count: one id, one seed.
	cfg.cell = fmt.Sprintf("bigscale/%s/%dn", appName, nodes)
	rows := make([]BigscaleRow, 0, len(shards))
	for _, s := range shards {
		c := cfg
		c.Shards = s
		row, err := bigscaleRow(c, app, nodes, rpn)
		if err != nil {
			return nil, fmt.Errorf("bigscale: shards=%d: %w", s, err)
		}
		if len(rows) > 0 {
			if want := rows[0].Digest; row.Digest != want {
				return nil, fmt.Errorf(
					"bigscale: shards=%d diverged: digest %016x != %016x at shards=%d (virt %v vs %v)\n%s",
					s, row.Digest, want, rows[0].Shards, row.Virt, rows[0].Virt,
					firstDivergence(cfg, app, nodes, rpn, shards[0], s, max(row.Virt, rows[0].Virt)))
			}
			row.Speedup = float64(rows[0].Wall) / float64(row.Wall)
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// bigscaleJob builds one shard count's cluster and starts the job on
// it; the engine has not run yet.
func bigscaleJob(cfg Config, app *miniapps.App, nodes, rpn int) (*cluster.Cluster, *mpi.JobHandle, error) {
	cl, err := cfg.cluster(cluster.Spec{Nodes: nodes, OS: cluster.OSMcKernelHFI, Synthetic: true})
	if err != nil {
		return nil, nil, err
	}
	h := mpi.StartJob(cl, mpi.JobSpec{
		Placement: cluster.Blocks(nodes, rpn),
		Body:      func(co *mpi.Comm) error { return app.Body(co, app) },
	})
	return cl, h, nil
}

// bigscaleRow builds, runs, measures and closes one shard count's
// cluster, so the next row is built with the last one already freed.
func bigscaleRow(cfg Config, app *miniapps.App, nodes, rpn int) (BigscaleRow, error) {
	cl, job, err := bigscaleJob(cfg, app, nodes, rpn)
	if err != nil {
		return BigscaleRow{}, err
	}
	defer cl.Close()
	// The wall column compares rows run back to back in one process, so
	// each row starts from a collected heap: the previous row's cluster is
	// closed, but its garbage is not yet collected, and collecting it
	// inside this row's timed run would charge this row for it.
	runtime.GC()
	debug.FreeOSMemory()
	start := time.Now()
	if err := cl.Run(0); err != nil {
		return BigscaleRow{}, err
	}
	res, err := job.Result()
	if err != nil {
		return BigscaleRow{}, err
	}
	row := BigscaleRow{
		Shards:  cl.Shards(),
		Wall:    time.Since(start),
		Virt:    cl.Now(),
		Elapsed: res.Elapsed,
		Digest:  bigscaleDigest(cl, res),
		Ties:    cl.Ties(),
	}
	if cl.Set != nil {
		row.Windows, row.Cross = cl.Set.Windows, cl.Set.CrossEvents
	}
	return row, nil
}

// firstDivergence bisects the run at the sweep's first shard count
// (Diff's "snapshot" side) against the run at shards (its "replayed"
// side) over [0, to] and renders where their snapshots first differ.
func firstDivergence(cfg Config, app *miniapps.App, nodes, rpn, first, shards int, to time.Duration) string {
	side := func(s int) snapshot.Builder {
		return func() (snapshot.Machine, func(), error) {
			c := cfg
			c.Shards = s
			cl, _, err := bigscaleJob(c, app, nodes, rpn)
			if err != nil {
				return nil, nil, err
			}
			return cl.Machine(), cl.Close, nil
		}
	}
	d, err := snapshot.Bisect(side(first), side(shards), 0, to)
	switch {
	case err != nil:
		return err.Error()
	case d == nil:
		return fmt.Sprintf("bisect: the snapshots at shards=%d and shards=%d are equal at every step to %v", first, shards, to)
	}
	return fmt.Sprintf("bisect of shards=%d (snapshot) against shards=%d (replayed): %v", first, shards, d)
}

// bigscaleDigest hashes the run outcome a shard count must not change:
// final virtual time, the job's elapsed/wall virtual times, the
// per-rank body-time distribution, and total fabric traffic.
func bigscaleDigest(cl *cluster.Cluster, res *mpi.JobResult) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(cl.Now()))
	word(uint64(res.Elapsed))
	word(uint64(res.WallTime))
	word(uint64(res.RankElapsed.P50()))
	word(uint64(res.RankElapsed.P99()))
	word(uint64(res.Ranks))
	// Traffic totals are summed over the per-shard fabric instances:
	// the aggregate is partition-independent, per-instance subtotals
	// are not.
	var bytes, pkts uint64
	for _, f := range cl.Fabrics() {
		b, p := f.TxTotals()
		bytes += b
		pkts += p
	}
	word(bytes)
	word(pkts)
	return h.Sum64()
}
