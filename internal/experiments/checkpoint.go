package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Experiment-level checkpointing: a resumable artifact manifest.
// ---------------------------------------------------------------------

// Checkpoint records completed experiment artifacts in the snapshot
// container format — a "meta" section pinning the scale, seed and fault
// profile, then "artifact/<id>.txt" and "artifact/<id>.csv" sections
// per finished experiment. cmd/experiments -checkpoint/-resume use it
// so an interrupted -scale paper run re-emits finished experiments from
// the manifest instead of re-running them.
type Checkpoint struct {
	path string
	f    *snapshot.File
}

// LoadCheckpoint opens (resume=true) or starts (resume=false) the
// manifest at path. It pins everything of cfg that moves a result —
// scale, seed and fault profile, not the pool or the shard count — and
// a resumed manifest recorded under a different pin is rejected.
func LoadCheckpoint(path string, cfg Config, resume bool) (*Checkpoint, error) {
	meta := fmt.Sprintf("scale=%s seed=%d faults=%+v", cfg.Scale.Name, cfg.Scale.Seed, cfg.Faults)
	c := &Checkpoint{path: path, f: &snapshot.File{
		Sections: []snapshot.Section{{Name: "meta", Payload: []byte(meta)}},
	}}
	if !resume {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	f, err := snapshot.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	m := f.Section("meta")
	if !bytes.Equal(m, []byte(meta)) {
		return nil, fmt.Errorf("checkpoint %s was recorded under %q, this run is %q", path, m, meta)
	}
	c.f = f
	return c, nil
}

// Has reports whether experiment id's artifact is already recorded.
func (c *Checkpoint) Has(id string) bool {
	return c.f.Section("artifact/"+id+".txt") != nil
}

// Artifact returns the recorded text and CSV of experiment id ("" CSV
// if none was recorded).
func (c *Checkpoint) Artifact(id string) (text, csv string) {
	return string(c.f.Section("artifact/" + id + ".txt")),
		string(c.f.Section("artifact/" + id + ".csv"))
}

// Record adds experiment id's artifacts and rewrites the manifest
// atomically (temp file + rename), so a kill mid-write never corrupts
// a resumable manifest.
func (c *Checkpoint) Record(id, text, csv string) error {
	c.f.Sections = append(c.f.Sections,
		snapshot.Section{Name: "artifact/" + id + ".txt", Payload: []byte(text)})
	if csv != "" {
		c.f.Sections = append(c.f.Sections,
			snapshot.Section{Name: "artifact/" + id + ".csv", Payload: []byte(csv)})
	}
	c.f.Seq++
	data := snapshot.EncodeBytes(c.f)
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// ---------------------------------------------------------------------
// Engine-level checkpointing: one Figure 4 cell, stopped mid-flight.
// ---------------------------------------------------------------------

// PingPongCell is the rendered observable of one Figure 4 ping-pong
// cell: the statistics the artifact tables are built from. A resumed
// cell must reproduce them exactly.
type PingPongCell struct {
	Mean     time.Duration
	P50, P99 time.Duration
}

func (c PingPongCell) String() string {
	return fmt.Sprintf("mean=%v p50=%v p99=%v", c.Mean, c.P50, c.P99)
}

// pingPongSeed derives the same per-cell seed Fig4 uses, so a
// checkpointed cell is the cell from the artifact sweep.
func pingPongSeed(cfg Config, os cluster.OSType, size uint64) int64 {
	return runner.DeriveSeed(cfg.Scale.Seed, cellID(fig4Key(size), os))
}

// observable runs the built cell to completion and renders its result.
func (c *ppCell) observable() (PingPongCell, error) {
	r, err := c.finish()
	if err != nil {
		return PingPongCell{}, err
	}
	return PingPongCell{Mean: r.mean, P50: r.hist.P50(), P99: r.hist.P99()}, nil
}

// PingPongStraight runs one Figure 4 cell start-to-finish, recording
// spans into rec (nil = untraced).
func PingPongStraight(cfg Config, os cluster.OSType, size uint64, rec *trace.Recorder) (PingPongCell, error) {
	c, err := fig4Cell(cfg, os, size, pingPongSeed(cfg, os, size), rec)
	if err != nil {
		return PingPongCell{}, err
	}
	defer c.cl.Close()
	return c.observable()
}

// PingPongCheckpoint runs the same cell but abandons it halfway: the
// engine pauses at half the cell's straight-through virtual time and
// the complete simulator state is written to w. Returns the
// checkpoint's virtual time.
func PingPongCheckpoint(cfg Config, os cluster.OSType, size uint64, w io.Writer) (time.Duration, error) {
	seed := pingPongSeed(cfg, os, size)
	end, err := pingPongEnd(cfg, os, size, seed)
	if err != nil {
		return 0, err
	}
	mid := end / 2

	c, err := fig4Cell(cfg, os, size, seed, nil)
	if err != nil {
		return 0, err
	}
	defer c.cl.Close() // abandoned at mid: its ranks are parked mid-exchange
	if err := c.cl.Run(mid); err != nil {
		return 0, err
	}
	if err := c.cl.Machine().Snapshot(w); err != nil {
		return 0, err
	}
	return mid, nil
}

// pingPongEnd runs the cell once, untraced, to learn its total virtual
// time.
func pingPongEnd(cfg Config, os cluster.OSType, size uint64, seed int64) (time.Duration, error) {
	probe, err := fig4Cell(cfg, os, size, seed, nil)
	if err != nil {
		return 0, err
	}
	defer probe.cl.Close()
	if _, err := probe.finish(); err != nil {
		return 0, err
	}
	return probe.cl.Now(), nil
}

// PingPongResume rebuilds the cell, fast-forwards it through the
// snapshot image — snapshot.Restore replays to the checkpoint and
// byte-verifies the re-encoded state against img — and finishes the
// run. The result must match PingPongStraight's exactly.
func PingPongResume(cfg Config, os cluster.OSType, size uint64, img []byte, rec *trace.Recorder) (PingPongCell, error) {
	c, err := fig4Cell(cfg, os, size, pingPongSeed(cfg, os, size), rec)
	if err != nil {
		return PingPongCell{}, err
	}
	defer c.cl.Close()
	if _, err := snapshot.Restore(img, c.cl.Machine()); err != nil {
		return PingPongCell{}, fmt.Errorf("restore: %w", err)
	}
	return c.observable()
}

// PingPongBisect steps the straight cell (snapshot.Bisect's side a) and
// the cell resumed from img (side b) in lockstep from the checkpoint's
// virtual time to the end of the run and returns where their snapshots
// first differ, or nil if they never do.
func PingPongBisect(cfg Config, os cluster.OSType, size uint64, img []byte) (*snapshot.Divergence, error) {
	f, err := snapshot.Decode(img)
	if err != nil {
		return nil, err
	}
	seed := pingPongSeed(cfg, os, size)
	end, err := pingPongEnd(cfg, os, size, seed)
	if err != nil {
		return nil, err
	}
	straight := func() (snapshot.Machine, func(), error) {
		c, err := fig4Cell(cfg, os, size, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		return c.cl.Machine(), c.cl.Close, nil
	}
	resumed := func() (snapshot.Machine, func(), error) {
		m, done, err := straight()
		if err != nil {
			return nil, nil, err
		}
		if _, err := snapshot.Restore(img, m); err != nil {
			done()
			return nil, nil, fmt.Errorf("restore: %w", err)
		}
		return m, done, nil
	}
	return snapshot.Bisect(straight, resumed, f.Now, end)
}
