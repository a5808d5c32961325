package experiments

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/snapshot"
)

// Checkpoint records completed experiment artifacts in the snapshot
// container format — a "meta" section pinning the scale, seed and fault
// profile, then "artifact/<id>.txt" and "artifact/<id>.csv" sections
// per finished experiment. cmd/experiments -checkpoint uses it so a
// rerun of an interrupted -scale paper run re-emits finished
// experiments from the manifest instead of re-running them.
type Checkpoint struct {
	path string
	f    *snapshot.File
}

// LoadCheckpoint opens the manifest at path, or starts an empty one if
// no file exists there. It pins everything of cfg that moves a result —
// scale, seed and fault profile, not the pool or the shard count — and
// a manifest recorded under a different pin is rejected.
func LoadCheckpoint(path string, cfg Config) (*Checkpoint, error) {
	meta := fmt.Sprintf("scale=%s seed=%d faults=%+v", cfg.Scale.Name, cfg.Scale.Seed, cfg.Faults)
	c := &Checkpoint{path: path, f: &snapshot.File{
		Sections: []snapshot.Section{{Name: "meta", Payload: []byte(meta)}},
	}}
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
