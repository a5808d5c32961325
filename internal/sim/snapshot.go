package sim

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/snapshot"
)

// RegisterState adds root, a pointer to one layer's state, as a snapshot
// section under label. The section
// is snapshot.Walk of root; a pointer to root met while walking any
// section of this engine prints as the label. When a simulation holds
// several instances of one layer (two fabrics, one NIC per node built
// through the same constructor), a taken label is deterministically
// suffixed — "fabric", "fabric#1", ... — so construction order, which
// is itself deterministic, names each instance stably across runs.
//
// Registration costs nothing on the hot path: roots are only walked by
// Snapshot and WalkState.
func (e *Engine) RegisterState(label string, root any) {
	base := label
	for n := 1; slices.ContainsFunc(e.states, func(s regState) bool { return s.label == label }); n++ {
		label = fmt.Sprintf("%s#%d", base, n)
	}
	e.states = append(e.states, regState{label: label, root: root})
}

// UnregisterState removes root's section. Layers with bounded lifetimes
// — a PSM endpoint closed mid-run — unregister so a snapshot taken
// afterwards matches one taken by a replay that also closed it.
func (e *Engine) UnregisterState(root any) {
	e.states = slices.DeleteFunc(e.states, func(s regState) bool { return s.root == root })
}

// Snapshot serializes the complete simulator state: the engine's own
// clock, sequence counter, RNG, processes and event heap, followed by
// every registered layer section sorted by label. It must be called
// from outside simulation context, between Run calls — typically after
// Run(t) paused the clock at t.
func (e *Engine) Snapshot(w io.Writer) error {
	f := &snapshot.File{Now: e.now, Seq: e.seq}
	if err := e.appendSections(f, ""); err != nil {
		return err
	}
	return snapshot.Encode(w, f)
}

// WalkState writes snapshot.Walk of v, naming this engine and its
// registered roots by label, as a snapshot section would print it.
func (e *Engine) WalkState(w io.Writer, v any) error {
	return snapshot.Walk(w, "", v, e.labels())
}

// labels names this engine and every registered root.
func (e *Engine) labels() *snapshot.Labels {
	var l snapshot.Labels
	l.Add("engine", e)
	for _, s := range e.states {
		l.Add(s.label, s.root)
	}
	return &l
}

// appendSections appends this engine's part of a snapshot to f: its own
// "engine" section, then every registered root's section sorted by
// label, each name behind prefix.
func (e *Engine) appendSections(f *snapshot.File, prefix string) error {
	labels := e.labels()
	var enc bytes.Buffer
	if err := e.encodeEngineState(&enc, labels); err != nil {
		return err
	}
	f.Sections = append(f.Sections, snapshot.Section{Name: prefix + "engine", Payload: enc.Bytes()})

	sections := make([]snapshot.Section, 0, len(e.states))
	for _, s := range e.states {
		var buf bytes.Buffer
		if err := snapshot.Walk(&buf, "", s.root, labels); err != nil {
			return fmt.Errorf("snapshot section %s%s: %w", prefix, s.label, err)
		}
		sections = append(sections, snapshot.Section{Name: prefix + s.label, Payload: buf.Bytes()})
	}
	sort.Slice(sections, func(i, j int) bool { return sections[i].Name < sections[j].Name })
	f.Sections = append(f.Sections, sections...)
	return nil
}

// encodeEngineState emits the engine's own mutable state. Process
// records are sorted by (name, state); heap events by their (at, seq)
// total order — both independent of map iteration and heap layout. An
// argument event's record is walked under "event[<seq>].", unless the
// argument is the engine or a registered root: its state is that
// section's, so the record names it as "event[<seq>]=<label>".
func (e *Engine) encodeEngineState(enc *bytes.Buffer, labels *snapshot.Labels) error {
	st := e.rng.State()
	fmt.Fprintf(enc, "rng=%016x,%016x,%016x,%016x\n", st[0], st[1], st[2], st[3])
	fmt.Fprintf(enc, "live=%d procs=%d events=%d\n", e.live, len(e.procs), len(e.heap))

	procs := make([]string, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, fmt.Sprintf("proc name=%q state=%q daemon=%v\n", p.name, p.state, p.daemon))
	}
	sort.Strings(procs)
	enc.WriteString(strings.Join(procs, ""))

	events := make([]event, len(e.heap))
	copy(events, e.heap)
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].seq < events[j].seq
	})
	for _, ev := range events {
		if ev.p != nil {
			fmt.Fprintf(enc, "event at=%d seq=%d resume=%q\n", int64(ev.at), ev.seq, ev.p.name)
			continue
		}
		fmt.Fprintf(enc, "event at=%d seq=%d arg=%T\n", int64(ev.at), ev.seq, ev.arg)
		if label, ok := labels.Of(ev.arg); ok {
			fmt.Fprintf(enc, "event[%d]=%s\n", ev.seq, label)
			continue
		}
		if err := snapshot.Walk(enc, fmt.Sprintf("event[%d].", ev.seq), ev.arg, labels); err != nil {
			return err
		}
	}
	return nil
}

var _ snapshot.Machine = (*Engine)(nil)

// Snapshot serializes a sharded simulation: a versioned "shards" meta
// section (shard count, lookahead, barrier counters, per-shard clocks
// and sequence counters), then each shard's full engine state with its
// sections prefixed "shard<i>/". The container format is the same as a
// single engine's, so Restore's replay-and-byte-verify protocol works
// unchanged; a Shards=1 cluster never reaches this path (it builds a
// standalone engine and keeps the unprefixed single-engine layout).
//
// Like Engine.Snapshot it must be called between Run calls, where the
// cross-shard buffer is empty (every window's barrier drains it), so
// per-shard heaps plus the meta section are the complete state.
func (s *ShardSet) Snapshot(w io.Writer) error {
	var seq uint64
	for _, e := range s.shards {
		seq += e.seq
	}
	f := &snapshot.File{Now: s.Now(), Seq: seq}

	var enc bytes.Buffer
	fmt.Fprintf(&enc, "v=1 shards=%d lookahead=%d windows=%d crossevents=%d\n",
		len(s.shards), int64(s.lookahead), s.Windows, s.CrossEvents)
	for i, e := range s.shards {
		fmt.Fprintf(&enc, "shard i=%d now=%d seq=%d crossseq=%d\n",
			i, int64(e.now), e.seq, e.crossSeq)
	}
	f.Sections = append(f.Sections, snapshot.Section{Name: "shards", Payload: enc.Bytes()})

	for i, e := range s.shards {
		if err := e.appendSections(f, fmt.Sprintf("shard%d/", i)); err != nil {
			return err
		}
	}
	return snapshot.Encode(w, f)
}

var _ snapshot.Machine = (*ShardSet)(nil)
