package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/snapshot"
)

// RegisterState adds a snapshot section encoder under label and returns
// the label actually used. When a simulation holds several instances of
// one layer (two fabrics, one NIC per node built through the same
// constructor), a taken label is deterministically suffixed — "fabric",
// "fabric#1", ... — so construction order, which is itself
// deterministic, names each instance stably across runs.
//
// Registration costs nothing on the hot path: encoders are only invoked
// by Snapshot.
func (e *Engine) RegisterState(label string, fn func(*snapshot.Enc)) string {
	base := label
	for n := 1; e.stateIndex(label) >= 0; n++ {
		label = fmt.Sprintf("%s#%d", base, n)
	}
	e.states = append(e.states, regState{label: label, fn: fn})
	return label
}

// UnregisterState removes the encoder registered under label (as
// returned by RegisterState). Layers with bounded lifetimes — a PSM
// endpoint closed mid-run — unregister so a snapshot taken afterwards
// matches one taken by a replay that also closed it.
func (e *Engine) UnregisterState(label string) {
	if i := e.stateIndex(label); i >= 0 {
		e.states = append(e.states[:i], e.states[i+1:]...)
	}
}

func (e *Engine) stateIndex(label string) int {
	for i, s := range e.states {
		if s.label == label {
			return i
		}
	}
	return -1
}

// Snapshot serializes the complete simulator state: the engine's own
// clock, sequence counter, RNG, processes and event heap, followed by
// every registered layer section sorted by label. It must be called
// from outside simulation context, between Run calls — typically after
// Run(t) paused the clock at t.
func (e *Engine) Snapshot(w io.Writer) error {
	f := &snapshot.File{Now: e.now, Seq: e.seq}
	e.appendSections(f, "")
	return snapshot.Encode(w, f)
}

// appendSections appends this engine's part of a snapshot to f: its own
// "engine" section, then every registered layer section sorted by
// label, each name behind prefix.
func (e *Engine) appendSections(f *snapshot.File, prefix string) {
	enc := snapshot.NewEnc()
	e.encodeEngineState(enc)
	f.Sections = append(f.Sections, snapshot.Section{Name: prefix + "engine", Payload: enc.Bytes()})

	sections := make([]snapshot.Section, 0, len(e.states))
	for _, s := range e.states {
		se := snapshot.NewEnc()
		s.fn(se)
		sections = append(sections, snapshot.Section{Name: prefix + s.label, Payload: se.Bytes()})
	}
	sort.Slice(sections, func(i, j int) bool { return sections[i].Name < sections[j].Name })
	f.Sections = append(f.Sections, sections...)
}

// encodeEngineState emits the engine's own mutable state. Process
// records are sorted by (name, state); heap events by their (at, seq)
// total order — both independent of map iteration and heap layout.
func (e *Engine) encodeEngineState(enc *snapshot.Enc) {
	st := e.rng.State()
	enc.Printf("rng=%016x,%016x,%016x,%016x\n", st[0], st[1], st[2], st[3])
	enc.Printf("live=%d procs=%d events=%d\n", e.live, len(e.procs), len(e.heap))

	procs := make([]string, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, fmt.Sprintf("proc name=%q state=%q daemon=%v\n", p.name, p.state, p.daemon))
	}
	sort.Strings(procs)
	enc.Printf("%s", strings.Join(procs, ""))

	events := make([]event, len(e.heap))
	copy(events, e.heap)
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].seq < events[j].seq
	})
	for _, ev := range events {
		switch ev.kind {
		case evProc:
			enc.Printf("event at=%d seq=%d resume=%q\n", int64(ev.at), ev.seq, ev.p.name)
		case evArg:
			if st, ok := ev.arg.(snapshot.Stater); ok {
				enc.Printf("event at=%d seq=%d arg=%T ", int64(ev.at), ev.seq, ev.arg)
				st.SnapshotState(enc)
				enc.Printf("\n")
			} else {
				enc.Printf("event at=%d seq=%d arg=%T\n", int64(ev.at), ev.seq, ev.arg)
			}
		default:
			// Plain closures (After callbacks, device completions) carry
			// no introspectable payload; their (at, seq) position is
			// still pinned, and replay verification covers their effects.
			enc.Printf("event at=%d seq=%d fn\n", int64(ev.at), ev.seq)
		}
	}
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

	enc := snapshot.NewEnc()
	enc.Printf("v=1 shards=%d lookahead=%d windows=%d crossevents=%d\n",
		len(s.shards), int64(s.lookahead), s.Windows, s.CrossEvents)
	for i, e := range s.shards {
		enc.Printf("shard i=%d now=%d seq=%d crossseq=%d\n",
			i, int64(e.now), e.seq, e.crossSeq)
	}
	f.Sections = append(f.Sections, snapshot.Section{Name: "shards", Payload: enc.Bytes()})

	for i, e := range s.shards {
		e.appendSections(f, fmt.Sprintf("shard%d/", i))
	}
	return snapshot.Encode(w, f)
}

var _ snapshot.Machine = (*ShardSet)(nil)
