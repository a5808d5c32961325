package snapshot

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// TestGoldenHeader pins the versioned format header byte-for-byte. If
// this fails, the format changed: bump Version and keep a reader for
// the old one (or accept that old snapshot files die with a clear
// error), but never silently reinterpret bytes.
func TestGoldenHeader(t *testing.T) {
	f := &File{
		Now: 1500 * time.Nanosecond,
		Seq: 7,
		Sections: []Section{
			{Name: "engine", Payload: []byte("now=1.5µs\n")},
		},
	}
	got := EncodeBytes(f)
	// magic(8) + version=2 u32le + now=1500 i64le + seq=7 u64le
	wantHeader := "5049434f534e4150" + // "PICOSNAP"
		"02000000" +
		"dc05000000000000" +
		"0700000000000000"
	if h := hex.EncodeToString(got[:28]); h != wantHeader {
		t.Fatalf("header bytes changed:\n got  %s\n want %s", h, wantHeader)
	}
	// Section table: count=1, name len=6, "engine", payload len, payload.
	rest := got[28:]
	wantTable := append([]byte{1, 6}, []byte("engine")...)
	pay := []byte("now=1.5µs\n")
	wantTable = append(wantTable, byte(len(pay)))
	wantTable = append(wantTable, pay...)
	if !bytes.HasPrefix(rest, wantTable) {
		t.Fatalf("section table changed:\n got  %x\n want %x", rest[:len(wantTable)], wantTable)
	}
	if len(rest) != len(wantTable)+32 {
		t.Fatalf("expected exactly a 32-byte checksum after the table, file is %d bytes", len(got))
	}
}

// TestRoundTrip: Encode→Decode→Encode must be byte-stable and preserve
// every field, including empty payloads and an empty section list.
func TestRoundTrip(t *testing.T) {
	cases := []*File{
		{Now: 0, Seq: 0},
		{Now: time.Millisecond, Seq: 123, Sections: []Section{
			{Name: "engine", Payload: []byte("a=1\nb=2\n")},
			{Name: "fabric", Payload: nil},
			{Name: "fabric#1", Payload: []byte(strings.Repeat("x", 300))},
		}},
	}
	for i, f := range cases {
		b1 := EncodeBytes(f)
		dec, err := Decode(b1)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if dec.Now != f.Now || dec.Seq != f.Seq || len(dec.Sections) != len(f.Sections) {
			t.Fatalf("case %d: decoded %+v != %+v", i, dec, f)
		}
		for j, s := range f.Sections {
			if dec.Sections[j].Name != s.Name || !bytes.Equal(dec.Sections[j].Payload, s.Payload) {
				t.Fatalf("case %d: section %d mismatch", i, j)
			}
		}
		if b2 := EncodeBytes(dec); !bytes.Equal(b1, b2) {
			t.Fatalf("case %d: re-encode not byte-stable", i)
		}
	}
}

// TestDecodeRejects: malformed inputs must error, never panic, and a
// flipped bit anywhere must trip the checksum.
func TestDecodeRejects(t *testing.T) {
	good := EncodeBytes(&File{Now: time.Microsecond, Seq: 1, Sections: []Section{{Name: "s", Payload: []byte("p\n")}}})
	bad := [][]byte{
		nil,
		[]byte("PICO"),
		[]byte("NOTASNAP" + strings.Repeat("\x00", 40)),
		good[:len(good)-1], // truncated checksum
		good[:20],          // truncated header
		append(good, 0),    // trailing garbage
	}
	for i, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Fatalf("case %d: corrupted input decoded without error", i)
		}
	}
	for i := range good {
		flip := append([]byte(nil), good...)
		flip[i] ^= 0x01
		if _, err := Decode(flip); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
	// Unknown version must be rejected by name.
	vbad := append([]byte(nil), good...)
	vbad[8] = 99
	if _, err := Decode(vbad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: got %v", err)
	}
}

// stubMachine lets Restore and Bisect be tested without a simulator.
// Its state is its clock, one tick per nanosecond, plus skew once the
// clock reaches skewAt; its run ends at end (0: never). Its snapshot
// is a single engine's layout, or a shard set's of shards engines.
type stubMachine struct {
	now    time.Duration
	end    time.Duration
	skewAt time.Duration
	skew   int64 // injected divergence
	shards int
	fail   error
}

func (m *stubMachine) Now() time.Duration { return m.now }

func (m *stubMachine) Run(limit time.Duration) error {
	if m.fail != nil {
		return m.fail
	}
	if m.end > 0 && (limit == 0 || limit > m.end) {
		limit = m.end
	}
	m.now = max(m.now, limit)
	return nil
}

func (m *stubMachine) Snapshot(w io.Writer) error {
	ticks := int64(m.now)
	if m.skew != 0 && m.now >= m.skewAt {
		ticks += m.skew
	}
	return Encode(w, stubImage(m.now, m.shards, fmt.Sprintf("ticks=%d\n", ticks), "sleeping"))
}

// stubImage lays out a snapshot as a cluster does: two processes p and
// q, each due to resume 1 ns from now, on nodes 0 and 1. A single
// engine holds both; in a shard set shard i holds node i, and every
// shard repeats the engine and params sections, under shard prefixes
// that number its events per shard, beside the set's "shards" section.
// node1's section reads node1, p's process record state.
func stubImage(now time.Duration, shards int, node1, state string) *File {
	procs := []string{
		fmt.Sprintf("proc name=\"p\" state=%q daemon=false\n", state),
		"proc name=\"q\" state=\"sleeping\" daemon=false\n",
	}
	resume := func(seq int, name string) string {
		return fmt.Sprintf("event at=%d seq=%d resume=%q\n", int64(now+1), seq, name)
	}
	nodes := []Section{{Name: "node0/x", Payload: []byte("ticks=0\n")}, {Name: "node1/x", Payload: []byte(node1)}}
	params := Section{Name: "params", Payload: []byte("lookahead=1\n")}
	if shards == 0 {
		engine := fmt.Sprintf("events=2\n%s%s%s%s", procs[0], procs[1], resume(7, "p"), resume(8, "q"))
		return &File{Now: now, Seq: 8, Sections: append([]Section{{Name: "engine", Payload: []byte(engine)}}, append(nodes, params)...)}
	}
	f := &File{Now: now, Seq: 4, Sections: []Section{{Name: "shards", Payload: []byte(fmt.Sprintf("shards=%d\n", shards))}}}
	for i := 0; i < shards; i++ {
		prefix := fmt.Sprintf("shard%d/", i)
		engine := "events=0\n"
		if i < len(nodes) {
			engine = fmt.Sprintf("events=1\n%s%s", procs[i], resume(2+i, []string{"p", "q"}[i]))
		}
		f.Sections = append(f.Sections, Section{Name: prefix + "engine", Payload: []byte(engine)})
		if i < len(nodes) {
			f.Sections = append(f.Sections, Section{Name: prefix + nodes[i].Name, Payload: nodes[i].Payload})
		}
		f.Sections = append(f.Sections, Section{Name: prefix + params.Name, Payload: params.Payload})
	}
	return f
}

func TestRestore(t *testing.T) {
	// Straight run to t=50, snapshot.
	m := &stubMachine{}
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := m.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh machine: replays to 50 and verifies.
	m2 := &stubMachine{}
	at, err := Restore(snap.Bytes(), m2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if at != 50 || m2.now != 50 {
		t.Fatalf("restored machine at now=%v", m2.now)
	}

	// A machine that diverges during replay must be caught, and the
	// error must name the diverging section.
	m3 := &stubMachine{skew: 1}
	if _, err := Restore(snap.Bytes(), m3); err == nil {
		t.Fatal("diverging replay passed verification")
	} else if !strings.Contains(err.Error(), `"node1/x"`) {
		t.Fatalf("divergence error does not name the section: %v", err)
	}

	// A machine that was already run must be rejected.
	m4 := &stubMachine{}
	m4.Run(5)
	if _, err := Restore(snap.Bytes(), m4); err == nil {
		t.Fatal("restore into a non-fresh machine accepted")
	}

	// Replay errors propagate.
	m5 := &stubMachine{fail: fmt.Errorf("boom")}
	if _, err := Restore(snap.Bytes(), m5); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("replay error not propagated: %v", err)
	}
}

// TestDiff exercises the failure-message paths directly: a changed
// value names its path and both values, a path on one side only says
// which side, and header and section-set differences are named.
func TestDiff(t *testing.T) {
	img := func(payload string) []byte {
		return EncodeBytes(&File{Now: 10, Seq: 1, Sections: []Section{
			{Name: "w", Payload: []byte("a=1\n")},
			{Name: "x", Payload: []byte(payload)},
		}})
	}
	a := img("k=1\nm[\"a=b\"].v=2\nz=9\n")
	for _, c := range []struct {
		b    string
		want []string
	}{
		{"k=1\nm[\"a=b\"].v=3\nz=9\n", []string{`section "x"`, `m["a=b"].v`, "snapshot: 2", "replayed: 3"}},
		// A value that went to zero prints nothing on the replayed side.
		{"k=1\nz=9\n", []string{`section "x"`, `m["a=b"].v=2 only in snapshot`}},
		{"k=1\nm[\"a=b\"].v=2\nn=4\nz=9\n", []string{`n=4 only in replayed`}},
		{"k=1\nm[\"a=b\"].v=2\n", []string{`z=9 only in snapshot`}},
		{"k=1\nm[\"a=b\"].v=2\nz=9\ny=1\n", []string{`y=1 only in replayed`}},
	} {
		if d := Diff(a, img(c.b)); !containsAll(d, c.want) {
			t.Errorf("Diff against %q = %q, want it to contain %q", c.b, d, c.want)
		}
	}
	c := EncodeBytes(&File{Now: 11, Seq: 1})
	if d := Diff(a, c); !strings.Contains(d, "header") {
		t.Fatalf("header diff unhelpful: %s", d)
	}
	e := EncodeBytes(&File{Now: 10, Seq: 1, Sections: []Section{{Name: "y", Payload: []byte("k=1\n")}}})
	if d := Diff(a, e); !strings.Contains(d, "section sets differ") {
		t.Fatalf("section-set diff unhelpful: %s", d)
	}
	if d := Diff(a, a); d != "" {
		t.Fatalf("Diff of an image with itself = %q, want none", d)
	}

	// Across shard layouts, a name met once in each image is compared
	// whatever its shard prefix; repeated sections (engine, params) only
	// through the merged proc and resume records, and the shard set's
	// own section not at all.
	layout := func(shards int, node1, state string) []byte {
		return EncodeBytes(stubImage(10, shards, node1, state))
	}
	one := layout(0, "ticks=5\n", "sleeping")
	for _, c := range []struct {
		name string
		b    []byte
		want []string // nil: no difference
	}{
		{"two shards", layout(2, "ticks=5\n", "sleeping"), nil},
		{"three shards, one empty", layout(3, "ticks=5\n", "sleeping"), nil},
		{"node value", layout(2, "ticks=6\n", "sleeping"), []string{`section "node1/x"`, "ticks", "snapshot: 5", "replayed: 6"}},
		{"proc state", layout(2, "ticks=5\n", "running"), []string{mergedEngine, `"p"`, "sleeping", "running"}},
		{"missing node", EncodeBytes(&File{Now: 10, Sections: []Section{{Name: "shard0/node0/x"}, {Name: "shard1/engine"}}}),
			[]string{"section sets differ"}},
		{"clock", EncodeBytes(stubImage(11, 2, "ticks=5\n", "sleeping")), []string{"header", "now=10ns", "now=11ns"}},
	} {
		d := Diff(one, c.b)
		if c.want == nil && d != "" || c.want != nil && !containsAll(d, c.want) {
			t.Errorf("%s: Diff = %q, want %q", c.name, d, c.want)
		}
	}
	// The seq= fields differ between the layouts, and so do the engine
	// and params sections, which the merged view leaves out.
	if Diff(layout(2, "ticks=5\n", "sleeping"), layout(3, "ticks=5\n", "sleeping")) != "" {
		t.Error("two and three shards holding the same state differ")
	}
}

// TestBisect drives Bisect over stub machines: it must name the first
// differing nanosecond and list both sides' events due in it.
func TestBisect(t *testing.T) {
	side := func(m stubMachine) Builder {
		return func() (Machine, func(), error) {
			fresh := m
			return &fresh, func() {}, nil
		}
	}
	for _, c := range []struct {
		name     string
		a, b     stubMachine
		from, to time.Duration
		lo       time.Duration // -1: no divergence
		want     []string
	}{
		{"skew from 777", stubMachine{}, stubMachine{skewAt: 777, skew: 1}, 0, 1000, 776,
			[]string{"(776, 777] ns", `section "node1/x"`, "snapshot: 777", "replayed: 778"}},
		{"equal", stubMachine{}, stubMachine{}, 0, 1000, -1, nil},
		{"first step", stubMachine{}, stubMachine{skewAt: 1, skew: 1}, 0, 1000, 0, []string{"(0, 1] ns"}},
		{"from a later start", stubMachine{}, stubMachine{skewAt: 500, skew: 3}, 300, 1000, 499, []string{"(499, 500] ns"}},
		{"already differ at from", stubMachine{}, stubMachine{skewAt: 200, skew: 3}, 300, 1000, 300, []string{"already differ at 300 ns"}},
		{"to past the end", stubMachine{end: 400}, stubMachine{end: 400}, 0, 1 << 20, -1, nil},
		{"ends apart", stubMachine{end: 400}, stubMachine{end: 401}, 0, 1 << 20, 400, []string{"(400, 401] ns", "header"}},
		{"layouts, equal", stubMachine{}, stubMachine{shards: 2}, 0, 1000, -1, nil},
		{"layouts, skew from 613", stubMachine{}, stubMachine{shards: 2, skewAt: 613, skew: 1}, 0, 1000, 612,
			[]string{"(612, 613] ns", `section "node1/x"`,
				"snapshot (a):\n    engine: event at=613 seq=7 resume=\"p\"\n    engine: event at=613 seq=8 resume=\"q\"\n",
				"replayed (b):\n    shard0/engine: event at=613 seq=2 resume=\"p\"\n    shard1/engine: event at=613 seq=3 resume=\"q\"\n"}},
	} {
		d, err := Bisect(side(c.a), side(c.b), c.from, c.to)
		switch {
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.lo < 0 && d != nil:
			t.Errorf("%s: found a divergence in equal runs: %v", c.name, d)
		case c.lo < 0:
		case d == nil:
			t.Errorf("%s: no divergence found", c.name)
		case d.Lo != c.lo || !containsAll(d.String(), c.want):
			t.Errorf("%s: Bisect = %v (lo %v), want lo %v and %q", c.name, d, d.Lo, c.lo, c.want)
		}
	}

	// A side that fails to build or run is an error.
	broken := func() (Machine, func(), error) { return nil, nil, fmt.Errorf("no such cell") }
	if _, err := Bisect(side(stubMachine{}), broken, 0, 100); err == nil || !strings.Contains(err.Error(), "no such cell") {
		t.Errorf("unbuildable side b: %v", err)
	}
	if _, err := Bisect(side(stubMachine{fail: fmt.Errorf("boom")}), side(stubMachine{}), 0, 100); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failing side a: %v", err)
	}
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
