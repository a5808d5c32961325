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

// stubMachine lets Restore be tested without a simulator: state is a
// counter that Run advances one tick per nanosecond.
type stubMachine struct {
	now   time.Duration
	ticks int64
	skew  int64 // injected divergence
	fail  error
}

func (m *stubMachine) Now() time.Duration { return m.now }

func (m *stubMachine) Run(limit time.Duration) error {
	if m.fail != nil {
		return m.fail
	}
	if limit == 0 {
		limit = m.now + 10
	}
	m.ticks += int64(limit-m.now) + m.skew
	m.now = limit
	return nil
}

func (m *stubMachine) Snapshot(w io.Writer) error {
	payload := fmt.Sprintf("ticks=%d\n", m.ticks)
	return Encode(w, &File{Now: m.now, Sections: []Section{{Name: "stub", Payload: []byte(payload)}}})
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
	if at != 50 || m2.now != 50 || m2.ticks != 50 {
		t.Fatalf("restored machine at now=%v ticks=%d", m2.now, m2.ticks)
	}

	// A machine that diverges during replay must be caught, and the
	// error must name the diverging section.
	m3 := &stubMachine{skew: 1}
	if _, err := Restore(snap.Bytes(), m3); err == nil {
		t.Fatal("diverging replay passed verification")
	} else if !strings.Contains(err.Error(), `"stub"`) {
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
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
