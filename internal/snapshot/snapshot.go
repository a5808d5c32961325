// Package snapshot implements explicit, versioned serialization of the
// complete simulator state, and checkpoint/restore on top of it.
//
// A snapshot is a container file: a fixed header (magic, format
// version, the virtual time and engine sequence counter at capture)
// followed by named sections, one per state owner — the engine itself
// plus every root registered on it (fabric, NIC, kernels, PSM
// endpoints, verbs HCAs, physical memory, ...) — and a trailing SHA-256
// over the whole image. No layer writes its own section: Walk renders
// each root from its types as deterministic "path=value" lines (sorted
// map keys, no pointer values, no wall-clock time), so a field added to
// a layer is saved unless it is tagged, and two captures of identical
// simulator states are byte-identical. That byte identity is the
// correctness currency of the whole design.
//
// Restore is replay-based: a simulated process is a coroutine whose
// stack Go cannot serialize, so a snapshot cannot be decoded into live
// process continuations. Instead the caller rebuilds
// the simulation exactly as the original run did (same constructors, same
// seed, same workload processes) and Restore re-executes it to the
// snapshot's virtual time — cheap, since the expensive parts of a
// debugging run (tracing, invariant checking) stay off during replay —
// then re-serializes the rebuilt state and byte-compares it against
// the snapshot. Any divergence fails loudly, naming the first field
// that differs. Determinism is already pinned by simtest replay
// digests, which is what makes this verification exact rather than
// probabilistic: a restored run is not "similar to" the original, it
// is the original, and the byte comparison proves it.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"
	"time"
)

// Magic identifies a snapshot file; Version is the format revision.
// Both are pinned by a golden-file test: readers reject unknown
// versions instead of guessing.
const (
	Magic   = "PICOSNAP"
	Version = 2
)

// maxSections bounds the section table so a corrupted count cannot
// drive allocation. Real snapshots carry a few sections per node.
const maxSections = 1 << 20

// Section is one named state payload.
type Section struct {
	Name    string
	Payload []byte
}

// File is a decoded snapshot.
type File struct {
	Version uint32
	// Now is the virtual clock at capture; Seq the engine's event
	// sequence counter. Together they name the exact replay position.
	Now      time.Duration
	Seq      uint64
	Sections []Section
}

// Section returns the named section's payload, or nil.
func (f *File) Section(name string) []byte {
	for _, s := range f.Sections {
		if s.Name == name {
			return s.Payload
		}
	}
	return nil
}

// Encode writes f in the versioned container format, in one Write of
// EncodeBytes(f). Encoding is deterministic: identical Files serialize
// to identical bytes.
func Encode(w io.Writer, f *File) error {
	_, err := w.Write(EncodeBytes(f))
	return err
}

// EncodeBytes returns f's image. Every length is known before the first
// byte is written, so the image is one slice of exactly its size, and
// that slice is the only allocation.
func EncodeBytes(f *File) []byte {
	n := len(Magic) + 4 + 8 + 8 + uvarintLen(uint64(len(f.Sections))) + sha256.Size
	for _, s := range f.Sections {
		n += uvarintLen(uint64(len(s.Name))) + len(s.Name) + uvarintLen(uint64(len(s.Payload))) + len(s.Payload)
	}
	b := make([]byte, 0, n)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Now))
	b = binary.LittleEndian.AppendUint64(b, f.Seq)
	b = binary.AppendUvarint(b, uint64(len(f.Sections)))
	for _, s := range f.Sections {
		b = binary.AppendUvarint(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = binary.AppendUvarint(b, uint64(len(s.Payload)))
		b = append(b, s.Payload...)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// uvarintLen is the length of v's binary.AppendUvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Decode parses a snapshot image. It never panics: corrupted or
// truncated input returns an error. The trailing checksum must match.
func Decode(data []byte) (*File, error) {
	r := reader{data: data}
	magic, err := r.bytes(len(Magic))
	if err != nil || string(magic) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	verb, err := r.bytes(4)
	if err != nil {
		return nil, fmt.Errorf("snapshot: truncated header")
	}
	ver := binary.LittleEndian.Uint32(verb)
	if ver != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads version %d", ver, Version)
	}
	nowb, err := r.bytes(8)
	if err != nil {
		return nil, fmt.Errorf("snapshot: truncated header")
	}
	seqb, err := r.bytes(8)
	if err != nil {
		return nil, fmt.Errorf("snapshot: truncated header")
	}
	f := &File{
		Version: ver,
		Now:     time.Duration(binary.LittleEndian.Uint64(nowb)),
		Seq:     binary.LittleEndian.Uint64(seqb),
	}
	if f.Now < 0 {
		return nil, fmt.Errorf("snapshot: negative virtual time %d", f.Now)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("snapshot: section count: %w", err)
	}
	if n > maxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		nameLen, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %d name length: %w", i, err)
		}
		name, err := r.bytesU64(nameLen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %d name: %w", i, err)
		}
		payLen, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %q payload length: %w", name, err)
		}
		payload, err := r.bytesU64(payLen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %q payload: %w", name, err)
		}
		f.Sections = append(f.Sections, Section{Name: string(name), Payload: append([]byte(nil), payload...)})
	}
	body := data[:r.pos]
	sum, err := r.bytes(sha256.Size)
	if err != nil {
		return nil, fmt.Errorf("snapshot: truncated checksum")
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after checksum", len(data)-r.pos)
	}
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file corrupted)")
	}
	return f, nil
}

// reader is a bounds-checked cursor over the input.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("need %d bytes, %d remain", n, len(r.data)-r.pos)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) bytesU64(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.pos) {
		return nil, fmt.Errorf("need %d bytes, %d remain", n, len(r.data)-r.pos)
	}
	return r.bytes(int(n))
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint")
	}
	r.pos += n
	return v, nil
}

// Machine is the surface Restore drives; *sim.Engine implements it.
type Machine interface {
	Now() time.Duration
	Run(limit time.Duration) error
	Snapshot(w io.Writer) error
}

// Restore re-executes a freshly built simulation to the snapshot's
// virtual time and verifies, byte for byte, that the rebuilt state
// matches the snapshot. The caller must have reconstructed the
// simulation exactly as the original run did (same constructors, same
// seed, same processes) and not run it yet. On success the machine is
// positioned at the snapshot point and ready to continue (typically
// with Run(0)); the returned time is the snapshot's virtual time.
func Restore(data []byte, m Machine) (time.Duration, error) {
	f, err := Decode(data)
	if err != nil {
		return 0, err
	}
	if now := m.Now(); now > 0 {
		return 0, fmt.Errorf("snapshot: machine already at %v; restore needs a freshly built simulation", now)
	}
	if f.Now > 0 {
		// Run(0) means run-to-completion, so a t=0 snapshot skips replay.
		if err := m.Run(f.Now); err != nil {
			return 0, fmt.Errorf("snapshot: replay to %v failed: %w", f.Now, err)
		}
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		return 0, fmt.Errorf("snapshot: re-serializing replayed state: %w", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		return 0, fmt.Errorf("snapshot: replayed state diverges from snapshot at %v:\n%s",
			f.Now, Diff(data, buf.Bytes()))
	}
	return f.Now, nil
}

// Diff names the first difference between two snapshot images — the
// diverging section, the first path whose value differs and both
// values — for restore failure messages and Bisect reports, or returns
// "" when the images hold the same state. Its "snapshot" side is a and
// its "replayed" side b. A path present in one image only (a value that
// went from zero to non-zero prints nothing on the zero side) is named
// as such.
//
// Images of one shard layout are compared section by section, headers
// included. Images of two layouts (a single engine against a shard
// set, or two shard counts) are compared by what the layout does not
// move; see views.
func Diff(a, b []byte) string {
	fa, ea := Decode(a)
	fb, eb := Decode(b)
	if ea != nil || eb != nil {
		return fmt.Sprintf("undecodable image(s): %v / %v", ea, eb)
	}
	same := shardsOf(fa) == shardsOf(fb)
	if fa.Now != fb.Now || same && fa.Seq != fb.Seq {
		return fmt.Sprintf("header: now=%v seq=%d vs now=%v seq=%d", fa.Now, fa.Seq, fb.Now, fb.Seq)
	}
	sa, sb := fa.Sections, fb.Sections
	if !same {
		sa, sb = views(fa, fb)
	}
	an := sectionNames(sa)
	bn := sectionNames(sb)
	if an != bn {
		return fmt.Sprintf("section sets differ:\n  a: %s\n  b: %s", an, bn)
	}
	// split cuts a "path=value" line at its first "=" outside a quoted
	// map key; a line without one is all path.
	split := func(l []byte) (path, value []byte) {
		quoted := false
		for i := 0; i < len(l); i++ {
			switch c := l[i]; {
			case c == '\\' && quoted:
				i++
			case c == '"':
				quoted = !quoted
			case c == '=' && !quoted:
				return l[:i], l[i+1:]
			}
		}
		return l, nil
	}
	has := func(lines [][]byte, path []byte) bool {
		for _, l := range lines {
			if p, _ := split(l); bytes.Equal(p, path) {
				return true
			}
		}
		return false
	}
	for i := range sa {
		name, pa, pb := sa[i].Name, sa[i].Payload, sb[i].Payload
		if bytes.Equal(pa, pb) {
			continue
		}
		la, lb := lines(pa), lines(pb)
		j := 0
		for j < len(la) && j < len(lb) && bytes.Equal(la[j], lb[j]) {
			j++
		}
		switch {
		case j == len(lb):
			return fmt.Sprintf("section %q: %s only in snapshot", name, la[j])
		case j == len(la):
			return fmt.Sprintf("section %q: %s only in replayed", name, lb[j])
		}
		patha, va := split(la[j])
		pathb, vb := split(lb[j])
		switch {
		case bytes.Equal(patha, pathb):
			return fmt.Sprintf("section %q: %s:\n  snapshot: %s\n  replayed: %s", name, patha, va, vb)
		case !has(lb[j:], patha):
			return fmt.Sprintf("section %q: %s only in snapshot", name, la[j])
		case !has(la[j:], pathb):
			return fmt.Sprintf("section %q: %s only in replayed", name, lb[j])
		}
		return fmt.Sprintf("section %q line %d:\n  snapshot: %s\n  replayed: %s", name, j+1, la[j], lb[j])
	}
	return ""
}

// lines splits a section payload into its lines.
func lines(payload []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(payload, []byte("\n")), []byte("\n"))
}

func sectionNames(secs []Section) string {
	var buf bytes.Buffer
	for i, s := range secs {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(s.Name)
	}
	return buf.String()
}

// cutShard splits a "shard<i>/" prefix off a section name. The prefix
// says which engine of a shard set holds the section, not what the
// section is.
func cutShard(name string) (shard, rest string, ok bool) {
	i := len("shard")
	if !strings.HasPrefix(name, "shard") {
		return "", name, false
	}
	j := i
	for j < len(name) && '0' <= name[j] && name[j] <= '9' {
		j++
	}
	if j == i || j == len(name) || name[j] != '/' {
		return "", name, false
	}
	return name[:j], name[j+1:], true
}

// shardsOf counts the shard prefixes in f: 0 for a single engine's
// image, N for a shard set of N.
func shardsOf(f *File) int {
	seen := map[string]bool{}
	for _, s := range f.Sections {
		if shard, _, ok := cutShard(s.Name); ok {
			seen[shard] = true
		}
	}
	return len(seen)
}

// mergedEngine names the view Diff compares engine state by across
// shard layouts.
const mergedEngine = "engine (proc and resume records, every shard)"

// views returns the sections two images of different shard layouts are
// compared by, in the same name order on both sides:
//
//   - every section whose name, shard prefix dropped, occurs exactly
//     once in each image (node3/hfi, psm/rank7, ...), under that name;
//   - one mergedEngine view: the proc records and the process-resume
//     event records of every engine section, seq= dropped, sorted. A
//     process lives on one engine and its records name it, so the view
//     does not depend on which engine that is.
//
// Sections that repeat per shard (engine, params, fabric, fabric#1) are
// compared only through that view, and a shard set's own sections (no
// shard prefix: "shards") not at all. A name that occurs once in one
// image and not in the other makes the section sets differ.
func views(fa, fb *File) (va, vb []Section) {
	sa, na, ma := placed(fa)
	sb, nb, mb := placed(fb)
	pick := func(secs []Section, n, other map[string]int, merged []byte) []Section {
		var out []Section
		for _, s := range secs {
			if n[s.Name] == 1 && other[s.Name] <= 1 {
				out = append(out, s)
			}
		}
		slices.SortFunc(out, func(x, y Section) int { return strings.Compare(x.Name, y.Name) })
		return append(out, Section{Name: mergedEngine, Payload: merged})
	}
	return pick(sa, na, nb, ma), pick(sb, nb, na, mb)
}

// placed returns f's sections with their shard prefixes dropped (a
// shard set's own sections left out), how often each name occurs, and
// f's merged engine records.
func placed(f *File) (secs []Section, n map[string]int, merged []byte) {
	sharded := shardsOf(f) > 0
	n = map[string]int{}
	var recs [][]byte
	for _, s := range f.Sections {
		_, name, ok := cutShard(s.Name)
		if sharded && !ok {
			continue
		}
		secs = append(secs, Section{Name: name, Payload: s.Payload})
		n[name]++
		if name != "engine" {
			continue
		}
		for _, l := range lines(s.Payload) {
			switch {
			case bytes.HasPrefix(l, []byte("proc ")):
				recs = append(recs, l)
			case bytes.HasPrefix(l, []byte("event ")) && bytes.Contains(l, []byte(" resume=")):
				recs = append(recs, dropSeq(l))
			}
		}
	}
	slices.SortFunc(recs, bytes.Compare)
	for _, r := range recs {
		merged = append(append(merged, r...), '\n')
	}
	return secs, n, merged
}

// dropSeq removes the " seq=<n>" field from an event record: sequence
// numbers count one engine's events, so they differ between layouts.
func dropSeq(l []byte) []byte {
	i := bytes.Index(l, []byte(" seq="))
	if i < 0 {
		return l
	}
	j := i + 1
	for j < len(l) && l[j] != ' ' {
		j++
	}
	return append(append([]byte(nil), l[:i]...), l[j:]...)
}
