package snapshot

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"
)

// FuzzDecode is the codec's robustness gate: Decode must never panic
// on arbitrary bytes, and any input it accepts must re-encode to the
// exact same image (Encode→Decode→Encode byte-stability). It is the
// comparator's gate too: Diff of an accepted image with itself reports
// nothing, and Diff of it against a one-byte mutation (checksum
// re-sealed, so the mutation decodes whenever its structure does) never
// panics — a mutated name byte can move a section into or out of a
// shard, which compares the image across layouts.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PICOSNAP"))
	f.Add(EncodeBytes(&File{}))
	f.Add(EncodeBytes(&File{
		Now: 1500 * time.Nanosecond,
		Seq: 42,
		Sections: []Section{
			{Name: "engine", Payload: []byte("now=1.5µs seq=42\n")},
			{Name: "fabric", Payload: []byte("ports=2\n")},
			{Name: "fabric#1", Payload: nil},
		},
	}))
	// Seed some near-valid corruptions so the corpus starts past the
	// magic check.
	valid := EncodeBytes(&File{Now: 7, Seq: 9, Sections: []Section{{Name: "s", Payload: []byte("x\n")}}})
	for i := 8; i < len(valid); i += 3 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Add(valid[:len(valid)-5])
	f.Add(EncodeBytes(stubImage(10, 0, "ticks=1\n", "sleeping")))
	f.Add(EncodeBytes(stubImage(10, 2, "ticks=1\n", "sleeping")))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data) // must not panic
		if err != nil {
			return
		}
		re := EncodeBytes(dec)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not re-encode stable:\n in  %x\n out %x", data, re)
		}
		if d := Diff(data, data); d != "" {
			t.Fatalf("Diff of an accepted image with itself: %s", d)
		}
		body := len(data) - sha256.Size
		for i := 0; i < body; i += max(1, body/16) {
			mut := append([]byte(nil), data[:body]...)
			mut[i] ^= 0x41
			sum := sha256.Sum256(mut)
			Diff(data, append(mut, sum[:]...))
		}
	})
}
