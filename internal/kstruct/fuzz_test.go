package kstruct

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/vas"
)

func fuzzSpace(t *testing.T) *kmemSpace {
	t.Helper()
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 8 << 20, Kind: mem.DDR4, Owner: "k"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSpace("k", vas.LinuxLayout(), pm.Partition("k"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzScalarRoundTrip fuzzes field extraction through simulated kernel
// memory: any scalar field shape the validator accepts must store and
// load every element with the kind's exact width (no sign extension,
// no neighbor clobbering).
func FuzzScalarRoundTrip(f *testing.F) {
	f.Add(uint16(40), uint8(4), uint8(1), uint64(7))                 // Listing 1's current_state
	f.Add(uint16(48), uint8(2), uint8(1), uint64(1))                 // go_s99_running
	f.Add(uint16(160), uint8(2), uint8(16), uint64(0xdeadbeef))      // sde_irqs array
	f.Add(uint16(0), uint8(5), uint8(1), uint64(0xffff880000001000)) // pointer
	f.Add(uint16(3), uint8(0), uint8(4), uint64(0x1122334455667788)) // unaligned u8 array
	f.Fuzz(func(t *testing.T, off uint16, kind uint8, count uint8, value uint64) {
		fld := Field{Name: "f", Offset: uint64(off), Kind: Kind(kind % 6), Count: uint64(count)}
		guard := Field{Name: "guard", Offset: uint64(off) + fld.Size(), Kind: U64}
		l := &Layout{
			Name:     "fz",
			ByteSize: guard.Offset + guard.Size() + 16,
			Fields:   []Field{fld, guard},
		}
		if err := l.Validate(); err != nil {
			return
		}
		s := fuzzSpace(t)
		obj, err := New(s.Space, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		const sentinel = 0xa5a5a5a5a5a5a5a5
		if err := obj.SetU("guard", sentinel); err != nil {
			t.Fatal(err)
		}
		n := int(fld.Count)
		if n == 0 {
			n = 1
		}
		for e := 0; e < n; e++ {
			if err := obj.SetUAt("f", e, value+uint64(e)); err != nil {
				t.Fatalf("set elem %d: %v", e, err)
			}
		}
		width := fld.Kind.Size() * 8
		for e := 0; e < n; e++ {
			got, err := obj.GetUAt("f", e)
			if err != nil {
				t.Fatalf("get elem %d: %v", e, err)
			}
			want := value + uint64(e)
			if width < 64 {
				want &= 1<<width - 1
			}
			if got != want {
				t.Fatalf("elem %d: got %#x, want %#x (kind %s)", e, got, want, fld.Kind)
			}
		}
		// Out-of-range element access must error, not read a neighbor.
		if _, err := obj.GetUAt("f", n); err == nil && fld.Count > 1 {
			t.Fatalf("element %d of %d-element field accepted", n, n)
		}
		if g, err := obj.GetU("guard"); err != nil || g != sentinel {
			t.Fatalf("guard clobbered: %#x, %v", g, err)
		}
	})
}

// FuzzBytesRoundTrip covers the Bytes kind: stores within the declared
// length must read back exactly and reject overflow.
func FuzzBytesRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint16(32), []byte("spinlock"))
	f.Add(uint16(64), uint16(64), []byte{1, 2, 3})
	f.Add(uint16(5), uint16(1), []byte{0xff})
	f.Fuzz(func(t *testing.T, off uint16, blen uint16, data []byte) {
		fld := Field{Name: "b", Offset: uint64(off), Kind: Bytes, ByteLen: uint64(blen)}
		l := &Layout{Name: "fz", ByteSize: uint64(off) + uint64(blen) + 8, Fields: []Field{fld}}
		if err := l.Validate(); err != nil {
			return
		}
		s := fuzzSpace(t)
		obj, err := New(s.Space, l, 0)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(data)) > fld.ByteLen {
			if err := obj.SetBytes("b", data); err == nil {
				t.Fatalf("overflowing SetBytes of %d into %d accepted", len(data), fld.ByteLen)
			}
			return
		}
		if err := obj.SetBytes("b", data); err != nil {
			t.Fatal(err)
		}
		got, err := obj.GetBytes("b")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("bytes differ: %x vs %x", got[:len(data)], data)
		}
		for _, b := range got[len(data):] {
			if b != 0 {
				t.Fatalf("tail of bytes field not zero: %x", got)
			}
		}
	})
}
