package psm

import (
	"slices"
	"testing"
)

// TestIvSetAdd covers duplicate, partial-overlap, adjacency and
// empty-interval handling of the coverage tracker.
func TestIvSetAdd(t *testing.T) {
	var s ivSet
	if got := s.add(0, 10); got != 10 {
		t.Fatalf("first add covered %d, want 10", got)
	}
	if got := s.add(0, 10); got != 0 {
		t.Fatalf("exact duplicate covered %d, want 0", got)
	}
	if got := s.add(5, 15); got != 5 {
		t.Fatalf("partial overlap covered %d, want 5", got)
	}
	if got := s.add(20, 30); got != 10 {
		t.Fatalf("disjoint add covered %d, want 10", got)
	}
	if got := s.add(15, 20); got != 5 {
		t.Fatalf("gap fill covered %d, want 5", got)
	}
	if len(s.ivs) != 1 || s.ivs[0] != (iv{lo: 0, hi: 30}) {
		t.Fatalf("intervals not merged: %+v", s.ivs)
	}
	if got := s.add(3, 3); got != 0 {
		t.Fatalf("empty interval covered %d, want 0", got)
	}
}

// TestIvSetOutOfOrder replays a shuffled, overlapping packet arrival and
// checks the total newly-covered count equals the union size.
func TestIvSetOutOfOrder(t *testing.T) {
	var s ivSet
	total := uint64(0)
	for _, span := range [][2]uint64{{16, 24}, {0, 8}, {8, 16}, {4, 20}} {
		total += s.add(span[0], span[1])
	}
	if total != 24 {
		t.Fatalf("total covered %d, want 24", total)
	}
	if len(s.ivs) != 1 || s.ivs[0] != (iv{lo: 0, hi: 24}) {
		t.Fatalf("intervals not merged: %+v", s.ivs)
	}
}

// FuzzIvSetAdd checks ivSet.add against a bitmap over a 320-byte
// buffer. Each byte pair of the input adds [lo, lo+n) with lo the first
// byte and n the second modulo 64 (0 is an empty add). After every add
// the returned count must equal the bits newly set, and the intervals
// must be the bitmap's maximal runs, in order: add merges overlapping
// and adjacent intervals alike.
func FuzzIvSetAdd(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 5, 10, 20, 10, 15, 5, 3, 0})
	f.Add([]byte{200, 40, 100, 40, 0, 63, 140, 60, 63, 38})
	f.Add([]byte{9, 1, 7, 1, 5, 1, 3, 1, 1, 1, 0, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s ivSet
		var bits [320]bool
		for i := 0; i+1 < len(ops); i += 2 {
			lo := uint64(ops[i])
			hi := lo + uint64(ops[i+1]%64)
			var want uint64
			for b := lo; b < hi; b++ {
				if !bits[b] {
					bits[b] = true
					want++
				}
			}
			if got := s.add(lo, hi); got != want {
				t.Fatalf("op %d: add(%d, %d) covered %d, want %d", i/2, lo, hi, got, want)
			}
			var runs []iv
			for b := 0; b < len(bits); b++ {
				if !bits[b] {
					continue
				}
				start := b
				for b < len(bits) && bits[b] {
					b++
				}
				runs = append(runs, iv{lo: uint64(start), hi: uint64(b)})
			}
			if !slices.Equal(s.ivs, runs) {
				t.Fatalf("op %d: add(%d, %d) left intervals %v, want %v", i/2, lo, hi, s.ivs, runs)
			}
		}
	})
}
