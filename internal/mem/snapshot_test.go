package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/snapshot"
)

// encodeState is the node<N>/mem snapshot section of pm.
func encodeState(t testing.TB, pm *PhysMem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Walk(&buf, "", pm, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenScript drives a fixed history over testMem: a contiguous and a
// scattered allocation, writes that straddle frames (one of them all
// zeros: a written frame is backed even when its content is zero), two
// frames written in part, one sparse and one made whole, a nested pin
// and one free. With detour set it writes those two frames in other
// pieces and another order, and additionally touches, pins and frees
// two chunks nothing else uses before the free, one of whose shared pin
// counts a partial pin splits, reaching the same contents through a
// structurally different history.
func goldenScript(t *testing.T, detour bool) *PhysMem {
	t.Helper()
	pm := testMem(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	contig, err := pm.AllocContig(64<<10, PreferMCDRAM)
	must(err)
	scat, err := pm.AllocScattered(8, PreferMCDRAM)
	must(err)
	ddr, err := pm.AllocContig(16<<10, DDROnly)
	must(err)

	buf := make([]byte, 9000)
	for i := range buf {
		buf[i] = byte(i*31 + 7)
	}
	must(pm.WriteAt(contig.Addr+4000, buf))
	must(pm.WriteAt(scat[3].Addr+17, buf[:1000]))
	must(pm.WriteAt(scat[5].Addr, make([]byte, PageSize4K)))
	must(pm.WriteAt(ddr.Addr+PageSize4K-1, buf[:2]))
	// Frame 10 of contig keeps two sectors; frame 11 backs three, so it
	// is whole. The detour writes them in pieces, last piece first.
	for _, w := range []struct{ frame, lo, hi int }{{10, 100, 1500}, {11, 500, 2600}} {
		pa := contig.Addr + PhysAddr(w.frame)*PageSize4K
		if !detour {
			must(pm.WriteAt(pa+PhysAddr(w.lo), buf[w.lo:w.hi]))
			continue
		}
		for hi := w.hi; hi > w.lo; hi -= 700 {
			lo := max(hi-700, w.lo)
			must(pm.WriteAt(pa+PhysAddr(lo), buf[lo:hi]))
		}
	}

	pin := Extent{Addr: contig.Addr + 100, Len: 3 * PageSize4K}
	pm.Pin(pin)
	pm.Pin(Extent{Addr: contig.Addr + PageSize4K, Len: PageSize4K})
	pm.Pin(scat[3])
	pm.Pin(scat[3])
	pm.Unpin(scat[3])

	if detour {
		// Order 10 = 4 MB: lands in the second half of the 8 MB MCDRAM
		// region, two chunks the rest of the script never reaches.
		far, err := pm.AllocContig(4<<20, MCDRAMOnly)
		must(err)
		must(pm.WriteAt(far.Addr+PageSize2M-5, buf[:10]))
		pm.Pin(far)
		pm.Unpin(far)
		// Pin both chunks whole, split the second's count with a 4 KB
		// pin, and drop both pins.
		part := Extent{Addr: far.Addr + PageSize2M + 3*PageSize4K, Len: PageSize4K}
		pm.Pin(far)
		pm.Pin(part)
		pm.Unpin(part)
		pm.Unpin(far)
		pm.FreeContig(far)
	}
	pm.FreeContig(ddr)
	return pm
}

// TestEncodeStateGolden pins the bytes of the node<N>/mem snapshot
// section, snapshot.Walk of the PhysMem: simtest's restore check and
// the snapshot tests compare two runs of one binary and cannot see a
// section that changed shape between commits.
func TestEncodeStateGolden(t *testing.T) {
	const want = "c8d3376464209c1ff5ce51c9f4ec3406007830910247d0c36a7eed8e64e6ca92"
	plain := encodeState(t, goldenScript(t, false))
	sum := sha256.Sum256(plain)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("mem section digest = %s, want %s\n%s", got, want, plain)
	}
	// An emptied chunk record, a split pin count dropped to zero, a
	// directory group allocated on the way and recycled frame buffers
	// must not leak into the bytes.
	if detoured := encodeState(t, goldenScript(t, true)); !bytes.Equal(plain, detoured) {
		t.Errorf("same contents through a different history encode differently:\n%s\nvs\n%s", plain, detoured)
	}
}
