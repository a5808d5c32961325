package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/snapshot"
)

func encodeState(pm *PhysMem) []byte {
	e := snapshot.NewEnc()
	pm.EncodeState(e)
	return e.Bytes()
}

// goldenScript drives a fixed history over testMem: a contiguous and a
// scattered allocation, writes that straddle frames (one of them all
// zeros: a written frame is backed even when its content is zero), a
// nested pin and one free. With detour set it additionally touches, pins
// and frees a chunk nothing else uses before the free, reaching the same
// contents through a structurally different history.
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
		pm.FreeContig(far)
	}
	pm.FreeContig(ddr)
	return pm
}

// TestEncodeStateGolden pins the bytes of the node<N>/mem snapshot
// section. The digest was taken at the commit before frames and pins
// moved from maps into the per-region chunk table; snapcheck and the
// snapshot tests compare two runs of one binary and cannot see a section
// that changed shape between commits.
func TestEncodeStateGolden(t *testing.T) {
	const want = "3c09a2a3a32f37405d0687c4a91e4011092e05382401c22ccfa5c5fa6c50f700"
	plain := encodeState(goldenScript(t, false))
	sum := sha256.Sum256(plain)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("EncodeState digest = %s, want %s\n%s", got, want, plain)
	}
	// An empty chunk record must not leak into the bytes.
	if detoured := encodeState(goldenScript(t, true)); !bytes.Equal(plain, detoured) {
		t.Errorf("same contents through a different history encode differently:\n%s\nvs\n%s", plain, detoured)
	}
}
