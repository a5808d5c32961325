package hfi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func extentsOf(lens ...uint64) []mem.Extent {
	var out []mem.Extent
	addr := mem.PhysAddr(0x100000)
	for _, l := range lens {
		out = append(out, mem.Extent{Addr: addr, Len: l})
		addr += mem.PhysAddr(l + 0x10000) // gaps: never contiguous
	}
	return out
}

func TestBuildEagerRequestsSplitsAtLimit(t *testing.T) {
	reqs, err := BuildEagerRequests(extentsOf(25<<10), 10240, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	// 25 KB with an 8 KB eager-slot limit: 8+8+8+1.
	if len(reqs) != 4 {
		t.Fatalf("reqs = %d", len(reqs))
	}
	var total uint64
	for i, r := range reqs {
		if r.Src.Len > 8<<10 {
			t.Fatalf("req %d of %d bytes exceeds eager chunk", i, r.Src.Len)
		}
		if r.MsgOff != total {
			t.Fatalf("req %d offset %d, want %d", i, r.MsgOff, total)
		}
		total += r.Src.Len
	}
	if !reqs[len(reqs)-1].Last {
		t.Fatal("last flag missing")
	}
	if total != 25<<10 {
		t.Fatalf("total = %d", total)
	}
}

func TestBuildEagerPageSizedLinuxShape(t *testing.T) {
	// The Linux driver path: per-page extents with maxReq = PAGE_SIZE.
	var pages []uint64
	for i := 0; i < 16; i++ {
		pages = append(pages, 4096)
	}
	reqs, err := BuildEagerRequests(extentsOf(pages...), mem.PageSize4K, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	st := StatRequests(reqs, mem.PageSize4K)
	if st.Count != 16 || st.MaxBytes != 4096 || st.FullSized != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBuildExpectedRespectsTIDBoundaries(t *testing.T) {
	// One 20 KB contiguous extent; destination TIDs of 12 KB + 12 KB.
	exts := []mem.Extent{{Addr: 0x100000, Len: 20 << 10}}
	tids := []TIDPair{{Idx: 7, Len: 12 << 10}, {Idx: 9, Len: 12 << 10}}
	reqs, err := BuildExpectedRequests(exts, 10240, tids)
	if err != nil {
		t.Fatal(err)
	}
	// Splits: 10K (tid7), 2K (tid7 rest), 8K (tid9, limited by remaining)
	for _, r := range reqs {
		if r.Src.Len > 10240 {
			t.Fatalf("request exceeds hardware max: %d", r.Src.Len)
		}
	}
	// Verify TID placement continuity.
	used := map[int]uint64{}
	for _, r := range reqs {
		if r.TIDOff != used[r.TIDIdx] {
			t.Fatalf("TID %d offset %d, expected %d", r.TIDIdx, r.TIDOff, used[r.TIDIdx])
		}
		used[r.TIDIdx] += r.Src.Len
	}
	if used[7] != 12<<10 || used[9] != 8<<10 {
		t.Fatalf("TID usage = %v", used)
	}
}

func TestBuildExpectedErrors(t *testing.T) {
	exts := []mem.Extent{{Addr: 0x1000, Len: 8 << 10}}
	if _, err := BuildExpectedRequests(exts, 10240, nil); err == nil {
		t.Fatal("no TIDs accepted")
	}
	short := []TIDPair{{Idx: 1, Len: 4 << 10}}
	if _, err := BuildExpectedRequests(exts, 10240, short); err == nil {
		t.Fatal("insufficient TID coverage accepted")
	}
	if _, err := buildRequests(exts, 0, nil); err == nil {
		t.Fatal("zero max accepted")
	}
	if _, err := buildRequests([]mem.Extent{{Addr: 1, Len: 0}}, 4096, nil); err == nil {
		t.Fatal("zero-length extent accepted")
	}
}

// Property: requests exactly tile the message (coverage, ordering, limits)
// for arbitrary extents and TID layouts.
func TestBuildRequestsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nExt := rng.Intn(6) + 1
		var lens []uint64
		var total uint64
		for i := 0; i < nExt; i++ {
			l := uint64(rng.Intn(30000) + 1)
			lens = append(lens, l)
			total += l
		}
		exts := extentsOf(lens...)
		maxReq := uint64(rng.Intn(12000) + 256)

		var tids []TIDPair
		var cover uint64
		idx := uint64(0)
		for cover < total {
			l := uint64(rng.Intn(20000) + 512)
			tids = append(tids, TIDPair{Idx: idx, Len: l})
			idx++
			cover += l
		}
		reqs, err := BuildExpectedRequests(exts, maxReq, tids)
		if err != nil {
			return false
		}
		var sum, msgOff uint64
		tidUsed := map[int]uint64{}
		for i, r := range reqs {
			if r.Src.Len == 0 || r.Src.Len > maxReq {
				return false
			}
			if r.MsgOff != msgOff {
				return false
			}
			if int(r.TIDIdx) >= len(tids) {
				return false
			}
			if r.TIDOff+r.Src.Len > tids[r.TIDIdx].Len+tidUsed[r.TIDIdx]-tidUsed[r.TIDIdx] &&
				r.TIDOff+r.Src.Len > tids[r.TIDIdx].Len {
				return false
			}
			if r.Last != (i == len(reqs)-1) {
				return false
			}
			tidUsed[r.TIDIdx] += r.Src.Len
			msgOff += r.Src.Len
			sum += r.Src.Len
		}
		return sum == total
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSplitForTIDs(t *testing.T) {
	exts := []mem.Extent{
		{Addr: 0x0, Len: 600 << 10},
		{Addr: 0x10000000, Len: 100 << 10},
	}
	segs := SplitForTIDs(exts, 256<<10)
	// 600K → 256+256+88; 100K → 100. Total 4 segments.
	if len(segs) != 4 {
		t.Fatalf("segs = %d", len(segs))
	}
	var total uint64
	for _, s := range segs {
		if s.Len > 256<<10 {
			t.Fatal("segment exceeds max")
		}
		total += s.Len
	}
	if total != 700<<10 {
		t.Fatalf("total = %d", total)
	}
}

func TestBitmapHelpers(t *testing.T) {
	bm := make([]byte, 4) // 32 bits
	if idx := findClearBit(bm, 32); idx != 0 {
		t.Fatalf("first clear = %d", idx)
	}
	for i := 0; i < 32; i++ {
		setBit(bm, i)
	}
	if idx := findClearBit(bm, 32); idx != -1 {
		t.Fatalf("full bitmap returned %d", idx)
	}
	clearBit(bm, 17)
	if idx := findClearBit(bm, 32); idx != 17 {
		t.Fatalf("clear = %d", idx)
	}
	if testBit(bm, 17) || !testBit(bm, 16) {
		t.Fatal("testBit wrong")
	}
	// A limit below the first clear bit means exhaustion.
	if idx := findClearBit(bm, 17); idx != -1 {
		t.Fatalf("limit 17 returned %d", idx)
	}
	// Zero / oversized limits fall back to the bitmap capacity.
	if idx := findClearBit(bm, 0); idx != 17 {
		t.Fatalf("limit 0 returned %d", idx)
	}
	if idx := findClearBit(bm, 1000); idx != 17 {
		t.Fatalf("limit 1000 returned %d", idx)
	}
}

// requestInputs are the two sides of §3.4 at the 4 MB message size: one
// physically contiguous extent, and 1024 non-adjacent 4 KB frames.
func requestInputs() (contig, scattered []mem.Extent, tids []TIDPair) {
	const size, tidLen = 4 << 20, 256 << 10
	contig = []mem.Extent{{Addr: 0x4000_0000, Len: size}}
	for i := 0; i < size/mem.PageSize4K; i++ {
		scattered = append(scattered, mem.Extent{Addr: mem.PhysAddr(0x8000_0000 + i*2*mem.PageSize4K), Len: mem.PageSize4K})
	}
	for off := 0; off < size; off += tidLen {
		tids = append(tids, TIDPair{Idx: uint64(len(tids)), Len: tidLen})
	}
	return contig, scattered, tids
}

// TestBuildRequestsAllocatesOnce: the validation pass sizes the list, so
// building it is one allocation however many requests come out.
func TestBuildRequestsAllocatesOnce(t *testing.T) {
	contig, scattered, tids := requestInputs()
	for _, in := range []struct {
		name    string
		extents []mem.Extent
		maxReq  uint64
		want    int
	}{
		{"contig 10K", contig, 10 << 10, 416},
		{"contig 4K", contig, 4 << 10, 1024},
		{"scattered 10K", scattered, 10 << 10, 1024},
	} {
		var n int
		got := testing.AllocsPerRun(10, func() {
			reqs, err := BuildExpectedRequests(in.extents, in.maxReq, tids)
			if err != nil {
				t.Fatal(err)
			}
			n = len(reqs)
		})
		if got != 1 || n != in.want {
			t.Errorf("BuildExpectedRequests %s: %v allocs for %d requests, want 1 for %d", in.name, got, n, in.want)
		}
		got = testing.AllocsPerRun(10, func() {
			if _, err := BuildEagerRequests(in.extents, in.maxReq, 8<<10); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("BuildEagerRequests %s: %v allocs, want 1", in.name, got)
		}
	}
}

var benchReqs []SDMARequest

func BenchmarkBuildRequests(b *testing.B) {
	contig, scattered, tids := requestInputs()
	for _, in := range []struct {
		name    string
		extents []mem.Extent
		maxReq  uint64
	}{
		{"contig10K", contig, 10 << 10},
		{"scattered4K", scattered, 4 << 10},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchReqs, err = BuildExpectedRequests(in.extents, in.maxReq, tids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
