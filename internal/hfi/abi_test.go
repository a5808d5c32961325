package hfi

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/uproc"
)

func testProc(t *testing.T) *uproc.Process {
	t.Helper()
	pm, err := mem.NewPhysMem(mem.Region{Base: 0, Size: 16 << 20, Kind: mem.DDR4, Owner: "k"})
	if err != nil {
		t.Fatal(err)
	}
	return uproc.NewProcess("abi", pm.Partition("k"), uproc.BackingContigLarge)
}

func TestSDMAHeaderRoundTrip(t *testing.T) {
	p := testProc(t)
	va, err := p.MmapAnon(4096)
	if err != nil {
		t.Fatal(err)
	}
	h := &SDMAHeader{
		Op: OpExpected, DstNode: 3, DstCtx: 17, SrcRank: 255,
		Tag: 0xfeedface, MsgID: 0x1234567890ab, MsgLen: 4 << 20,
		TIDListVA: va + 512, TIDCount: 42, CompSeq: 7, Flags: FlagSynthetic,
		Aux: 1 << 19,
	}
	if err := EncodeSDMAHeader(p, va, h); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSDMAHeader(p, va)
	if err != nil {
		t.Fatal(err)
	}
	if *h != got {
		t.Fatalf("round trip:\n%+v\n%+v", *h, got)
	}
}

func TestSDMAHeaderBadOpcode(t *testing.T) {
	p := testProc(t)
	va, _ := p.MmapAnon(4096)
	h := &SDMAHeader{Op: 99}
	if err := EncodeSDMAHeader(p, va, h); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSDMAHeader(p, va); err == nil {
		t.Fatal("bad opcode accepted")
	}
}

func TestTIDListRoundTrip(t *testing.T) {
	p := testProc(t)
	va, _ := p.MmapAnon(64 << 10)
	pairs := []TIDPair{{Idx: 3, Len: 4096}, {Idx: 999, Len: 256 << 10}, {Idx: 0, Len: 1}}
	wire, err := WriteTIDListScratch(p, va, pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reading back through the grown scratch reuses both buffers.
	dst := make([]TIDPair, 0, len(pairs))
	got, buf, err := ReadTIDListScratch(p, va, len(pairs), dst, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pairs, got) {
		t.Fatalf("round trip mismatch: %v vs %v", pairs, got)
	}
	if &got[0] != &dst[:1][0] || &buf[0] != &wire[0] {
		t.Fatal("ReadTIDListScratch did not reuse the buffers it was given")
	}
}

func TestTIDInfoRoundTrip(t *testing.T) {
	p := testProc(t)
	va, _ := p.MmapAnon(4096)
	ti := &TIDInfo{VAddr: 0x2aaa00000000, Length: 1 << 20, TIDListVA: 0x2aab00000000, TIDCount: 128}
	if err := EncodeTIDInfo(p, va, ti); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTIDInfo(p, va)
	if err != nil {
		t.Fatal(err)
	}
	if *ti != got {
		t.Fatalf("round trip mismatch")
	}
	if err := WriteTIDCountBack(p, va, 77); err != nil {
		t.Fatal(err)
	}
	got, _ = DecodeTIDInfo(p, va)
	if got.TIDCount != 77 {
		t.Fatalf("count back = %d", got.TIDCount)
	}
}

func TestHdrqEntryRoundTripProperty(t *testing.T) {
	f := func(typ, src, eidx, op uint32, tag, msgid, msglen, off, aux, bytes uint64) bool {
		e := &HdrqEntry{
			Type: typ, SrcRank: src, Tag: tag, MsgID: msgid, MsgLen: msglen,
			Offset: off, Aux: aux, EagerIdx: eidx, Op: op, Bytes: bytes,
		}
		b := make([]byte, HdrqEntrySize)
		EncodeHdrqEntryInto(b, e)
		got := &HdrqEntry{}
		err := DecodeHdrqEntryInto(got, b)
		return err == nil && reflect.DeepEqual(e, got)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeHdrqEntryShort(t *testing.T) {
	if err := DecodeHdrqEntryInto(&HdrqEntry{}, make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
}
