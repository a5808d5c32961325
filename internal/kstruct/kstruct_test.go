package kstruct

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/vas"
)

func space(t *testing.T) *kmemSpace {
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

func testLayout() *Layout {
	return &Layout{
		Name:     "sdma_state",
		ByteSize: 64,
		Fields: []Field{
			{Name: "lock", Offset: 0, Kind: Bytes, ByteLen: 32},
			{Name: "current_state", Offset: 40, Kind: Enum, TypeName: "enum sdma_states"},
			{Name: "go_s99_running", Offset: 48, Kind: U32},
			{Name: "previous_state", Offset: 52, Kind: Enum},
			{Name: "counters", Offset: 56, Kind: U16, Count: 4},
		},
	}
}

func TestLayoutValidate(t *testing.T) {
	if err := testLayout().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Layout{Name: "x", ByteSize: 8, Fields: []Field{
		{Name: "a", Offset: 4, Kind: U64},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("field past end accepted")
	}
	overlap := &Layout{Name: "x", ByteSize: 16, Fields: []Field{
		{Name: "a", Offset: 0, Kind: U64},
		{Name: "b", Offset: 4, Kind: U32},
	}}
	if err := overlap.Validate(); err == nil {
		t.Fatal("overlapping fields accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry("v1")
	if err := r.Add(testLayout()); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(testLayout()); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := r.Lookup("sdma_state"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Fatal("unknown lookup succeeded")
	}
	if len(r.Names()) != 1 {
		t.Fatal("names wrong")
	}
}

func TestObjScalarAccess(t *testing.T) {
	s := space(t)
	o, err := New(s.Space, testLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetU("go_s99_running", 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := o.GetU("go_s99_running")
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("got %#x, %v", v, err)
	}
	// Enum fields are 4 bytes.
	if err := o.SetU("current_state", 7); err != nil {
		t.Fatal(err)
	}
	if err := o.SetU("previous_state", 3); err != nil {
		t.Fatal(err)
	}
	cs, _ := o.GetU("current_state")
	ps, _ := o.GetU("previous_state")
	if cs != 7 || ps != 3 {
		t.Fatalf("enums = %d %d", cs, ps)
	}
	// Neighboring fields unaffected (no aliasing through offsets).
	v2, _ := o.GetU("go_s99_running")
	if v2 != 0xdeadbeef {
		t.Fatal("neighbor clobbered")
	}
}

func TestObjArrayAccess(t *testing.T) {
	s := space(t)
	o, err := New(s.Space, testLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := o.SetUAt("counters", i, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		v, err := o.GetUAt("counters", i)
		if err != nil || v != uint64(100+i) {
			t.Fatalf("counters[%d] = %d, %v", i, v, err)
		}
	}
	if _, err := o.GetUAt("counters", 4); err == nil {
		t.Fatal("out-of-range element accepted")
	}
}

func TestObjBytesAccess(t *testing.T) {
	s := space(t)
	o, err := New(s.Space, testLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("ticket-spinlock-state")
	if err := o.SetBytes("lock", data); err != nil {
		t.Fatal(err)
	}
	got, err := o.ReadBytes("lock", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("bytes mismatch")
	}
	if err := o.SetBytes("lock", make([]byte, 33)); err == nil {
		t.Fatal("overflowing SetBytes accepted")
	}
	if _, err := o.ReadBytes("current_state", nil); err == nil {
		t.Fatal("ReadBytes on scalar accepted")
	}
	if _, err := o.GetU("lock"); err == nil {
		t.Fatal("GetU on bytes accepted")
	}
}

func TestObjIndexAndPtr(t *testing.T) {
	s := space(t)
	l := testLayout()
	base, err := s.Space.Kmalloc(l.ByteSize*3, 0)
	if err != nil {
		t.Fatal(err)
	}
	arr := Obj{Space: s.Space, Addr: base, Layout: l}
	for i := 0; i < 3; i++ {
		if err := arr.Index(i).SetU("go_s99_running", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v, _ := arr.Index(i).GetU("go_s99_running")
		if v != uint64(i) {
			t.Fatalf("elem %d = %d", i, v)
		}
	}
	// Pointer round trip via another object.
	o, err := New(s.Space, &Layout{Name: "holder", ByteSize: 16, Fields: []Field{
		{Name: "next", Offset: 0, Kind: Ptr},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetPtr("next", base); err != nil {
		t.Fatal(err)
	}
	p, err := o.GetPtr("next")
	if err != nil || p != base {
		t.Fatalf("ptr = %#x, %v", p, err)
	}
}

func TestWrongLayoutReadsGarbage(t *testing.T) {
	// The §3.2 hazard: access through stale offsets reads the wrong
	// bytes without any error.
	s := space(t)
	truth := testLayout()
	o, err := New(s.Space, truth, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetU("go_s99_running", 1); err != nil {
		t.Fatal(err)
	}
	stale := &Layout{Name: "sdma_state", ByteSize: 64, Fields: []Field{
		{Name: "go_s99_running", Offset: 44, Kind: U32}, // old offset
	}}
	wrong := Obj{Space: s.Space, Addr: o.Addr, Layout: stale}
	v, err := wrong.GetU("go_s99_running")
	if err != nil {
		t.Fatal(err)
	}
	if v == 1 {
		t.Fatal("stale offset accidentally read the right value")
	}
}
