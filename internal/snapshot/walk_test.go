package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

func walk(t *testing.T, v any, labels *Labels) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Walk(&buf, "", v, labels); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func wantLines(t *testing.T, got string, want ...string) {
	t.Helper()
	if w := strings.Join(want, "\n") + "\n"; got != w {
		t.Errorf("walk printed\n%s\nwant\n%s", got, w)
	}
}

func TestWalkMapKeyOrder(t *testing.T) {
	type link struct{ Src, Dst int }
	v := struct {
		Ints    map[int]string
		Strings map[string]uint8
		Links   map[link]bool
	}{
		Ints:    map[int]string{10: "ten", -2: "minus two", 3: "three"},
		Strings: map[string]uint8{"b": 2, "a": 1, "a b": 3},
		Links:   map[link]bool{{2, 0}: true, {1, 9}: true, {1, 2}: true},
	}
	wantLines(t, walk(t, &v, nil),
		`Ints[-2]="minus two"`,
		`Ints[3]="three"`,
		`Ints[10]="ten"`,
		`Strings["a"]=1`,
		`Strings["a b"]=3`,
		`Strings["b"]=2`,
		`Links[{1,2}]=true`,
		`Links[{1,9}]=true`,
		`Links[{2,0}]=true`,
	)
}

func TestWalkZeroOmission(t *testing.T) {
	type inner struct{ A, B int }
	v := struct {
		Zero  int
		Empty string
		Nil   *inner
		ToZ   *inner // a pointer whose target prints nothing
		In    inner
		Set   map[int]struct{}
		Zeros []int
		None  []int
		Cnt   map[string]int
	}{
		ToZ:   &inner{},
		In:    inner{B: 4},
		Set:   map[int]struct{}{7: {}, 5: {}},
		Zeros: []int{0, 3, 0},
		None:  []int{},
		Cnt:   map[string]int{"x": 0},
	}
	wantLines(t, walk(t, &v, nil),
		"In.B=4",
		"Set[5]={}",
		"Set[7]={}",
		"Zeros.len=3",
		"Zeros[1]=3",
		`Cnt["x"]=0`,
	)
}

type node struct {
	Name string
	Next *node
	Peer *node
}

func TestWalkBackReferences(t *testing.T) {
	a := &node{Name: "a"}
	b := &node{Name: "b", Next: a}
	a.Next = b // a cycle through the root
	a.Peer = b
	wantLines(t, walk(t, a, nil),
		`Name="a"`,
		`Next.Name="b"`,
		`Next.Next=&`,
		`Peer=&Next`,
	)
	// Under a prefix, references name the full path.
	var buf bytes.Buffer
	if err := Walk(&buf, "ev[3].", &node{Next: b, Peer: b}, nil); err != nil {
		t.Fatal(err)
	}
	wantLines(t, buf.String(),
		`ev[3].Next.Name="b"`,
		`ev[3].Next.Next.Name="a"`,
		`ev[3].Next.Next.Next=&ev[3].Next`,
		`ev[3].Next.Next.Peer=&ev[3].Next`,
		`ev[3].Peer=&ev[3].Next`,
	)
}

func TestWalkRootLabels(t *testing.T) {
	nic := &node{Name: "nic"}
	drv := &node{Name: "drv", Next: nic, Peer: &node{Name: "own", Next: nic}}
	var l Labels
	l.Add("node0/hfi", nic)
	l.Add("node0/hfidrv", drv)
	// The root itself is walked; every other pointer to a root is its
	// label, however deep.
	wantLines(t, walk(t, drv, &l),
		`Name="drv"`,
		`Next=node0/hfi`,
		`Peer.Name="own"`,
		`Peer.Next=node0/hfi`,
	)
	// Labels key on type as well as address: a pointer to the root's
	// first field is not the root.
	wantLines(t, walk(t, &struct{ P *string }{&drv.Name}, &l), `P="drv"`)
}

func TestWalkBytesAndHashTag(t *testing.T) {
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:8])
	}
	type table struct{ Leaves [4]uint64 }
	buf := make([]byte, 100)
	buf[7] = 1
	frame := new([16]byte)
	v := struct {
		Payload []byte
		Inline  [4]byte
		ZeroArr [4]byte
		Frame   *[16]byte
		PT      *table `snap:"hash"`
		Empty   *table `snap:"hash"`
		Skip    int    `snap:"-"`
	}{Payload: buf, Inline: [4]byte{1, 2, 3, 4}, Frame: frame, PT: &table{Leaves: [4]uint64{0, 9}}, Empty: &table{}, Skip: 5}
	ptLines := sha256.Sum256([]byte("PT.Leaves[1]=9\n"))
	wantLines(t, walk(t, &v, nil),
		"Payload=100:"+sum(buf),
		"Inline=4:"+sum([]byte{1, 2, 3, 4}),
		// A pointer to a byte array is a buffer: all-zero bytes print.
		"Frame=16:"+sum(frame[:]),
		"PT=#"+hex.EncodeToString(ptLines[:8]),
	)

	var bad struct {
		X int `snap:"skip"`
	}
	var out bytes.Buffer
	if err := Walk(&out, "", &bad, nil); err == nil || !strings.Contains(err.Error(), `unknown snap tag "skip"`) {
		t.Errorf("unknown tag: err = %v", err)
	}
}

func TestWalkFuncChanInterface(t *testing.T) {
	var any1 any = 0
	v := struct {
		Fn      func()
		NilFn   func()
		Ch      chan int
		Err     error
		Boxed   any
		ZeroBox any
	}{Fn: func() {}, Ch: make(chan int), Err: &node{Name: "e"}, Boxed: uint16(3), ZeroBox: any1}
	wantLines(t, walk(t, &v, nil),
		"Fn=fn",
		"Ch=chan",
		`Err.(*snapshot.node).Name="e"`,
		"Boxed.(uint16)=3",
		"ZeroBox.(int)=0",
	)
}

func (n *node) Error() string { return n.Name }

func TestWalkUnorderedMapKey(t *testing.T) {
	type owner struct {
		Inner struct {
			ByPtr map[*node]int
		}
	}
	var o owner
	var out bytes.Buffer
	err := Walk(&out, "", &o, nil)
	if err == nil || !strings.Contains(err.Error(), "Inner.ByPtr") || !strings.Contains(err.Error(), "no total order") {
		t.Fatalf("map[*node]int: err = %v, want an error naming Inner.ByPtr", err)
	}
	var iface struct{ M map[any]int }
	if err := Walk(&out, "", &iface, nil); err == nil || !strings.Contains(err.Error(), "M:") {
		t.Fatalf("map[any]int: err = %v, want an error naming M", err)
	}
}

// trap's methods panic: the walker must read fields, never call them.
type trap struct {
	N int
	s string
}

func (trap) String() string               { panic("walker called String") }
func (trap) Error() string                { panic("walker called Error") }
func (trap) MarshalText() ([]byte, error) { panic("walker called MarshalText") }
func (*trap) GoString() string            { panic("walker called GoString") }

func TestWalkCallsNoMethods(t *testing.T) {
	v := struct {
		T   trap
		P   *trap
		I   error
		S   []trap
		M   map[int]trap
		Key map[trap]int
	}{
		T: trap{N: 1, s: "x"}, P: &trap{N: 2}, I: trap{N: 3},
		S: []trap{{N: 4}}, M: map[int]trap{5: {N: 5}}, Key: map[trap]int{{N: 6, s: "k"}: 1},
	}
	wantLines(t, walk(t, &v, nil),
		"T.N=1",
		`T.s="x"`,
		"P.N=2",
		"I.(snapshot.trap).N=3",
		"S.len=1",
		"S[0].N=4",
		"M[5].N=5",
		`Key[{6,"k"}]=1`,
	)
}

// TestWalkPointerAllocs pins that a pointer met once costs the walk no
// allocation of its own: its first path goes into one shared buffer,
// and only a pointer met again reads it back.
func TestWalkPointerAllocs(t *testing.T) {
	type node struct{ ID int }
	const n = 4096
	v := make([]*node, n)
	for i := range v {
		v[i] = &node{ID: i + 1}
	}
	got := testing.AllocsPerRun(5, func() {
		if err := Walk(io.Discard, "", v, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > n/16 {
		t.Errorf("walking %d distinct pointers: %v allocations, want at most %d", n, got, n/16)
	}
}
