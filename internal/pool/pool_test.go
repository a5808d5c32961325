package pool

import (
	"fmt"
	"iter"
	"strings"
	"testing"
)

// rec is a record that opts into holds and poison.
type rec struct {
	Slot
	v int
}

// plain is a record that does not.
type plain struct{ v int }

func newRecPool() *Pool[*rec] {
	p := New("test: rec", nil, func() *rec { return new(rec) }, func(r *rec) { r.v = 0 })
	return &p
}

// panics returns the message f panics with, or "" if it returns.
func panics(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// one is the CheckHolds sequence of one record x with n holds.
func one[T any](x T, n int) iter.Seq2[T, int] {
	return func(yield func(T, int) bool) { yield(x, n) }
}

func TestGetPutCounts(t *testing.T) {
	p := New("test: plain", nil, func() *plain { return new(plain) }, func(x *plain) { x.v = 0 })
	a, b := p.Get(), p.Get()
	a.v, b.v = 1, 2
	if st := p.Stats(); st.Gets != 2 || st.Hits != 0 || st.Live() != 2 || st.Name != "test: plain" {
		t.Fatalf("after two gets: %+v", st)
	}
	p.Put(a)
	p.Put(b)
	if st := p.Stats(); st.Puts != 2 || st.Live() != 0 {
		t.Fatalf("after two puts: %+v", st)
	}
	// Last in, first out, reset on the way back.
	if got := p.Get(); got != b || got.v != 0 {
		t.Fatalf("get after put = %p (v=%d), want the last record put, reset", got, got.v)
	}
	if got := p.Get(); got != a {
		t.Fatal("second get did not return the first record put")
	}
	if st := p.Stats(); st.Gets != 4 || st.Hits != 2 || st.Live() != 2 {
		t.Fatalf("after reuse: %+v", st)
	}
	p.Drop(a)
	if st := p.Stats(); st.Drops != 1 || st.Live() != 1 {
		t.Fatalf("after a drop: %+v", st)
	}
}

func TestZeroConstructor(t *testing.T) {
	p := New[[]int]("test: list", nil, nil, nil)
	if l := p.Get(); l != nil {
		t.Fatalf("empty pool with no constructor returned %v", l)
	}
	p.Put(make([]int, 0, 8))
	if l := p.Get(); cap(l) != 8 {
		t.Fatalf("get after put: cap %d, want the list put back", cap(l))
	}
}

func TestSharedCounts(t *testing.T) {
	var c Counts
	small := New("test: buf", &c, func() []byte { return make([]byte, 8) }, nil)
	large := New("test: buf", &c, func() []byte { return make([]byte, 64) }, nil)
	small.Put(small.Get())
	large.Get()
	if c.Gets != 2 || c.Puts != 1 || c.Live() != 1 {
		t.Fatalf("shared counts %+v", c)
	}
	if small.Stats() != large.Stats() {
		t.Fatal("pools sharing a block report different counts")
	}
}

func TestHoldRelease(t *testing.T) {
	p := newRecPool()
	r := p.Get()
	p.Hold(r)
	p.Hold(r)
	if err := p.CheckHolds(one(r, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHolds(one(r, 1)); err == nil || !strings.Contains(err.Error(), "test: rec with 2 holds, want 1") {
		t.Fatalf("CheckHolds against a wrong count = %v", err)
	}
	if p.Release(r) {
		t.Fatal("first of two releases put the record back")
	}
	if !p.Release(r) {
		t.Fatal("last release did not put the record back")
	}
	if st := p.Stats(); st.Puts != 1 || st.Live() != 0 {
		t.Fatalf("after the last release: %+v", st)
	}
	if err := p.CheckHolds(one(r, 1)); err == nil || !strings.Contains(err.Error(), "back in the pool") {
		t.Fatalf("CheckHolds on a freed record = %v", err)
	}
	if got := p.Get(); got != r {
		t.Fatal("the released record was not reused")
	}
	r.Check() // no longer poisoned
}

// TestPoison: from put to the next get a record panics on use, and the
// pool panics on a double put, a hold on a freed record, a release
// below zero and a put of a held record, each naming the pool.
func TestPoison(t *testing.T) {
	p := newRecPool()
	for _, c := range []struct {
		name string
		use  func(r *rec)
		want string
	}{
		{"use after put", func(r *rec) { p.Put(r); r.Check() }, "test: rec used after put"},
		{"double put", func(r *rec) { p.Put(r); p.Put(r) }, "test: rec put twice"},
		{"hold after put", func(r *rec) { p.Put(r); p.Hold(r) }, "test: rec held after put"},
		{"release after put", func(r *rec) { p.Put(r); p.Release(r) }, "test: rec used after put"},
		{"release below zero", func(r *rec) { p.Release(r) }, "test: rec released more often than held"},
		{"put while held", func(r *rec) { p.Hold(r); p.Put(r) }, "test: rec put with 1 holds"},
	} {
		r := p.Get()
		if got := panics(func() { c.use(r) }); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

func TestBalance(t *testing.T) {
	if err := Balance(); err != nil {
		t.Fatal(err)
	}
	// Two pools of one name on two shards: a record leaves one and comes
	// back through the other.
	a := Stats{Name: "test: packet", Counts: Counts{Gets: 3, Puts: 1}}
	b := Stats{Name: "test: packet", Counts: Counts{Gets: 1, Puts: 2, Drops: 1}}
	if err := Balance(a, b); err != nil {
		t.Fatalf("balanced pair: %v", err)
	}
	c := Stats{Name: "test: txn", Counts: Counts{Gets: 5, Hits: 4, Puts: 4}}
	err := Balance(a, c, b)
	if err == nil || !strings.Contains(err.Error(), "test: txn: 1 out (5 gets, 4 puts, 0 drops)") || strings.Contains(err.Error(), "packet") {
		t.Fatalf("Balance with one record out = %v", err)
	}
}

// TestPoolAllocs pins that a warm pool allocates nothing: get, hold,
// release and put of a record with a Slot, and get and put of one
// without.
func TestPoolAllocs(t *testing.T) {
	p := newRecPool()
	q := New("test: plain", nil, func() *plain { return new(plain) }, nil)
	var c Counts
	bufs := New("test: buf", &c, func() []byte { return make([]byte, 64) }, func(b []byte) { clear(b) })
	p.Put(p.Get())
	q.Put(q.Get())
	bufs.Put(bufs.Get())
	got := testing.AllocsPerRun(100, func() {
		r := p.Get()
		p.Hold(r)
		p.Hold(r)
		p.Release(r)
		p.Release(r)
		q.Put(q.Get())
		bufs.Put(bufs.Get())
		_ = p.Stats()
	})
	if got != 0 {
		t.Fatalf("warm pools: %v allocations per cycle, want 0", got)
	}
}

// FuzzPool runs an op program of gets, puts, holds and releases against
// a reference: every record out of the pool with its hold count, and
// the records on the free list. A misuse the reference predicts (a
// double put, a hold or release of a free record, a release below zero,
// a put of a held record) must panic, and nothing else may; after every
// op the counts, the live count and each record's holds and poison
// agree with the reference.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 3, 0, 3, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 4, 0})
	f.Add([]byte{0, 0, 2, 0, 2, 0, 1, 0, 3, 0, 3, 0, 3, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		p := newRecPool()
		var (
			made  []*rec
			holds = map[*rec]int{} // records out of the pool
			free  []*rec           // the free list, last put last
			want  Counts
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] % 5
			var r *rec
			if len(made) > 0 {
				r = made[int(ops[i+1])%len(made)]
			}
			_, out := holds[r]
			var misuse string
			switch op {
			case 0: // get
				got := p.Get()
				want.Gets++
				if n := len(free); n > 0 {
					want.Hits++
					if got != free[n-1] {
						t.Fatalf("op %d: get returned %p, want the last record put %p", i/2, got, free[n-1])
					}
					free = free[:n-1]
				} else {
					made = append(made, got)
				}
				holds[got] = 0
				got.v = i + 1
			case 1: // put
				if r == nil {
					continue
				}
				switch {
				case !out:
					misuse = "test: rec put twice"
				case holds[r] > 0:
					misuse = fmt.Sprintf("test: rec put with %d holds", holds[r])
				}
				if got := panics(func() { p.Put(r) }); got != misuse {
					t.Fatalf("op %d: put panicked %q, want %q", i/2, got, misuse)
				}
				if misuse == "" {
					want.Puts++
					delete(holds, r)
					free = append(free, r)
				}
			case 2: // hold
				if r == nil {
					continue
				}
				if !out {
					misuse = "test: rec held after put"
				}
				if got := panics(func() { p.Hold(r) }); got != misuse {
					t.Fatalf("op %d: hold panicked %q, want %q", i/2, got, misuse)
				}
				if misuse == "" {
					holds[r]++
				}
			case 3: // release
				if r == nil {
					continue
				}
				switch {
				case !out:
					misuse = "test: rec used after put"
				case holds[r] == 0:
					misuse = "test: rec released more often than held"
				}
				var put bool
				if got := panics(func() { put = p.Release(r) }); got != misuse {
					t.Fatalf("op %d: release panicked %q, want %q", i/2, got, misuse)
				}
				if misuse == "" {
					holds[r]--
					if put != (holds[r] == 0) {
						t.Fatalf("op %d: release put the record back %v with %d holds left", i/2, put, holds[r])
					}
					if put {
						want.Puts++
						delete(holds, r)
						free = append(free, r)
					}
				}
			case 4: // use
				if r == nil {
					continue
				}
				if !out {
					misuse = "test: rec used after put"
				}
				if got := panics(r.Check); got != misuse {
					t.Fatalf("op %d: use panicked %q, want %q", i/2, got, misuse)
				}
			}
			if st := p.Stats(); st.Counts != want || st.Live() != int64(len(holds)) {
				t.Fatalf("op %d: counts %+v (live %d), want %+v (live %d)", i/2, st.Counts, st.Live(), want, len(holds))
			}
			if err := p.CheckHolds(func(yield func(*rec, int) bool) {
				for r, n := range holds {
					if !yield(r, n) {
						return
					}
				}
			}); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			for _, r := range free {
				if r.v != 0 {
					t.Fatalf("op %d: a free record was not reset", i/2)
				}
				if panics(r.Check) == "" {
					t.Fatalf("op %d: a free record is not poisoned", i/2)
				}
			}
		}
	})
}
