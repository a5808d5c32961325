package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"
)

// FuzzEventHeap runs an op program against eventHeap and checks every
// pop against a slice kept sorted by (at, seq). An odd op byte pops; an
// even one pushes an event whose at is drawn from eight values, so ties
// on at are common and seq, which always increases as the engine's
// does, must break them. Each event carries its seq as payload, which
// must leave the heap with its key. After every pop the vacated slot
// past the heap's length must be zeroed: a stale slot keeps the popped
// event's closure, and everything it captured, reachable until a later
// push happens to overwrite it.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 1, 1, 1})
	f.Add([]byte{14, 12, 10, 8, 6, 4, 2, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{6, 6, 6, 6, 6, 1, 6, 1, 2, 2, 1, 1, 1, 1, 1})
	ramp := make([]byte, 0, 96)
	for i := 0; i < 64; i++ {
		ramp = append(ramp, byte(i*6)&^1)
	}
	f.Add(append(ramp, bytes.Repeat([]byte{1}, 32)...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		var h eventHeap
		var want []event // sorted by (at, seq)
		var seq uint64
		pop := func() {
			got, w := h.pop(), want[0]
			want = want[1:]
			if got.at != w.at || got.seq != w.seq || got.arg != w.arg {
				t.Fatalf("pop = (at %d, seq %d, arg %v), want (at %d, seq %d, arg %v)",
					got.at, got.seq, got.arg, w.at, w.seq, w.arg)
			}
			if ev := h[:len(h)+1][len(h)]; ev.afn != nil || ev.p != nil ||
				ev.arg != nil || ev.at != 0 || ev.seq != 0 {
				t.Fatalf("heap slot %d not cleared after pop: %+v", len(h), ev)
			}
		}
		for _, op := range prog {
			if op&1 == 1 {
				if len(h) > 0 {
					pop()
				}
				continue
			}
			seq++
			ev := event{at: time.Duration(op >> 1 & 7), seq: seq, afn: func(any) {}, arg: seq}
			h.push(ev)
			i, _ := slices.BinarySearchFunc(want, &ev, func(w event, ev *event) int {
				return cmp.Or(cmp.Compare(w.at, ev.at), cmp.Compare(w.seq, ev.seq))
			})
			want = slices.Insert(want, i, ev)
		}
		for len(h) > 0 {
			pop()
		}
		if len(want) != 0 {
			t.Fatalf("heap drained with %d events still expected", len(want))
		}
	})
}

// TestQueuePopClearsSlots checks that Queue's head-indexed buffer zeroes
// vacated slots, so popped (possibly pooled) values are not kept
// reachable through the backing array.
func TestQueuePopClearsSlots(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[*int](e)
	vals := []*int{new(int), new(int), new(int)}
	for _, v := range vals {
		q.Push(v)
	}
	if v := q.popHead(); v != vals[0] {
		t.Fatalf("popHead = %v, want first value", v)
	}
	if q.items[0] != nil {
		t.Fatalf("vacated queue slot not cleared")
	}
	if v := q.popHead(); v != vals[1] {
		t.Fatalf("popHead = %v, want second value", v)
	}
	if q.items[1] != nil {
		t.Fatalf("vacated queue slot not cleared")
	}
	// Draining rewinds to the front of the backing array.
	q.popHead()
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue did not rewind: head=%d len=%d", q.head, len(q.items))
	}
}

// TestQueueSteadyStateNoGrowth verifies the reuse property the rewind
// exists for: alternating push/pop must not grow the backing array.
func TestQueueSteadyStateNoGrowth(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	q.Push(0)
	q.popHead()
	c := cap(q.items)
	for i := 0; i < 10000; i++ {
		q.Push(i)
		if v := q.popHead(); v != i {
			t.Fatalf("pop %d = %v", i, v)
		}
	}
	if cap(q.items) != c {
		t.Fatalf("steady-state push/pop grew the buffer: cap %d -> %d", c, cap(q.items))
	}
}

// TestWaitqFIFOAndClear pins waitq's FIFO order across rewinds and that
// popped slots drop their *Proc references.
func TestWaitqFIFOAndClear(t *testing.T) {
	var w waitq
	a, b, c := &Proc{name: "a"}, &Proc{name: "b"}, &Proc{name: "c"}
	w.push(waiter{p: a})
	w.push(waiter{p: b})
	if got, _ := w.pop(); got.p != a {
		t.Fatalf("pop = %v, want a", got.p)
	}
	if x := w.ws[:1][0]; x.p != nil || x.fn != nil || x.arg != nil {
		t.Fatalf("popped waitq slot not cleared")
	}
	w.push(waiter{p: c})
	if got, _ := w.pop(); got.p != b {
		t.Fatalf("pop = %v, want b", got.p)
	}
	if got, _ := w.pop(); got.p != c {
		t.Fatalf("pop = %v, want c", got.p)
	}
	if _, ok := w.pop(); len(w.ws) != w.head || ok {
		t.Fatalf("waitq not empty after draining")
	}
}

// FuzzWaitq runs an op program against waitq and checks every pop
// against a reference FIFO. An op byte's low two bits pick the op:
// 0 and 1 push a process waiter, 2 pushes a callback waiter (told apart
// by its argument, the op's index), 3 pops. The queue must keep FIFO order
// across rewinds and the compaction a full array with a dead front
// takes, leave every slot outside [head, len) zeroed, and never hold
// more than four times its largest backlog (plus the first few slots
// append hands out).
func FuzzWaitq(f *testing.F) {
	f.Add([]byte{0, 2, 3, 1, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 2, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3})
	f.Add(bytes.Repeat([]byte{0, 2, 3}, 40))
	f.Add(append(bytes.Repeat([]byte{2}, 9), bytes.Repeat([]byte{1, 3}, 30)...))
	procs := []*Proc{{name: "p0"}, {name: "p1"}}
	f.Fuzz(func(t *testing.T, prog []byte) {
		var w waitq
		var want []waiter
		peak := 0
		for i, op := range prog {
			switch op & 3 {
			case 0, 1:
				x := waiter{p: procs[op&1]}
				w.push(x)
				want = append(want, x)
			case 2:
				x := waiter{fn: func(any) {}, arg: i}
				w.push(x)
				want = append(want, x)
			case 3:
				got, ok := w.pop()
				if ok != (len(want) > 0) {
					t.Fatalf("op %d: pop ok=%v with %d expected", i, ok, len(want))
				}
				if ok {
					if got.p != want[0].p || got.arg != want[0].arg {
						t.Fatalf("op %d: pop = %+v, want %+v", i, got, want[0])
					}
					want = want[1:]
				}
			}
			peak = max(peak, len(want))
			if live := len(w.ws) - w.head; live != len(want) {
				t.Fatalf("op %d: %d live entries, want %d", i, live, len(want))
			}
			for j, x := range w.ws[:cap(w.ws)] {
				if (j < w.head || j >= len(w.ws)) && (x.p != nil || x.fn != nil || x.arg != nil) {
					t.Fatalf("op %d: dead slot %d not cleared: %+v", i, j, x)
				}
			}
			if cap(w.ws) > 4*peak+4 {
				t.Fatalf("op %d: cap %d for a peak backlog of %d", i, cap(w.ws), peak)
			}
		}
	})
}

// TestQueueRotationAllocs: four processes pass one token round through
// a Queue, so three of them are always waiting and its waitq never
// drains. Before a full waitq slid its live entries down, the array
// grew by one slot per wait for the whole run; warm, the rotation now
// allocates nothing and the array stays at its backlog.
func TestQueueRotationAllocs(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	q := NewQueue[int](e)
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for {
				v := q.Pop(p)
				if v < 0 {
					return
				}
				p.Sleep(1)
				q.Push(v + 1)
			}
		})
	}
	e.Go("measure", func(p *Proc) {
		q.Push(0)
		if got := testing.AllocsPerRun(5, func() { p.Sleep(10000) }); got != 0 {
			t.Errorf("rotation allocates %v objects per 10000 waits, want 0", got)
		}
		if c := cap(q.waiters.ws); c > 8 {
			t.Errorf("waitq array holds %d slots for a backlog of 3", c)
		}
		for i := 0; i < 4; i++ {
			q.Push(-1)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
