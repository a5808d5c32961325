package sim

import (
	"testing"
	"time"
)

// TestHeapPopClearsSlots pins the fix for the event-retention leak:
// pop used to shrink the heap slice without clearing the vacated tail
// slot, keeping the event's closure (and everything it captured)
// reachable until a later push happened to overwrite it.
func TestHeapPopClearsSlots(t *testing.T) {
	var h eventHeap
	for i := 0; i < 8; i++ {
		h.push(event{at: time.Duration(i), seq: uint64(i), kind: evFn, fn: func() {}})
	}
	backing := h[:cap(h)]
	for len(h) > 0 {
		h.pop()
		// Every slot past the logical length must be fully zeroed.
		for i := len(h); i < len(backing); i++ {
			ev := backing[i]
			if ev.fn != nil || ev.afn != nil || ev.p != nil || ev.arg != nil || ev.at != 0 || ev.seq != 0 {
				t.Fatalf("heap slot %d not cleared after pop: %+v", i, ev)
			}
		}
	}
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
	w.push(a)
	w.push(b)
	if got := w.pop(); got != a {
		t.Fatalf("pop = %v, want a", got)
	}
	if w.procs[:1][0] != nil {
		t.Fatalf("popped waitq slot not cleared")
	}
	w.push(c)
	if got := w.pop(); got != b {
		t.Fatalf("pop = %v, want b", got)
	}
	if got := w.pop(); got != c {
		t.Fatalf("pop = %v, want c", got)
	}
	if len(w.procs) != w.head || w.pop() != nil {
		t.Fatalf("waitq not empty after draining")
	}
}
