package sim

import "time"

// waiter is one entry of a waitq: a blocked process, or, for event
// context, the callback fn(arg) that takes a process's place (p nil).
type waiter struct {
	p   *Proc
	fn  func(any) `snap:"-"`
	arg any
}

// waitq is a FIFO of waiters that reuses its backing array. A pop
// clears the slot it vacates, so a finished process or a callback's
// argument is not kept reachable, and advances a head index. When a
// push finds the array full and at least half of it dead in front, it
// slides the live entries down instead of growing: a queue that never
// drains (a worker pool with one worker always idle) stays as long as
// its longest backlog, not as long as its history.
type waitq struct {
	ws   []waiter
	head int
}

func (w *waitq) push(x waiter) {
	if len(w.ws) == cap(w.ws) && w.head > 0 && 2*w.head >= len(w.ws) {
		n := copy(w.ws, w.ws[w.head:])
		clear(w.ws[n:])
		w.ws = w.ws[:n]
		w.head = 0
	}
	w.ws = append(w.ws, x)
}

func (w *waitq) pop() (waiter, bool) {
	if w.head >= len(w.ws) {
		return waiter{}, false
	}
	x := w.ws[w.head]
	w.ws[w.head] = waiter{}
	w.head++
	if w.head == len(w.ws) {
		w.ws = w.ws[:0]
		w.head = 0
	}
	return x, true
}

// resume schedules the waiter at the current virtual time: a process's
// resumption, or its callback with the same (at, seq) the resumption
// would take.
func (e *Engine) resume(w waiter) {
	if w.p != nil {
		e.wake(w.p)
		return
	}
	e.AfterArg(0, w.fn, w.arg)
}

// Queue is an unbounded FIFO queue of values passed between simulated
// processes. Push never blocks; Pop blocks the calling process until an
// item is available. Waiting processes are served in FIFO order.
//
// The item buffer is head-indexed and reused: popped slots are cleared
// (so pooled values do not linger reachable) and the backing array is
// rewound whenever the queue drains, making steady-state push/pop
// allocation-free.
type Queue[T any] struct {
	e       *Engine `snap:"-"` // engine back-pointer
	items   []T
	head    int
	waiters waitq
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{e: e} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes the longest waiter, if any.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, v)
	if w, ok := q.waiters.pop(); ok {
		q.e.resume(w)
	}
}

func (q *Queue[T]) popHead() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Pop blocks p until an item is available, then removes and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.waiters.push(waiter{p: p})
		p.block("queue-pop")
	}
	return q.popHead()
}

// TryPop is Pop for event context. It removes and returns the head item
// when there is one; otherwise it queues fn(arg) behind the waiting
// processes and returns false. The Push that serves the callback
// schedules fn(arg) where it would have resumed a process, and fn calls
// TryPop again.
func (q *Queue[T]) TryPop(fn func(any), arg any) (T, bool) {
	if q.Len() == 0 {
		q.waiters.push(waiter{fn: fn, arg: arg})
		var zero T
		return zero, false
	}
	return q.popHead(), true
}

// Cond is a condition variable for simulated processes. Unlike sync.Cond
// there is no associated lock: simulation code is single-threaded by
// construction. Callers must re-check their predicate after Wait returns
// because wakeups may be spurious when several processes share a Cond.
type Cond struct {
	e       *Engine `snap:"-"` // engine back-pointer
	waiters waitq
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait blocks p until Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(waiter{p: p})
	p.block("cond-wait")
}

// WaitFunc is Wait for event context: the next Broadcast schedules
// fn(arg) in the waiters' FIFO order, where it would resume a process.
func (c *Cond) WaitFunc(fn func(any), arg any) {
	c.waiters.push(waiter{fn: fn, arg: arg})
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	// resume only schedules resumptions and callbacks, so no waiter
	// can re-enter Wait while this loop drains the queue.
	for {
		w, ok := c.waiters.pop()
		if !ok {
			return
		}
		c.e.resume(w)
	}
}

// Resource models a pool of identical servers (for example, the Linux
// CPUs of a node that service offloaded system calls). Acquire blocks
// until a server is free; requests are granted in FIFO order.
type Resource struct {
	e        *Engine `snap:"-"` // engine back-pointer
	capacity int
	inUse    int
	waiters  waitq
	// Busy accumulates server-busy time for utilization accounting.
	Busy time.Duration
}

// NewResource returns a pool with the given number of servers.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{e: e, capacity: capacity}
}

// Acquire blocks p until a server is available and then claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.waiters.push(waiter{p: p})
		p.block("resource-acquire")
	}
	r.inUse++
}

// TryAcquire is Acquire for event context. It claims a server and
// returns true when one is free; otherwise it queues fn(arg) behind the
// waiting processes and returns false. The Release that serves the
// callback schedules fn(arg) where it would have resumed a process, and
// fn calls TryAcquire again: like a woken process, it finds the server
// taken if another acquirer barged in first, and queues at the back.
func (r *Resource) TryAcquire(fn func(any), arg any) bool {
	if r.inUse >= r.capacity {
		r.waiters.push(waiter{fn: fn, arg: arg})
		return false
	}
	r.inUse++
	return true
}

// Release frees one server and wakes the longest waiter.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: Resource.Release without Acquire")
	}
	r.inUse--
	if w, ok := r.waiters.pop(); ok {
		r.e.resume(w)
	}
}

// Use occupies one server for duration d: Acquire, Sleep(d), Release.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Busy += d
	r.Release()
}
