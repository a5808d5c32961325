package sim

import "time"

// waitq is a FIFO of blocked processes that reuses its backing array.
// The old `ws = ws[1:]` reslicing discarded front capacity on every
// dequeue, so each enqueue at steady state allocated a fresh array;
// with a head index the array is reused and vacated slots are cleared
// so finished processes are not kept reachable.
type waitq struct {
	procs []*Proc
	head  int
}

func (w *waitq) len() int { return len(w.procs) - w.head }

func (w *waitq) push(p *Proc) {
	if w.head > 0 && w.head == len(w.procs) {
		// Empty: rewind to reuse the full capacity.
		w.procs = w.procs[:0]
		w.head = 0
	}
	w.procs = append(w.procs, p)
}

func (w *waitq) pop() *Proc {
	if w.head >= len(w.procs) {
		return nil
	}
	p := w.procs[w.head]
	w.procs[w.head] = nil
	w.head++
	if w.head == len(w.procs) {
		w.procs = w.procs[:0]
		w.head = 0
	}
	return p
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
	e       *Engine
	items   []T
	head    int
	waiters waitq
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{e: e} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Items returns a read-only view of the queued items in FIFO order. It
// aliases the queue's backing array and is only valid until the next
// Push or Pop; snapshot encoders use it to enumerate in-flight work.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// Push appends v and wakes the longest-waiting process, if any.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, v)
	if w := q.waiters.pop(); w != nil {
		q.e.wake(w)
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

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.popHead(), true
}

// Pop blocks p until an item is available, then removes and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.waiters.push(p)
		p.block("queue-pop")
	}
	return q.popHead()
}

// Cond is a condition variable for simulated processes. Unlike sync.Cond
// there is no associated lock: simulation code is single-threaded by
// construction. Callers must re-check their predicate after Wait returns
// because wakeups may be spurious when several processes share a Cond.
type Cond struct {
	e       *Engine
	waiters waitq
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait blocks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.block("cond-wait")
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if w := c.waiters.pop(); w != nil {
		c.e.wake(w)
	}
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	// wake only schedules resumptions, so a woken process cannot
	// re-enter Wait while this loop drains the queue.
	for {
		w := c.waiters.pop()
		if w == nil {
			return
		}
		c.e.wake(w)
	}
}

// Waiting reports the number of blocked processes.
func (c *Cond) Waiting() int { return c.waiters.len() }

// Resource models a pool of identical servers (for example, the Linux
// CPUs of a node that service offloaded system calls). Acquire blocks
// until a server is free; requests are granted in FIFO order.
type Resource struct {
	e        *Engine
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

// InUse returns the number of servers currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for a server.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// Acquire blocks p until a server is available and then claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.waiters.push(p)
		p.block("resource-acquire")
	}
	r.inUse++
}

// Release frees one server and wakes the longest-waiting process.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: Resource.Release without Acquire")
	}
	r.inUse--
	if w := r.waiters.pop(); w != nil {
		r.e.wake(w)
	}
}

// Use occupies one server for duration d: Acquire, Sleep(d), Release.
// It returns the total time spent including queueing.
func (r *Resource) Use(p *Proc, d time.Duration) time.Duration {
	start := p.Now()
	r.Acquire(p)
	p.Sleep(d)
	r.Busy += d
	r.Release()
	return p.Now() - start
}

// WaitGroup lets a process wait for a set of simulated activities.
type WaitGroup struct {
	e     *Engine
	count int
	cond  *Cond
}

// NewWaitGroup returns a WaitGroup bound to e.
func NewWaitGroup(e *Engine) *WaitGroup {
	return &WaitGroup{e: e, cond: NewCond(e)}
}

// Add increments the outstanding-activity counter.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter and wakes waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.count == 0 {
		w.cond.Broadcast()
	}
}

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.cond.Wait(p)
	}
}
