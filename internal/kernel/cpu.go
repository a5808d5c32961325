// Package kernel provides the execution substrate shared by both
// simulated kernels: CPU identities, worker pools that execute kernel
// work (IRQ handlers, offloaded system calls) on specific CPUs, and
// ticket spinlocks stored in simulated memory so both kernels can take
// the same lock (§3.3 of the paper).
package kernel

import (
	"fmt"
	"time"

	"repro/internal/pool"
	"repro/internal/sim"
)

// Ctx is an execution context: a simulated process running kernel code
// on a particular CPU.
type Ctx struct {
	P   *sim.Proc
	CPU int
}

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.P.Now() }

// Spend consumes CPU time.
func (c *Ctx) Spend(d time.Duration) { c.P.Sleep(d) }

// WorkItem is a unit of kernel work executed by a WorkerPool: Fn(ctx,
// Arg), like an engine event's fn(arg), behind Lead of proxy overhead
// for a waited item. Items are recycled: a waited item (cond set) goes
// back to the worker pool's record pool when its submitter wakes, a
// fire-and-forget one when its Fn returns. A freed item is poisoned
// until reused; a worker handed one panics.
type WorkItem struct {
	Name string
	Fn   func(ctx *Ctx, arg any)
	Arg  any           `snap:"-"`
	Lead time.Duration `snap:"-"`
	done bool
	cond *sim.Cond
	// wake is the Cond a waited item keeps across uses, so its waiter
	// list keeps its capacity; cond points at it while a submitter waits.
	wake      *sim.Cond `snap:"-"`
	pool.Slot `snap:"-"`
}

// WorkerPool models a set of CPUs executing kernel work in FIFO order —
// the node's Linux CPUs servicing hardware IRQs and offloaded system
// calls. With 32–64 MPI ranks per node but only four Linux CPUs, this
// queue is where the offloading contention of §4.3 builds up.
type WorkerPool struct {
	e    *sim.Engine
	cpus []int
	q    *sim.Queue[*WorkItem]
	// Busy accumulates per-CPU busy time, indexed like cpus.
	Busy []time.Duration
	// Executed counts completed work items.
	Executed int
	items    pool.Pool[*WorkItem] `snap:"-"`
}

// NewWorkerPool starts one worker process per CPU id.
func NewWorkerPool(e *sim.Engine, name string, cpus []int) *WorkerPool {
	wp := &WorkerPool{
		e:    e,
		cpus: append([]int(nil), cpus...),
		q:    sim.NewQueue[*WorkItem](e),
		Busy: make([]time.Duration, len(cpus)),
		items: pool.New("kernel: WorkItem", nil, func() *WorkItem { return new(WorkItem) },
			func(item *WorkItem) { *item = WorkItem{wake: item.wake} }),
	}
	for i, cpu := range wp.cpus {
		idx, cpu := i, cpu
		e.GoDaemon(fmt.Sprintf("%s-cpu%d", name, cpu), func(p *sim.Proc) {
			ctx := &Ctx{P: p, CPU: cpu}
			for {
				item := wp.q.Pop(p)
				item.Check()
				start := p.Now()
				if item.cond != nil {
					// A waited item is an offloaded call with its proxy in
					// front; an interrupt handler starts at pickup.
					ctx.Spend(item.Lead)
				}
				item.Fn(ctx, item.Arg)
				wp.Busy[idx] += p.Now() - start
				wp.Executed++
				if item.cond == nil {
					wp.items.Put(item)
					continue
				}
				item.done = true
				item.cond.Broadcast()
			}
		})
	}
	return wp
}

// item returns a cleared work item from the pool.
func (wp *WorkerPool) item(name string, fn func(ctx *Ctx, arg any), arg any) *WorkItem {
	item := wp.items.Get()
	item.Name, item.Fn, item.Arg = name, fn, arg
	return item
}

// Pools returns the counts of the work-item pool.
func (wp *WorkerPool) Pools() []pool.Stats { return []pool.Stats{wp.items.Stats()} }

// CPUs returns the pool's CPU ids.
func (wp *WorkerPool) CPUs() []int { return wp.cpus }

// QueueLen returns the number of items waiting for a worker.
func (wp *WorkerPool) QueueLen() int { return wp.q.Len() }

// Submit enqueues fn(arg) without waiting for it (IRQ-style).
func (wp *WorkerPool) Submit(name string, fn func(ctx *Ctx, arg any), arg any) {
	wp.q.Push(wp.item(name, fn, arg))
}

// SubmitAndWait enqueues fn(arg) and blocks p until a worker has spent
// lead and then executed it. This is the shape of an offloaded system
// call: the caller's proxy context sleeps until a Linux CPU picks the
// request up, pays the proxy's overhead and finishes it.
func (wp *WorkerPool) SubmitAndWait(p *sim.Proc, name string, lead time.Duration, fn func(ctx *Ctx, arg any), arg any) {
	item := wp.item(name, fn, arg)
	if item.wake == nil {
		item.wake = sim.NewCond(wp.e)
	}
	item.cond, item.Lead = item.wake, lead
	wp.q.Push(item)
	for !item.done {
		item.cond.Wait(p)
	}
	wp.items.Put(item)
}
