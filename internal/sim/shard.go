// Sharded engine: conservative parallel discrete-event simulation.
//
// A ShardSet partitions one simulation across several Engines (shards),
// each owning its own event heap and clock. Shards synchronize with
// classic conservative time windows: every iteration computes the
// global minimum next-event time T and lets each shard process all
// events strictly before T + lookahead, where the lookahead is the
// minimum latency of any cross-shard interaction (for this simulator,
// the fabric's minimum link latency — cross-shard packet delivery is
// the only inter-shard event source). An event executing at time t can
// only schedule cross-shard work at t + lookahead or later, so nothing
// a shard does inside the window can affect another shard within the
// same window, and the shards may be executed in any order — or in
// parallel — without changing the result.
//
// Determinism is the correctness currency of this codebase (simtest
// digests, snapshot byte-identity), so cross-shard events are not
// injected as they are emitted: each window buffers them, and the
// barrier injects the whole batch in (time, source shard, source
// sequence) order. Destination engines assign their local sequence
// numbers at injection, so a run's total event order is a pure function
// of the workload and seed — independent of shard execution order,
// which is what lets a future parallel dispatcher keep byte-identical
// digests. The current driver runs shards sequentially round-robin:
// on a single-core host the only thing sharding can buy is smaller
// per-shard heaps and working sets, and the window loop is exactly the
// structure a multi-core dispatcher needs.
//
// A shard executes its window through the same Engine.runWindow a
// standalone engine's Run uses for its single window, on the goroutine
// that called ShardSet.Run; the set adds only the bound, the barrier and
// the cross-shard buffer.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// ShardSet drives a group of engines under a conservative time-window
// barrier. Build one with NewShardSet, attach one simulated node group
// per shard, route cross-shard interactions through CrossAfter, and
// execute with Run.
type ShardSet struct {
	shards    []*Engine
	lookahead time.Duration

	// cross buffers outbound cross-shard events emitted during the
	// current window; the barrier sorts and injects them.
	cross []crossEvent
	// fired holds rendezvous that completed during the current window;
	// the barrier wakes their waiters.
	fired []*Rendezvous
	// violation latches the first lookahead violation observed at
	// emission time; the next barrier fails with it.
	violation error

	// Windows and CrossEvents count barrier iterations and injected
	// cross-shard events (diagnostics only).
	Windows     uint64
	CrossEvents uint64
}

// crossEvent is one buffered cross-shard event, ordered globally by
// (at, src, seq) so injection order never depends on shard execution
// order.
type crossEvent struct {
	at  time.Duration
	src int
	seq uint64
	dst *Engine
	fn  func(any)
	arg any
}

// NewShardSet creates n engines sharing one deterministic seed and a
// conservative lookahead bound. The lookahead must be a positive lower
// bound on the delay of every CrossAfter call; the fabric's minimum
// link latency is the natural value.
func NewShardSet(seed int64, n int, lookahead time.Duration) (*ShardSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: shard set needs at least 1 shard, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: shard lookahead must be positive, got %v", lookahead)
	}
	s := &ShardSet{lookahead: lookahead}
	for i := 0; i < n; i++ {
		e := NewEngine(seed)
		e.set = s
		e.shard = i
		s.shards = append(s.shards, e)
	}
	return s, nil
}

// Engines returns the per-shard engines in shard order.
func (s *ShardSet) Engines() []*Engine { return s.shards }

// Shards returns the shard count.
func (s *ShardSet) Shards() int { return len(s.shards) }

// Now returns the set's virtual time: the maximum shard clock.
func (s *ShardSet) Now() time.Duration {
	var t time.Duration
	for _, e := range s.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Shard returns the index of the shard this engine belongs to (0 on a
// standalone engine).
func (e *Engine) Shard() int { return e.shard }

// ShardSet returns the set this engine is a shard of (nil on a
// standalone engine).
func (e *Engine) ShardSet() *ShardSet { return e.set }

// CrossAfter schedules fn(arg) on the dst shard at src.Now()+d. It is
// the only legal way for one shard to affect another, and d must be at
// least the set's lookahead: a shorter delay means the destination may
// already have executed past the delivery time, so it is reported as a
// loud lookahead violation at the next barrier instead of being
// silently reordered.
func (s *ShardSet) CrossAfter(src, dst *Engine, d time.Duration, fn func(any), arg any) {
	if d < s.lookahead && s.violation == nil {
		s.violation = fmt.Errorf(
			"sim: lookahead violation: cross-shard event from shard %d to shard %d at %v with delay %v < lookahead %v",
			src.shard, dst.shard, src.now, d, s.lookahead)
	}
	src.crossSeq++
	s.cross = append(s.cross, crossEvent{
		at: src.now + d, src: src.shard, seq: src.crossSeq,
		dst: dst, fn: fn, arg: arg,
	})
}

// nextTime returns the earliest unprocessed event time across shards.
func (s *ShardSet) nextTime() (time.Duration, bool) {
	var t time.Duration
	found := false
	for _, e := range s.shards {
		if len(e.heap) > 0 && (!found || e.heap[0].at < t) {
			t = e.heap[0].at
			found = true
		}
	}
	return t, found
}

// Run executes the sharded simulation until every queue is empty or
// until limit (if > 0) is reached. Semantics mirror Engine.Run: events
// at exactly limit execute, the first event past it stays queued with
// every shard clock set to limit, and Run(t) followed by Run(0) reaches
// the same state as one Run(0). A *DeadlockError aggregates blocked
// non-daemon processes across all shards.
func (s *ShardSet) Run(limit time.Duration) error {
	for _, e := range s.shards {
		e.mustBeOpen("Run")
	}
	for {
		t, ok := s.nextTime()
		if !ok {
			break
		}
		if limit > 0 && t > limit {
			for _, e := range s.shards {
				e.now = limit
			}
			return nil
		}
		bound := t + s.lookahead
		// Events at exactly limit must execute (Engine.Run parity), so
		// the window cap is limit+1 with the bound kept exclusive.
		if limit > 0 && bound > limit+1 {
			bound = limit + 1
		}
		for _, e := range s.shards {
			if err := e.runWindow(bound); err != nil {
				return err
			}
		}
		if err := s.barrier(bound); err != nil {
			return err
		}
		s.Windows++
	}
	return deadlockError(s.Now(), s.shards...)
}

// barrier injects the window's buffered cross-shard events in global
// (time, source shard, source sequence) order, then wakes completed
// rendezvous. Destination sequence numbers are assigned here, single
// threaded, which pins the total event order regardless of how the
// window itself was executed.
func (s *ShardSet) barrier(bound time.Duration) error {
	if s.violation != nil {
		return s.violation
	}
	if len(s.cross) > 0 {
		sort.Slice(s.cross, func(i, j int) bool {
			a, b := &s.cross[i], &s.cross[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		for i := range s.cross {
			ev := &s.cross[i]
			if ev.at < bound {
				return fmt.Errorf(
					"sim: lookahead violation: cross-shard event at %v inside the open window (bound %v, lookahead %v)",
					ev.at, bound, s.lookahead)
			}
			dst := ev.dst
			dst.seq++
			dst.heap.push(event{at: ev.at, seq: dst.seq, kind: evArg, afn: ev.fn, arg: ev.arg})
			s.CrossEvents++
			s.cross[i] = crossEvent{}
		}
		s.cross = s.cross[:0]
	}
	if len(s.fired) > 0 {
		for _, r := range s.fired {
			// The final Done-er wakes first: on a single engine it
			// proceeds inline at tLast before any Broadcast wake runs,
			// so its wake must carry the earliest sequence number here
			// too. Remaining waiters follow in Wait-call order.
			for pass := 0; pass < 2; pass++ {
				for _, p := range r.waiters {
					if (p == r.last) != (pass == 0) {
						continue
					}
					if p.e.now > r.tLast {
						return fmt.Errorf(
							"sim: rendezvous completed at %v but shard %d already ran to %v (waiter %q)",
							r.tLast, p.e.shard, p.e.now, p.name)
					}
					p.e.seq++
					p.e.heap.push(event{at: r.tLast, seq: p.e.seq, kind: evProc, p: p})
				}
			}
			r.waiters = nil
			r.flushed = true
		}
		s.fired = s.fired[:0]
	}
	return nil
}

// Rendezvous is a count-down synchronization point that works across
// shards: n participants each call Done, and every waiter resumes at
// the virtual time of the LAST Done — the same instant WaitGroup's
// Broadcast fires — which keeps digests identical between sharded and
// unsharded runs. On a standalone engine the last Done wakes the waiters
// on the spot, in Wait order; on a ShardSet the completion is observed
// at the window barrier, where the wakeups are injected in
// deterministic order.
//
// Done and Wait have zero cross-shard latency, so they are only safe
// at points where every waiting shard is otherwise quiescent (e.g. job
// launch: ranks initialize, then all wait for the slowest). If a
// waiter's shard has already run past the completion time the barrier
// fails loudly rather than bending causality.
type Rendezvous struct {
	set     *ShardSet // nil on a standalone engine
	count   int
	tLast   time.Duration
	waiters []*Proc
	last    *Proc // the participant whose Done completed the count
	flushed bool  // wakeups issued; later Waits return immediately
}

// NewRendezvous creates a rendezvous for n participants on e, spanning
// every shard of e's set if it has one.
func NewRendezvous(e *Engine, n int) *Rendezvous {
	if n < 0 {
		panic("sim: negative Rendezvous count")
	}
	return &Rendezvous{set: e.set, count: n, flushed: n == 0}
}

// Done counts down one participant at p's current virtual time. The
// count must not go below zero.
func (r *Rendezvous) Done(p *Proc) {
	if r.count <= 0 {
		panic("sim: Rendezvous count below zero")
	}
	r.count--
	if t := p.e.now; t > r.tLast {
		r.tLast = t
	}
	if r.count > 0 {
		return
	}
	if r.set != nil {
		r.last = p
		r.set.fired = append(r.set.fired, r)
		return
	}
	for _, w := range r.waiters {
		w.e.wake(w)
	}
	r.waiters = nil
	r.flushed = true
}

// Wait blocks p until every participant has called Done and the
// wakeups have been issued; after that, Wait returns immediately
// (matching WaitGroup.Wait on a drained group). On a ShardSet the final
// Done-er parks here too — its shard must not run past the completion
// time before the other shards' waiters have woken.
func (r *Rendezvous) Wait(p *Proc) {
	if r.flushed {
		return
	}
	r.waiters = append(r.waiters, p)
	p.block("rendezvous-wait")
}
