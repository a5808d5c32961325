// Package sim provides a deterministic discrete-event simulation engine
// with virtual-time processes.
//
// The engine owns a virtual clock and an event heap. Simulated processes
// are coroutines (iter.Pull) of the one goroutine that drives the engine,
// the caller of Run or ShardSet.Run: the driver pops the heap (step), runs
// callback events itself and resumes a process by switching to its
// coroutine; a process that blocks or finishes switches straight back.
// Exactly one of them executes at any instant and the Go scheduler is not
// involved in the switch, so no locking is needed inside simulation code
// and runs are reproducible. Events that fire at the same virtual time
// are ordered by their scheduling sequence number. A Sleep whose
// resumption would be the next event dispatched does not switch at all:
// it takes the event's sequence number, advances the clock and returns.
//
// A parked process is still a goroutine, and its stack keeps everything
// it references reachable — for a daemon blocked forever, the whole
// simulated machine. Close ends a finished simulation: it unwinds every
// parked process and drops the event heap, so whoever builds an engine
// closes it once done reading it.
//
// All timing uses time.Duration as virtual nanoseconds since the start of
// the run.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Engine is a discrete-event simulator. Create one with NewEngine, add
// processes with Go, and execute with Run — or, for an engine that is a
// shard of a ShardSet, with ShardSet.Run. Both drivers execute events
// the same way, one window at a time through runWindow. An Engine must
// not be shared between concurrently running simulations.
type Engine struct {
	now    time.Duration
	seq    uint64
	heap   eventHeap
	rng    *xrand.Rand
	procs  map[*Proc]uint64 // unfinished processes → spawn event's seq
	live   int
	failv  error // first Fail or panic; ends the window
	rec    *trace.Recorder
	states []regState // snapshot section roots, registration order
	closed bool       // Close ran: Go and Run panic

	// bound is the open window's exclusive time bound: step dispatches
	// only events strictly before it. Run opens one window per call
	// (limit+1, or unbounded); ShardSet.Run opens one per barrier.
	bound time.Duration

	// Sharded-mode wiring (nil/zero on a standalone engine): the set this
	// engine is a shard of, its shard index, and the per-shard emission
	// counter that orders its outbound cross-shard events. See shard.go.
	set      *ShardSet
	shard    int
	crossSeq uint64
}

// regState is one registered snapshot root.
type regState struct {
	label string
	root  any
}

// event is one entry of the heap: a process resumption (Sleep, wake,
// spawn) when p is set, else the callback afn(arg). Callers that fire
// the same callback repeatedly pass one func value and a pooled or
// long-lived pointer argument, so scheduling allocates nothing.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
	afn func(any)
	arg any
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   xrand.New(seed),
		procs: make(map[*Proc]uint64),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seq returns the number of events scheduled on this engine so far (it
// is also the snapshot header's sequence counter).
func (e *Engine) Seq() uint64 { return e.seq }

// SetRecorder attaches a span recorder. Instrumented layers read it
// through Recorder(); a nil recorder (the default) disables tracing at
// the cost of a nil check per span site.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the attached span recorder (nil when tracing is
// off; all trace.Recorder methods are nil-safe).
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Fail records err as a fatal simulation failure: Run returns it once the
// current event finishes. It exists for code running in event or device
// context (NIC receive pipelines, IRQ delivery) where there is no process
// whose return value could carry the error; process bodies should return
// errors normally instead. Only the first failure is kept.
func (e *Engine) Fail(err error) {
	if e.failv == nil && err != nil {
		e.failv = err
	}
}

// Rng returns the engine's deterministic random source. It must only be
// used from simulation context (an event callback or a running process).
// The generator's state is part of the engine snapshot, so draws made
// by a restored run continue the straight run's sequence exactly.
func (e *Engine) Rng() *xrand.Rand { return e.rng }

// atProc schedules p to resume at absolute virtual time at. Times in
// the past are clamped to the present.
func (e *Engine) atProc(at time.Duration, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, p: p})
}

// AfterArg schedules fn(arg) to run d from now. It allocates nothing
// when fn is a reused func value and arg is a pointer: hot callers (the
// fabric schedules one delivery per packet) pool their argument records
// and pass the same fn every time.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) {
	at := later(e.now, d)
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.heap.push(event{at: at, seq: e.seq, afn: fn, arg: arg})
}

// Proc is a simulated process. Its methods must only be called from the
// process body.
//
// Snapshots print a process by name, state and daemon flag; the engine
// back-pointer and the coroutine handles are not state of their own.
type Proc struct {
	e      *Engine `snap:"-"`
	name   string
	next   func() (struct{}, bool) `snap:"-"` // driver side: run the body until it blocks or ends
	stop   func()                  `snap:"-"` // driver side: unwind the body (Close)
	yield  func(struct{}) bool     `snap:"-"` // body side: switch back to the driver
	state  string                  // for deadlock diagnostics
	daemon bool
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Go creates a process executing fn, starting at the current virtual
// time. fn runs as a coroutine of the engine's driver, only between a
// resumption event and its next blocking Proc method (Sleep, Queue.Pop,
// Cond.Wait, ...).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon creates an infrastructure process (a Linux CPU worker, a
// verbs HCA pipeline, ...) that is expected to block forever: daemons do
// not keep Run alive and do not count as deadlocked. Device pipelines
// that need no stack are event handlers instead (the HFI's SDMA engines
// and receive pipeline): Queue.TryPop, Resource.TryAcquire and
// Cond.WaitFunc queue a callback where a daemon would block.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	e.mustBeOpen("Go")
	p := &Proc{e: e, name: name, daemon: daemon}
	e.live++
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// The recover sits inside the coroutine so the captured stack is
		// the panicking body's; iter.Pull alone would re-raise the panic
		// on the driver's stack. A runtime.Goexit (t.FailNow in a body)
		// is not recovered: next passes it on and the driver exits.
		defer func() {
			if r := recover(); r != nil && r != errClosed {
				pe := &PanicError{Proc: p.name, Value: r, Stack: debug.Stack()}
				if e.closed {
					panic(pe) // a deferred call broke while Close unwound it
				}
				e.Fail(pe)
			}
			e.live--
			delete(e.procs, p)
		}()
		fn(p)
	})
	e.atProc(e.now, p)
	e.procs[p] = e.seq
	return p
}

// errClosed unwinds a process parked when its engine is closed: block
// panics with it, and spawn's recover lets it end the body silently.
var errClosed = errors.New("sim: engine closed")

// block suspends the calling process until it is woken via wake: it
// switches back to the driver, which dispatches onward. A yield that
// returns false is Close stopping the coroutine.
func (p *Proc) block(state string) {
	p.state = state
	if !p.yield(struct{}{}) {
		panic(errClosed)
	}
	p.state = ""
}

// Close ends a finished simulation and releases what it holds. Every
// process that has not returned — daemons blocked forever, processes a
// deadlock or a failure left parked, processes spawned but never
// started — is unwound in spawn order, and the event heap is dropped.
//
// Unwinding runs a body's deferred calls as a panic would; a call in
// them that blocks unwinds instead. Read state such a call can touch (a
// syscall profile, a simulated lock, a span recorder) before Close;
// the clock, counters and everything else stay readable after it. A
// panic raised by a deferred call is re-raised from Close, once every
// process is unwound. Close is idempotent, and the engine cannot be
// reused: Go, GoDaemon and Run on a closed engine panic.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// No window is open: a Sleep in a deferred call fails its bound
	// check and reaches yield, which unwinds it.
	e.bound = 0
	procs := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return e.procs[procs[i]] < e.procs[procs[j]] })
	var broken any
	for _, p := range procs {
		if r := p.unwind(); r != nil && broken == nil {
			broken = r
		}
	}
	// A process never started never ran spawn's deferred bookkeeping.
	e.heap, e.procs, e.live = nil, nil, 0
	if broken != nil {
		panic(broken)
	}
}

// unwind stops p's coroutine and returns what a deferred call of its
// body panicked with (nil: it unwound cleanly).
func (p *Proc) unwind() (broken any) {
	defer func() { broken = recover() }()
	p.stop()
	return nil
}

// mustBeOpen panics when op is attempted on a closed engine.
func (e *Engine) mustBeOpen(op string) {
	if e.closed {
		panic("sim: " + op + " on an engine after Close")
	}
}

// callbackProc is the PanicError.Proc value of a panic raised by an
// AfterArg callback rather than by a process body.
const callbackProc = "(event callback)"

// step is the dispatcher: it runs queued events strictly before the
// window bound, in (at, seq) order, until it reaches a process
// resumption, which it returns for runWindow to switch to (nil: the
// window is drained or a failure is latched). Callback events run here,
// on the driver and between processes, so a callback's panic is caught
// before it can unwind into anything else and latched as a PanicError
// naming no process.
func (e *Engine) step() *Proc {
	defer func() {
		if r := recover(); r != nil {
			e.Fail(&PanicError{Proc: callbackProc, Value: r, Stack: debug.Stack()})
		}
	}()
	for len(e.heap) > 0 && e.heap[0].at < e.bound && e.failv == nil {
		ev := e.heap.pop()
		e.now = ev.at
		if ev.p != nil {
			return ev.p
		}
		ev.afn(ev.arg)
	}
	return nil
}

// endOfTime is the latest virtual time. A delay that would carry a sum
// past it saturates here, and an event at endOfTime never runs: windows
// are bounded exclusively, so both drivers stop with it still queued
// and report the processes waiting on it as deadlocked.
const endOfTime = time.Duration(math.MaxInt64)

// later returns t+d for a time t >= 0, saturated at endOfTime.
func later(t, d time.Duration) time.Duration {
	if d > endOfTime-t {
		return endOfTime
	}
	return t + d
}

// wake schedules p to resume at the current virtual time.
func (e *Engine) wake(p *Proc) {
	e.atProc(e.now, p)
}

// Sleep advances the process's virtual time by d. Negative durations are
// treated as zero; a sleep past the end of time never returns.
//
// When nothing is ordered before the resumption event and step would
// dispatch it next (inside the window, no failure latched), the switch
// pair to the driver and back would land right here: the event takes
// its sequence number and the clock moves, but it never enters the
// heap.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	e.seq++
	ev := event{at: later(e.now, d), seq: e.seq, p: p}
	if (len(e.heap) == 0 || ev.before(&e.heap[0])) && ev.at < e.bound && e.failv == nil {
		e.now = ev.at
		return
	}
	e.heap.push(ev)
	p.block("sleep")
}

// PanicError is returned (wrapped) by Run and ShardSet.Run when a
// simulated process or an event callback panics. It preserves the
// panicking process's name ("(event callback)" for a callback), the
// panic value and the stack captured at recover time — the body's own
// coroutine stack, or the driver's for a callback — and unwraps via
// errors.As.
type PanicError struct {
	Proc  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Proc == callbackProc {
		return fmt.Sprintf("event callback panicked: %v\n%s", e.Value, e.Stack)
	}
	return fmt.Sprintf("proc %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// DeadlockError is returned by Run when processes remain blocked but no
// events are pending before the end of time.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string // "name [state]" of each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %v",
		d.Now, len(d.Blocked), d.Blocked)
}

// deadlockError reports the non-daemon processes still blocked on the
// given engines once every queue has drained (nil if there are none).
func deadlockError(now time.Duration, engines ...*Engine) error {
	var blocked []string
	for _, e := range engines {
		for p := range e.procs {
			if !p.daemon {
				blocked = append(blocked, fmt.Sprintf("%s [%s]", p.name, p.state))
			}
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: now, Blocked: blocked}
}

// runWindow dispatches every queued event with time strictly before
// bound and returns the latched failure, if any. It is the only caller
// of step and the only place a process is resumed, so callbacks and
// process switches all happen on the goroutine that called it; limit
// handling and deadlock detection belong to the callers, Run and
// ShardSet.Run.
func (e *Engine) runWindow(bound time.Duration) error {
	e.bound = bound
	for q := e.step(); q != nil; q = e.step() {
		q.next()
	}
	if e.failv != nil {
		return fmt.Errorf("sim: %w", e.failv)
	}
	return nil
}

// Run executes events until the heap is empty or until limit (if > 0) is
// reached. It returns a *DeadlockError if processes remain blocked with
// no pending events, and a *PanicError (wrapped) if any process or
// callback panicked.
//
// Run is resumable: an event past the limit stays queued, so
// Run(t) followed by Run(0) reaches exactly the same final state as a
// single Run(0).
func (e *Engine) Run(limit time.Duration) error {
	e.mustBeOpen("Run")
	if e.set != nil {
		// A shard's windows are bounded by the set's barrier; running
		// it alone would dispatch past cross-shard events not yet
		// injected and silently corrupt the schedule.
		panic("sim: Run called on a sharded engine (drive it with ShardSet.Run)")
	}
	// One window: events at exactly limit execute, so its exclusive
	// bound is limit+1; with no limit it is unbounded.
	bound := endOfTime
	if limit > 0 {
		bound = later(limit, 1)
	}
	if err := e.runWindow(bound); err != nil {
		return err
	}
	if limit > 0 && len(e.heap) > 0 {
		e.now = limit
		return nil
	}
	return deadlockError(e.now, e)
}

// eventHeap is a binary min-heap ordered by (at, seq). push and pop
// sift with a hole: the moving event is held aside while each event it
// passes is written once into the slot above or below it, and the
// moving event lands in the final slot.
type eventHeap []event

// before reports whether a is ordered ahead of b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, event{})
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}
