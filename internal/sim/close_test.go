package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests of Engine.Close: a parked process is a goroutine until its
// engine is closed, and closing unwinds it the way a panic would.

// settleGoroutines waits up to a second for runtime.NumGoroutine to fall
// back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the engine was built", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkClosed closes engines in order and requires every process gone:
// no goroutine above base, no live process, an empty heap.
func checkClosed(t *testing.T, base int, engines ...*Engine) {
	t.Helper()
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines with processes parked, %d before: nothing to release", n, base)
	}
	for _, e := range engines {
		e.Close()
	}
	settleGoroutines(t, base)
	for i, e := range engines {
		if e.live != 0 || len(e.procs) != 0 || len(e.heap) != 0 {
			t.Fatalf("engine %d after Close: live = %d, procs = %d, events = %d", i, e.live, len(e.procs), len(e.heap))
		}
	}
}

// TestCloseUnwindsParkedProcesses parks eight processes per engine in
// each blocking primitive — in reverse spawn order, so parking order is
// not the order Close must use — on a standalone engine and on both
// shards of a set. Close must end every coroutine and run each body's
// defers exactly once, engine by engine in spawn order.
func TestCloseUnwindsParkedProcesses(t *testing.T) {
	const n = 8
	type parker func(e *Engine) func(p *Proc)
	cases := []struct {
		name  string
		limit time.Duration // Run's limit: only the sleepers need one
		park  parker
	}{
		{"sleep-past-limit", 100, func(*Engine) func(*Proc) {
			return func(p *Proc) { p.Sleep(time.Second) }
		}},
		{"queue-pop", 0, func(e *Engine) func(*Proc) {
			q := NewQueue[int](e)
			return func(p *Proc) { q.Pop(p) }
		}},
		{"cond-wait", 0, func(e *Engine) func(*Proc) {
			c := NewCond(e)
			return func(p *Proc) { c.Wait(p) }
		}},
		{"resource-acquire", 0, func(e *Engine) func(*Proc) {
			r := NewResource(e, 1)
			r.inUse = 1
			return func(p *Proc) { r.Acquire(p) }
		}},
		{"waitgroup-wait", 0, func(e *Engine) func(*Proc) {
			wg := NewWaitGroup(e)
			wg.Add(1)
			return func(p *Proc) { wg.Wait(p) }
		}},
		{"rendezvous-wait", 0, func(e *Engine) func(*Proc) {
			r := NewRendezvous(e, n+1)
			return func(p *Proc) { r.Done(p); r.Wait(p) }
		}},
	}
	// spawn starts n daemons on e that park through park after
	// staggered sleeps and log their unwinding.
	spawn := func(e *Engine, tag string, park parker, log *[]string) (want []string) {
		block := park(e)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s%d", tag, i)
			want = append(want, name)
			e.GoDaemon(name, func(p *Proc) {
				defer func() { *log = append(*log, name) }()
				p.Sleep(time.Duration(n - i))
				block(p)
				t.Errorf("%s returned from a primitive nothing releases", name)
			})
		}
		return want
	}
	for _, c := range cases {
		t.Run(c.name+"/engine", func(t *testing.T) {
			base := runtime.NumGoroutine()
			var log []string
			e := NewEngine(1)
			want := spawn(e, "p", c.park, &log)
			if err := e.Run(c.limit); err != nil {
				t.Fatal(err)
			}
			now := e.Now()
			checkClosed(t, base, e)
			if got := strings.Join(log, " "); got != strings.Join(want, " ") {
				t.Fatalf("defers ran as %q, want spawn order %q", got, want)
			}
			if e.Now() != now {
				t.Fatalf("Close moved the clock: %v → %v", now, e.Now())
			}
		})
		t.Run(c.name+"/shards=2", func(t *testing.T) {
			base := runtime.NumGoroutine()
			var log []string
			s, err := NewShardSet(1, 2, 100)
			if err != nil {
				t.Fatal(err)
			}
			want := append(spawn(s.Engines()[0], "a", c.park, &log), spawn(s.Engines()[1], "b", c.park, &log)...)
			if err := s.Run(c.limit); err != nil {
				t.Fatal(err)
			}
			checkClosed(t, base, s.Engines()...)
			if got := strings.Join(log, " "); got != strings.Join(want, " ") {
				t.Fatalf("defers ran as %q, want shard by shard in spawn order %q", got, want)
			}
		})
	}
}

// TestCloseNeverStartedAndQueued: a process spawned but never resumed
// has no body to unwind (its defers never ran, so Close does its
// bookkeeping), and one whose wakeup is queued unwinds from where it
// parked.
func TestCloseNeverStartedAndQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	var log []string
	e := NewEngine(1)
	c := NewCond(e)
	e.Go("woken", func(p *Proc) {
		defer func() { log = append(log, "woken") }()
		c.Wait(p)
		t.Error("woken ran past its Wait")
	})
	if err := e.Run(0); err == nil {
		t.Fatal("Run with a process parked on a Cond reported no deadlock")
	}
	c.Signal()
	e.Go("never", func(p *Proc) {
		log = append(log, "never")
		t.Error("a never-started process ran")
	})
	if e.live != 2 || len(e.heap) != 2 {
		t.Fatalf("live = %d, events = %d before Close; want 2, 2", e.live, len(e.heap))
	}
	checkClosed(t, base, e)
	if fmt.Sprint(log) != "[woken]" {
		t.Fatalf("log = %v, want [woken]", log)
	}
}

// TestCloseAfterFailure: Close releases an engine whose Run ended in a
// deadlock, a process panic or a latched Fail, the three ways a run
// leaves processes parked behind it.
func TestCloseAfterFailure(t *testing.T) {
	wedged := errors.New("device wedged")
	cases := []struct {
		name  string
		arm   func(e *Engine)
		check func(err error) bool
	}{
		{"deadlock", func(e *Engine) {
			q := NewQueue[int](e)
			e.Go("reader", func(p *Proc) { q.Pop(p) })
		}, func(err error) bool { var d *DeadlockError; return errors.As(err, &d) }},
		{"panic", func(e *Engine) {
			e.Go("bomb", bombBody)
		}, func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }},
		{"fail", func(e *Engine) {
			e.After(5, func() { e.Fail(wedged) })
		}, func(err error) bool { return errors.Is(err, wedged) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			e.Go("bystander", bystanderBody)
			e.GoDaemon("daemon", func(p *Proc) { NewCond(e).Wait(p) })
			c.arm(e)
			if err := e.Run(0); !c.check(err) {
				t.Fatalf("Run = %v", err)
			}
			checkClosed(t, base, e)
		})
	}
}

// mustPanic runs fn and returns the text of its panic ("" if none).
func mustPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestCloseIsFinal: Close is idempotent, and an engine that was closed
// refuses new processes and runs — standalone or as a shard — with a
// message that says why.
func TestCloseIsFinal(t *testing.T) {
	e := NewEngine(1)
	e.GoDaemon("d", func(p *Proc) { NewCond(e).Wait(p) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	s, err := NewShardSet(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Engines()[1].Close()
	for name, fn := range map[string]func(){
		"Go":           func() { e.Go("late", func(*Proc) {}) },
		"GoDaemon":     func() { e.GoDaemon("late", func(*Proc) {}) },
		"Run":          func() { _ = e.Run(0) },
		"ShardSet.Run": func() { _ = s.Run(0) },
	} {
		if msg := mustPanic(fn); !strings.Contains(msg, "after Close") {
			t.Errorf("%s on a closed engine: panic %q, want one naming Close", name, msg)
		}
	}
}

// TestCloseReraisesBrokenDefer: a deferred call that panics while Close
// unwinds its body is a bug in that body, so Close re-raises it — as a
// *PanicError naming the process — after unwinding everything else. A
// deferred call that blocks unwinds too, without moving the clock.
func TestCloseReraisesBrokenDefer(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var log []string
	e.GoDaemon("sleepy", func(p *Proc) {
		defer func() { log = append(log, "sleepy") }()
		defer func() {
			p.Sleep(5)
			t.Error("a Sleep in a deferred call returned during Close")
		}()
		NewCond(e).Wait(p)
	})
	e.GoDaemon("broken", func(p *Proc) {
		defer func() { panic("defer kaboom") }()
		NewCond(e).Wait(p)
	})
	e.GoDaemon("after", func(p *Proc) {
		defer func() { log = append(log, "after") }()
		NewCond(e).Wait(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	func() {
		defer func() { pe, _ = recover().(*PanicError) }()
		e.Close()
	}()
	if pe == nil || pe.Proc != "broken" || fmt.Sprint(pe.Value) != "defer kaboom" {
		t.Fatalf("Close raised %+v, want the broken defer's panic", pe)
	}
	settleGoroutines(t, base)
	if fmt.Sprint(log) != "[sleepy after]" || e.Now() != 0 || e.live != 0 {
		t.Fatalf("log = %v, Now = %v, live = %d; want [sleepy after], 0, 0", log, e.Now(), e.live)
	}
	e.Close() // already closed: nothing to re-raise
}
