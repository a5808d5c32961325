package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestRunLimitKeepsFirstEventPastLimit is the regression test for the
// event-dropping Run(limit) bug: the first event beyond the limit used
// to be popped and discarded, so a resumed Run silently lost it.
func TestRunLimitKeepsFirstEventPastLimit(t *testing.T) {
	e := NewEngine(1)
	var fired []time.Duration
	for _, at := range []time.Duration{10, 150, 300} {
		at := at
		e.AfterArg(at, func(any) { fired = append(fired, at) }, nil)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[10ns]" {
		t.Fatalf("fired after Run(100) = %v, want [10ns]", fired)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Pre-fix, the 150ns event was dropped by Run(100) and only 300
	// fired here.
	if fmt.Sprint(fired) != "[10ns 150ns 300ns]" {
		t.Fatalf("fired after resume = %v, want all three events", fired)
	}
	if e.Now() != 300 {
		t.Fatalf("Now = %v, want 300ns", e.Now())
	}
}

// runSplitScenario executes a process-based scenario either in one
// Run(0) or as Run(split); Run(0), returning the observable trace.
func runSplitScenario(seed int64, split time.Duration) []string {
	e := NewEngine(seed)
	q := NewQueue[int](e)
	var log []string
	for i := 0; i < 4; i++ {
		id := i
		e.Go(fmt.Sprintf("p%d", id), func(p *Proc) {
			for j := 0; j < 6; j++ {
				p.Sleep(time.Duration(e.Rng().Int63n(40) + 1))
				q.Push(id*10 + j)
			}
		})
	}
	e.Go("drain", func(p *Proc) {
		for i := 0; i < 24; i++ {
			v := q.Pop(p)
			log = append(log, fmt.Sprintf("%v:%d", p.Now(), v))
		}
	})
	if split > 0 {
		if err := e.Run(split); err != nil {
			log = append(log, "ERR:"+err.Error())
			return log
		}
	}
	if err := e.Run(0); err != nil {
		log = append(log, "ERR:"+err.Error())
	}
	log = append(log, fmt.Sprintf("final:%v", e.Now()))
	return log
}

// TestRunSplitResumeEquivalence checks that splitting a run at an
// arbitrary virtual time yields exactly the single-run behavior.
func TestRunSplitResumeEquivalence(t *testing.T) {
	whole := runSplitScenario(7, 0)
	f := func(seed int64, rawSplit uint16) bool {
		split := time.Duration(rawSplit%500) + 1
		return fmt.Sprint(runSplitScenario(seed, split)) == fmt.Sprint(runSplitScenario(seed, 0))
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Sanity: the fixed-seed scenario completes and drains all 24 items.
	if len(whole) != 25 {
		t.Fatalf("scenario log has %d entries, want 25", len(whole))
	}
}

// bombBody is a named function so its frame can be looked for in
// PanicError.Stack.
func bombBody(p *Proc) {
	p.Sleep(3)
	panic("kaboom")
}

// TestPanicErrorCarriesStack is the regression test for panics being
// flattened to a string: Run's error must unwrap to a *PanicError with
// the process name, panic value and a captured stack — the panicking
// body's own, which is why spawn recovers inside the coroutine instead
// of letting iter.Pull re-raise the panic on the driver — on both engine
// shapes, and the body's exit must still be accounted.
func TestPanicErrorCarriesStack(t *testing.T) {
	check := func(t *testing.T, err error, e *Engine) {
		t.Helper()
		if err == nil {
			t.Fatal("expected error from panicking proc")
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("errors.As(*PanicError) failed on %T: %v", err, err)
		}
		if pe.Proc != "bomb" {
			t.Fatalf("Proc = %q, want bomb", pe.Proc)
		}
		if fmt.Sprint(pe.Value) != "kaboom" {
			t.Fatalf("Value = %v, want kaboom", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") || !strings.Contains(string(pe.Stack), "bombBody") {
			t.Fatalf("Stack is not the panicking body's: %q", pe.Stack)
		}
		if !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("error text %q does not mention the panic value", err)
		}
		if e.live != 1 {
			t.Fatalf("live = %d after the bomb ended, want 1 (the bystander)", e.live)
		}
	}
	t.Run("engine", func(t *testing.T) {
		e := NewEngine(1)
		e.Go("bomb", bombBody)
		e.Go("bystander", bystanderBody)
		check(t, e.Run(0), e)
	})
	t.Run("shards=2", func(t *testing.T) {
		s, err := NewShardSet(1, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		s.Engines()[0].Go("other-shard", func(p *Proc) { p.Sleep(40) })
		e := s.Engines()[1]
		e.Go("bomb", bombBody)
		e.Go("bystander", bystanderBody)
		check(t, s.Run(0), e)
	})
}

// TestFailErrorUnwraps checks that Engine.Fail errors keep their chain
// through Run's wrapping.
func TestFailErrorUnwraps(t *testing.T) {
	sentinel := errors.New("device wedged")
	e := NewEngine(1)
	e.AfterArg(5, func(any) { e.Fail(fmt.Errorf("nic: %w", sentinel)) }, nil)
	err := e.Run(0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is failed: %v", err)
	}
}

// bystanderBody is a named function so its frame can be looked for in
// PanicError.Stack.
func bystanderBody(p *Proc) {
	for i := 0; i < 4; i++ {
		p.Sleep(10)
	}
}

// TestCallbackPanicNamesNoProcess: an event callback always runs on the
// driver, between processes — also one that falls due while a process
// sleeps. Its panic must come back from Run as a *PanicError that
// identifies a callback, never the bystander process, and its stack must
// be free of the bystander's frames, on both engine shapes.
func TestCallbackPanicNamesNoProcess(t *testing.T) {
	// arm schedules the panicking callback and a live, sleeping process.
	// With first set the callback is the window's first event, before any
	// process has run; otherwise it falls between two of the bystander's
	// sleeps, right after the bystander has blocked. (The rows are still
	// labelled driver=true/false: the second used to be dispatched from
	// the bystander's own block.)
	arm := func(e *Engine, first bool) {
		boom := func(any) { panic("callback kaboom") }
		if first {
			e.AfterArg(0, boom, nil)
		}
		e.Go("bystander", bystanderBody)
		if !first {
			e.AfterArg(25, boom, nil)
		}
	}
	check := func(t *testing.T, err error) {
		t.Helper()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Run = %v (%T), want a wrapped *PanicError", err, err)
		}
		if pe.Proc != "(event callback)" {
			t.Fatalf("Proc = %q, want the reserved callback value", pe.Proc)
		}
		if fmt.Sprint(pe.Value) != "callback kaboom" {
			t.Fatalf("Value = %v", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("Stack not captured: %q", pe.Stack)
		}
		if strings.Contains(string(pe.Stack), "bystanderBody") {
			t.Fatalf("callback panicked on a process's stack:\n%s", pe.Stack)
		}
		if strings.Contains(strings.SplitN(err.Error(), "\n", 2)[0], "bystander") {
			t.Fatalf("error blames a process that did not panic: %v", err)
		}
	}
	for _, first := range []bool{true, false} {
		t.Run(fmt.Sprintf("engine/driver=%v", first), func(t *testing.T) {
			e := NewEngine(1)
			arm(e, first)
			check(t, e.Run(0))
		})
		t.Run(fmt.Sprintf("shards=2/driver=%v", first), func(t *testing.T) {
			s, err := NewShardSet(1, 2, 100)
			if err != nil {
				t.Fatal(err)
			}
			s.Engines()[0].Go("other-shard", func(p *Proc) { p.Sleep(40) })
			arm(s.Engines()[1], first)
			check(t, s.Run(0))
		})
	}
}
