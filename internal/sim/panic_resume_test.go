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
		e.After(at, func() { fired = append(fired, at) })
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
				p.Sleep(time.Duration(e.Rng().Intn(40) + 1))
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

// TestPanicErrorCarriesStack is the regression test for panics being
// flattened to a string: Run's error must unwrap to a *PanicError with
// the process name, panic value and a captured stack.
func TestPanicErrorCarriesStack(t *testing.T) {
	e := NewEngine(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(3)
		panic("kaboom")
	})
	err := e.Run(0)
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
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("Stack not captured: %q", pe.Stack)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error text %q does not mention the panic value", err)
	}
}

// TestFailErrorUnwraps checks that Engine.Fail errors keep their chain
// through Run's wrapping.
func TestFailErrorUnwraps(t *testing.T) {
	sentinel := errors.New("device wedged")
	e := NewEngine(1)
	e.After(5, func() { e.Fail(fmt.Errorf("nic: %w", sentinel)) })
	err := e.Run(0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is failed: %v", err)
	}
}

// TestCallbackPanicNamesNoProcess: an event callback runs on whichever
// goroutine holds the token — the driver, or a process that happened to
// block just before it. Its panic must come back from Run as a
// *PanicError that identifies a callback, never the bystander process,
// on both engine shapes.
func TestCallbackPanicNamesNoProcess(t *testing.T) {
	// arm schedules the panicking callback and a live, sleeping process.
	// With driver set the callback is the heap's first event, so Run's
	// own goroutine dispatches it; otherwise it falls inside one of the
	// bystander's sleeps and is dispatched from that process's block.
	arm := func(e *Engine, driver bool) {
		boom := func() { panic("callback kaboom") }
		if driver {
			e.After(0, boom)
		}
		e.Go("bystander", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(10)
			}
		})
		if !driver {
			e.After(25, boom)
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
		if strings.Contains(strings.SplitN(err.Error(), "\n", 2)[0], "bystander") {
			t.Fatalf("error blames a process that did not panic: %v", err)
		}
	}
	for _, driver := range []bool{true, false} {
		t.Run(fmt.Sprintf("engine/driver=%v", driver), func(t *testing.T) {
			e := NewEngine(1)
			arm(e, driver)
			check(t, e.Run(0))
		})
		t.Run(fmt.Sprintf("shards=2/driver=%v", driver), func(t *testing.T) {
			s, err := NewShardSet(1, 2, 100)
			if err != nil {
				t.Fatal(err)
			}
			s.Engines()[0].Go("other-shard", func(p *Proc) { p.Sleep(40) })
			arm(s.Engines()[1], driver)
			check(t, s.Run(0))
		})
	}
}
