package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// Tests of the process switch itself: what Goexit in a body, spawn and
// self-resumption do with a process that is a coroutine of the driver.
// The panic contracts are in panic_resume_test.go.

// TestGoexitInBodyEndsTheDriver: t.FailNow inside a process body calls
// runtime.Goexit on the coroutine. It must end the goroutine driving the
// engine — the test — and not leave it waiting on a process that is gone.
func TestGoexitInBodyEndsTheDriver(t *testing.T) {
	e := NewEngine(1)
	e.Go("quitter", func(p *Proc) {
		p.Sleep(5)
		runtime.Goexit()
	})
	e.Go("bystander", func(p *Proc) { p.Sleep(10) })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = e.Run(0) // never returns: the Goexit unwinds through it
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("driver still running 10 s after a body called Goexit")
	}
	if returned {
		t.Fatal("Run returned normally after a body called Goexit")
	}
	if e.live != 1 {
		t.Fatalf("live = %d, want 1: the quitter's exit was not accounted", e.live)
	}
}

// TestSpawnMidWindow: processes created by a running body and by a
// callback start at the current instant in spawn order, after what was
// already queued for it (the callback was scheduled before the parent's
// sleep, so it goes first); a body that never blocks runs to its end in
// one resumption.
func TestSpawnMidWindow(t *testing.T) {
	e := NewEngine(1)
	var log []string
	rec := func(s string) { log = append(log, fmt.Sprintf("%d:%s", int64(e.Now()), s)) }
	e.Go("parent", func(p *Proc) {
		p.Sleep(10)
		e.Go("child", func(p *Proc) {
			rec("child")
			p.Sleep(5)
			rec("child-woke")
		})
		rec("parent-spawned")
		p.Sleep(0)
		rec("parent-yielded")
	})
	e.AfterArg(10, func(any) {
		e.Go("from-callback", func(*Proc) { rec("from-callback") })
		rec("callback-spawned")
	}, nil)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "10:callback-spawned 10:parent-spawned 10:from-callback 10:child 10:parent-yielded 15:child-woke"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("log moved:\n got %s\nwant %s", got, want)
	}
	if e.live != 0 || len(e.procs) != 0 {
		t.Fatalf("live = %d, procs = %d after every body returned", e.live, len(e.procs))
	}
}

func TestManyProcessesAllFinish(t *testing.T) {
	const n = 10000
	e := NewEngine(1)
	finished := 0
	for i := 0; i < n; i++ {
		d := time.Duration(i%97 + 1)
		e.Go("p", func(p *Proc) {
			p.Sleep(d)
			finished++
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if finished != n || e.live != 0 || len(e.procs) != 0 {
		t.Fatalf("finished = %d, live = %d, procs = %d; want %d, 0, 0", finished, e.live, len(e.procs), n)
	}
}

// countResumes wraps p.next so a test can see how often the driver
// switched to p.
func countResumes(p *Proc) *int {
	n := new(int)
	next := p.next
	p.next = func() (struct{}, bool) {
		*n++
		return next()
	}
	return n
}

// TestSelfResumeSwitchesNothing: a sleep that nothing interleaves with
// returns from Sleep without an event, so a lone process is resumed once
// however often it sleeps, while two processes in lockstep are resumed
// once per event; the clock and sequence numbers cannot tell the two
// paths apart.
func TestSelfResumeSwitchesNothing(t *testing.T) {
	const sleeps = 100
	body := func(p *Proc) {
		for i := 0; i < sleeps; i++ {
			p.Sleep(10)
		}
	}
	lone := NewEngine(1)
	resumes := countResumes(lone.Go("lone", body))
	if err := lone.Run(0); err != nil {
		t.Fatal(err)
	}
	if *resumes != 1 {
		t.Fatalf("lone sleeper was resumed %d times, want 1", *resumes)
	}
	if lone.Now() != sleeps*10 || lone.Seq() != sleeps+1 {
		t.Fatalf("Now = %v, Seq = %d; want %v, %d", lone.Now(), lone.Seq(), time.Duration(sleeps*10), sleeps+1)
	}

	pair := NewEngine(1)
	ra, rb := countResumes(pair.Go("a", body)), countResumes(pair.Go("b", body))
	if err := pair.Run(0); err != nil {
		t.Fatal(err)
	}
	if *ra != sleeps+1 || *rb != sleeps+1 {
		t.Fatalf("interleaved sleepers were resumed %d and %d times, want %d each", *ra, *rb, sleeps+1)
	}
}

// TestSelfResumeRespectsBoundAndFailure: Sleep returns at once only under
// the two conditions step dispatches by. A resumption at or past the
// window bound stays queued for the next Run, and once a failure is
// latched the process stays blocked and is named in the state it blocked
// in.
func TestSelfResumeRespectsBoundAndFailure(t *testing.T) {
	e := NewEngine(1)
	var at []time.Duration
	e.Go("lone", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10)
			at = append(at, p.Now())
		}
	})
	if err := e.Run(25); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(at) != "[10ns 20ns]" || e.Now() != 25 {
		t.Fatalf("after Run(25): woke at %v, Now = %v", at, e.Now())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(at) != "[10ns 20ns 30ns 40ns]" {
		t.Fatalf("after resume: woke at %v", at)
	}

	wedged := errors.New("device wedged")
	e = NewEngine(1)
	e.Go("lone", func(p *Proc) {
		e.Fail(wedged)
		p.Sleep(10)
		t.Error("process ran on after a latched failure")
	})
	if err := e.Run(0); !errors.Is(err, wedged) {
		t.Fatalf("Run = %v, want the latched failure", err)
	}
	err := deadlockError(e.Now(), e)
	var dl *DeadlockError
	if !errors.As(err, &dl) || fmt.Sprint(dl.Blocked) != "[lone [sleep]]" {
		t.Fatalf("blocked after the failure = %v, want [lone [sleep]]", err)
	}
}

// TestSleepTieAndBoundRows: Sleep returns without yielding only when its
// resumption is ordered before every queued event and lies strictly
// inside the window. An event queued for the same instant has the lower
// sequence number and runs first; a wake-up at the bound itself belongs
// to the next window, on one engine and on a shard of a set alike.
func TestSleepTieAndBoundRows(t *testing.T) {
	t.Run("tie with a callback", func(t *testing.T) {
		e := NewEngine(1)
		var log []string
		e.AfterArg(10, func(any) { log = append(log, fmt.Sprint(e.Now(), ":cb")) }, nil)
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(10)
			log = append(log, fmt.Sprint(p.Now(), ":sleeper"))
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(log, " "); got != "10ns:cb 10ns:sleeper" {
			t.Fatalf("log = %s, want the queued callback first", got)
		}
	})
	t.Run("tie with a process", func(t *testing.T) {
		e := NewEngine(1)
		var log []string
		e.Go("early", func(p *Proc) {
			p.Sleep(10) // queued: the sleeper's spawn event is still pending
			log = append(log, fmt.Sprint(p.Now(), ":early"))
		})
		sleeper := e.Go("sleeper", func(p *Proc) {
			p.Sleep(5)
			p.Sleep(5) // ties with early's resumption, which has the lower seq
			log = append(log, fmt.Sprint(p.Now(), ":sleeper"))
		})
		resumes := countResumes(sleeper)
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(log, " "); got != "10ns:early 10ns:sleeper" {
			t.Fatalf("log = %s, want the earlier-queued process first", got)
		}
		// Spawn, and the tied wake-up; the sleep to 5ns had nothing
		// before it.
		if *resumes != 2 {
			t.Fatalf("sleeper resumed %d times, want 2", *resumes)
		}
	})
	t.Run("wake at the bound", func(t *testing.T) {
		e := NewEngine(1)
		var woke []time.Duration
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(26) // Run(25)'s window is [0, 26)
			woke = append(woke, p.Now())
		})
		if err := e.Run(25); err != nil {
			t.Fatal(err)
		}
		if len(woke) != 0 || e.Now() != 25 || len(e.heap) != 1 {
			t.Fatalf("after Run(25): woke at %v, Now = %v, %d queued; want none, 25ns, 1", woke, e.Now(), len(e.heap))
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(woke) != "[26ns]" {
			t.Fatalf("after resume: woke at %v", woke)
		}
	})
	t.Run("wake at the bound, 2 shards", func(t *testing.T) {
		s, err := NewShardSet(1, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		a, b := s.Engines()[0], s.Engines()[1]
		a.Go("sleeper", func(p *Proc) {
			p.Sleep(100) // the first window is [0, 100)
			log = append(log, fmt.Sprint(p.Now(), ":sleeper:window", s.Windows))
		})
		b.Go("peer", func(p *Proc) {
			p.Sleep(99)
			log = append(log, fmt.Sprint(p.Now(), ":peer:window", s.Windows))
		})
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(log, " "); got != "99ns:peer:window0 100ns:sleeper:window1" || s.Windows != 2 {
			t.Fatalf("log = %s after %d windows, want the sleeper in the second of 2", got, s.Windows)
		}
	})
}

// TestEnginesIsolatedAcrossGoroutines: each engine's coroutines belong
// to whichever goroutine drives it and to no other, so eight engines
// driven from eight runner workers reproduce the serial logs exactly.
// CI runs this package with -race -count=10 for this test.
func TestEnginesIsolatedAcrossGoroutines(t *testing.T) {
	const engines, procs = 8, 64
	jobs := make([]runner.Job[string], engines)
	for i := range jobs {
		seed := int64(i + 1)
		jobs[i] = runner.Job[string]{ID: fmt.Sprint("engine-", i), Fn: func() (string, error) {
			e := NewEngine(seed)
			q := NewQueue[int](e)
			var log []string
			for j := 0; j < procs; j++ {
				id := j
				e.Go(fmt.Sprint("p", id), func(p *Proc) {
					for k := 0; k < 5; k++ {
						p.Sleep(time.Duration(e.Rng().Int63n(50)))
						q.Push(id*10 + k)
					}
				})
			}
			e.Go("drain", func(p *Proc) {
				for k := 0; k < procs*5; k++ {
					log = append(log, fmt.Sprintf("%d:%d", int64(p.Now()), q.Pop(p)))
				}
			})
			err := e.Run(0)
			return strings.Join(log, " "), err
		}}
	}
	serial, err := runner.Run(runner.New(1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.Run(runner.New(engines), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("engine %d: log differs between 1 and %d workers", i, engines)
		}
	}
	if serial[0] == serial[1] {
		t.Fatal("different seeds produced identical logs (suspicious)")
	}
}
