package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, func() { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var at []time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		at = append(at, p.Now())
		p.Sleep(50)
		at = append(at, p.Now())
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 100 || at[1] != 150 {
		t.Fatalf("wake times = %v", at)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine(1)
	done := false
	e.Go("p", func(p *Proc) {
		p.Sleep(-5)
		done = true
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.After(10, func() { fired++ })
	e.After(1000, func() { fired++ })
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Go(name, func(p *Proc) {
			v := q.Pop(p)
			got = append(got, fmt.Sprintf("%s=%d", p.Name(), v))
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 3; i++ {
			q.Push(i)
			p.Sleep(1)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "[w0=0 w1=1 w2=2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	ready := false
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woke++
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(10)
		ready = true
		c.Broadcast()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestResourceContention(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	var finished []time.Duration
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 100)
			finished = append(finished, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// 2 servers, 4 jobs of 100ns: two finish at 100, two at 200.
	if len(finished) != 4 || finished[0] != 100 || finished[1] != 100 ||
		finished[2] != 200 || finished[3] != 200 {
		t.Fatalf("finish times = %v", finished)
	}
	if r.Busy != 400 {
		t.Fatalf("busy = %v, want 400", r.Busy)
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		d := time.Duration(i * 100)
		e.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if doneAt != 300 {
		t.Fatalf("doneAt = %v, want 300", doneAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.Go("stuck", func(p *Proc) { q.Pop(p) })
	err := e.Run(0)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if err := e.Run(0); err == nil {
		t.Fatal("expected error from panicking proc")
	}
}

// TestDeterminism runs the same randomized scenario twice and requires
// identical event traces.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		e := NewEngine(seed)
		q := NewQueue[int](e)
		var trace []string
		for i := 0; i < 8; i++ {
			id := i
			e.Go(fmt.Sprintf("p%d", id), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(e.Rng().Intn(50)))
					q.Push(id*10 + j)
				}
			})
		}
		e.Go("drain", func(p *Proc) {
			for i := 0; i < 40; i++ {
				v := q.Pop(p)
				trace = append(trace, fmt.Sprintf("%v:%d", p.Now(), v))
			}
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(42), run(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different traces")
	}
	c := run(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// TestHeapProperty checks the event heap against a sort-based oracle.
func TestHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine(1)
		var got []time.Duration
		for _, d := range delays {
			at := time.Duration(d)
			e.After(at, func() { got = append(got, at) })
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return len(got) == len(delays)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestYieldRunsPendingEvents(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "[a1 b1 a2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestDaemonsDoNotCountAsDeadlock(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	e.GoDaemon("server", func(p *Proc) {
		for {
			q.Pop(p) // blocks forever once work dries up
		}
	})
	e.Go("client", func(p *Proc) {
		q.Push(1)
		p.Sleep(10)
	})
	if err := e.Run(0); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	// A blocked NON-daemon still deadlocks.
	e2 := NewEngine(1)
	q2 := NewQueue[int](e2)
	e2.GoDaemon("server", func(p *Proc) { q2.Pop(p) })
	e2.Go("stuck", func(p *Proc) { q2.Pop(p) })
	if err := e2.Run(0); err == nil {
		t.Fatal("blocked non-daemon not reported")
	}
}

// Micro-benchmarks of the process switch, beside the code they time.
// Run each at -cpu 1,2: a coroutine switch never enters the scheduler,
// so the two columns should read the same.

// BenchmarkProcEvent: 64 processes sleeping one tick round-robin, so
// every event is a resumption of a process other than the one that just
// blocked — one switch to the driver and one to the next process.
func BenchmarkProcEvent(b *testing.B) {
	const procs = 64
	e := NewEngine(1)
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueHandoff: one item pushed and popped between two
// processes per iteration, each side blocking on the other.
func BenchmarkQueueHandoff(b *testing.B) {
	e := NewEngine(1)
	ping, pong := NewQueue[int](e), NewQueue[int](e)
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Push(ping.Pop(p))
		}
	})
	b.ResetTimer()
	if err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn: create a process, run it to completion.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.Go("p", func(p *Proc) {})
		if err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpawnAllocs pins what creating one process allocates, most of it
// iter.Pull's bookkeeping (measured on go1.24; a channel and a closure
// cost 3). The benchmark's regen_sweep spawns ≈5 600 processes, so a
// closure added to spawn, or a runtime that changes iter.Pull, should
// show up here as a number rather than there as mallocs_k drift.
func TestSpawnAllocs(t *testing.T) {
	// The runtime allocates a goroutine descriptor only when it has no
	// finished one to recycle (one object more). Finish more processes
	// than will be measured, so the count does not depend on which tests
	// ran before this one.
	const runs = 100
	e := NewEngine(1)
	defer e.Close()
	body := func(p *Proc) {}
	for i := 0; i < 4*runs; i++ {
		e.Go("recycled", body)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(runs, func() { e.GoDaemon("d", body) })
	if want := 12.0; got != want {
		t.Fatalf("GoDaemon allocates %v objects per process, want %v", got, want)
	}
}
