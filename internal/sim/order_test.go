package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The literals in this file were recorded on the last commit that still
// had the pop-and-bounce engine loop (one heap pop per iteration, every
// process event bounced engine→process→engine over channels). They pin
// the (at, seq) dispatch order of step, runWindow and the sleep that
// Sleep returns from without an event to that loop's, so the equivalence
// the artifacts and simtest digests rest on is checked here as well.

const splitScenarioSeed7 = "10ns:20 19ns:10 22ns:21 31ns:0 32ns:11 39ns:30 47ns:22 54ns:31 55ns:12 68ns:1 68ns:23 70ns:32 84ns:13 87ns:14 88ns:2 92ns:33 94ns:3 97ns:4 100ns:24 102ns:25 108ns:5 123ns:34 125ns:35 127ns:15 final:127ns"

func TestSplitScenarioOrderPinned(t *testing.T) {
	if got := strings.Join(runSplitScenario(7, 0), " "); got != splitScenarioSeed7 {
		t.Fatalf("runSplitScenario(7, 0) event log moved:\n got %s\nwant %s", got, splitScenarioSeed7)
	}
}

// runMixScenario drives Queue, Cond, Resource and Rendezvous together
// with plain and argument callbacks. At t=50 a Broadcast wakes six
// waiters in the same instant two callbacks and a queue push land, so
// the log order there is decided by scheduling sequence alone.
func runMixScenario() []string {
	e := NewEngine(3)
	q := NewQueue[int](e)
	c := NewCond(e)
	r := NewResource(e, 2)
	joined := NewRendezvous(e, 7) // the six workers and burst
	var log []string
	rec := func(who, what string) {
		log = append(log, fmt.Sprintf("%d:%s:%s", int64(e.Now()), who, what))
	}
	open := false
	for i := 0; i < 6; i++ {
		id := i
		e.Go(fmt.Sprintf("w%d", id), func(p *Proc) {
			for !open {
				c.Wait(p)
			}
			rec(p.Name(), "woke")
			r.Use(p, time.Duration(10+e.Rng().Int63n(5)))
			rec(p.Name(), "used")
			q.Push(id)
			joined.Done(p)
		})
	}
	e.Go("burst", func(p *Proc) {
		p.Sleep(50)
		open = true
		c.Broadcast()
		rec("burst", "broadcast")
		p.Sleep(0)
		rec("burst", "yielded")
		joined.Done(p)
		joined.Wait(p)
		rec("burst", "joined")
	})
	e.AfterArg(50, func(any) {
		rec("cb", "after")
		q.Push(100)
	}, nil)
	e.AfterArg(50, func(a any) { rec("cb", fmt.Sprintf("arg%v", a)) }, 7)
	e.Go("drain", func(p *Proc) {
		for i := 0; i < 7; i++ {
			rec("drain", fmt.Sprintf("pop%d", q.Pop(p)))
		}
	})
	e.Go("tick", func(p *Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(7)
			rec("tick", fmt.Sprint(i))
		}
	})
	if err := e.Run(0); err != nil {
		log = append(log, "ERR:"+err.Error())
	}
	rec("end", fmt.Sprint(e.Seq()))
	return log
}

const mixScenario = "7:tick:0 14:tick:1 21:tick:2 28:tick:3 35:tick:4 42:tick:5 49:tick:6 50:cb:after 50:cb:arg7 50:burst:broadcast 50:drain:pop100 50:w0:woke 50:w1:woke 50:w2:woke 50:w3:woke 50:w4:woke 50:w5:woke 50:burst:yielded 56:tick:7 60:w1:used 60:drain:pop1 63:w0:used 63:tick:8 63:drain:pop0 70:tick:9 73:w2:used 73:drain:pop2 74:w3:used 74:drain:pop3 77:tick:10 84:w4:used 84:tick:11 84:drain:pop4 85:w5:used 85:drain:pop5 85:burst:joined 85:end:49"

func TestMixScenarioOrderPinned(t *testing.T) {
	if got := strings.Join(runMixScenario(), " "); got != mixScenario {
		t.Fatalf("runMixScenario event log moved:\n got %s\nwant %s", got, mixScenario)
	}
}

// runCallbackScenario runs one subject against process contenders. The
// subject takes three items from a Queue; for each it acquires a
// one-server Resource, holds it 5 ns, releases it and waits on a Cond
// until a gate is open. As a daemon process it does this with Pop,
// Acquire, Sleep and Wait; in callback form with TryPop, TryAcquire,
// AfterArg and WaitFunc, powered on by an AfterArg(0) where the daemon
// is spawned. A rival process pops the same Queue from t=20, a watcher
// waits on the same Cond, and a hog holding the Resource releases it
// at t=7 and takes it straight back, before the subject's grant runs:
// the subject must find the server taken and queue again. Each log
// line carries (Now(), Seq()), so the two forms must schedule event for
// event alike.
func runCallbackScenario(callbacks bool) (log []string, barged bool) {
	e := NewEngine(5)
	defer e.Close()
	q := NewQueue[int](e)
	c := NewCond(e)
	r := NewResource(e, 1)
	open := false
	rec := func(who, what string) {
		log = append(log, fmt.Sprintf("%d/%d:%s:%s", int64(e.Now()), e.Seq(), who, what))
	}
	e.Go("hog", func(p *Proc) {
		for i := 0; i < 3; i++ {
			r.Acquire(p)
			rec("hog", "acquired")
			p.Sleep(7)
			r.Release()
			r.Acquire(p)
			rec("hog", "barged")
			p.Sleep(3)
			r.Release()
			p.Sleep(1)
		}
	})
	e.Go("feeder", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Duration(1 + 6*i))
			q.Push(i)
		}
	})
	e.Go("rival", func(p *Proc) {
		p.Sleep(20)
		for i := 0; i < 2; i++ {
			rec("rival", fmt.Sprint("pop", q.Pop(p)))
		}
	})
	e.Go("watcher", func(p *Proc) {
		for i := 0; i < 2; i++ {
			c.Wait(p)
			rec("watcher", "woke")
		}
	})
	e.Go("gate", func(p *Proc) {
		for _, d := range []time.Duration{30, 8, 12} {
			p.Sleep(d)
			open = !open
			c.Broadcast()
			rec("gate", fmt.Sprint("open=", open))
		}
	})
	if !callbacks {
		e.GoDaemon("subject", func(p *Proc) {
			for i := 0; i < 3; i++ {
				rec("subject", fmt.Sprint("pop", q.Pop(p)))
				r.Acquire(p)
				rec("subject", "acquired")
				p.Sleep(5)
				r.Release()
				for !open {
					c.Wait(p)
				}
				rec("subject", "passed")
			}
		})
	} else {
		done, tries := 0, 0
		var pop, acquire, held, gate func(any)
		pop = func(any) {
			v, ok := q.TryPop(pop, nil)
			if !ok {
				return
			}
			rec("subject", fmt.Sprint("pop", v))
			tries = 0
			acquire(nil)
		}
		acquire = func(any) {
			if tries++; !r.TryAcquire(acquire, nil) {
				return
			}
			barged = barged || tries > 2
			rec("subject", "acquired")
			e.AfterArg(5, held, nil)
		}
		held = func(any) {
			r.Release()
			gate(nil)
		}
		gate = func(any) {
			if !open {
				c.WaitFunc(gate, nil)
				return
			}
			rec("subject", "passed")
			if done++; done < 3 {
				pop(nil)
			}
		}
		e.AfterArg(0, pop, nil)
	}
	if err := e.Run(0); err != nil {
		log = append(log, "ERR:"+err.Error())
	}
	rec("end", "")
	return log, barged
}

// TestCallbackFormKeepsOrder: a callback waiter on a Queue, a Resource
// and a Cond takes a blocked process's place in the same FIFO and is
// scheduled with the (at, seq) the process's resumption would have
// taken, so the two forms of the subject log identical sequences.
func TestCallbackFormKeepsOrder(t *testing.T) {
	procLog, _ := runCallbackScenario(false)
	cbLog, barged := runCallbackScenario(true)
	if !barged {
		t.Fatalf("the scenario lost its barging acquire:\n%s", strings.Join(cbLog, "\n"))
	}
	if got, want := strings.Join(cbLog, " "), strings.Join(procLog, " "); got != want {
		t.Fatalf("callback form moved the schedule:\n got %s\nwant %s", got, want)
	}
}
