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
// the (at, seq) dispatch order of step, runWindow and block's in-place
// self-resumption to that loop's, so the equivalence the artifacts and
// simtest digests rest on is checked here as well.

const splitScenarioSeed7 = "10ns:20 19ns:10 22ns:21 31ns:0 32ns:11 39ns:30 47ns:22 54ns:31 55ns:12 68ns:1 68ns:23 70ns:32 84ns:13 87ns:14 88ns:2 92ns:33 94ns:3 97ns:4 100ns:24 102ns:25 108ns:5 123ns:34 125ns:35 127ns:15 final:127ns"

func TestSplitScenarioOrderPinned(t *testing.T) {
	if got := strings.Join(runSplitScenario(7, 0), " "); got != splitScenarioSeed7 {
		t.Fatalf("runSplitScenario(7, 0) event log moved:\n got %s\nwant %s", got, splitScenarioSeed7)
	}
}

// runMixScenario drives Queue, Cond, Resource and WaitGroup together
// with plain and argument callbacks. At t=50 a Broadcast wakes six
// waiters in the same instant two callbacks and a queue push land, so
// the log order there is decided by scheduling sequence alone.
func runMixScenario() []string {
	e := NewEngine(3)
	q := NewQueue[int](e)
	c := NewCond(e)
	r := NewResource(e, 2)
	wg := NewWaitGroup(e)
	var log []string
	rec := func(who, what string) {
		log = append(log, fmt.Sprintf("%d:%s:%s", int64(e.Now()), who, what))
	}
	open := false
	wg.Add(6)
	for i := 0; i < 6; i++ {
		id := i
		e.Go(fmt.Sprintf("w%d", id), func(p *Proc) {
			for !open {
				c.Wait(p)
			}
			rec(p.Name(), "woke")
			r.Use(p, time.Duration(10+e.Rng().Intn(5)))
			rec(p.Name(), "used")
			q.Push(id)
			wg.Done()
		})
	}
	e.Go("burst", func(p *Proc) {
		p.Sleep(50)
		open = true
		c.Broadcast()
		rec("burst", "broadcast")
		p.Yield()
		rec("burst", "yielded")
		wg.Wait(p)
		rec("burst", "joined")
	})
	e.After(50, func() {
		rec("cb", "after")
		q.Push(100)
	})
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
