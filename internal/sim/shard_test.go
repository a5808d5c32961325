package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// shardPing runs a two-shard ping-pong: each side bounces a counter to
// the other with delay d, recording (time, shard, hop) tuples. The
// record is a pure function of the schedule, so two runs (or a run and
// a replay) must produce identical logs.
func shardPing(t *testing.T, hops int, d time.Duration) ([]string, *ShardSet) {
	t.Helper()
	s, err := NewShardSet(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Engines()[0], s.Engines()[1]
	var log []string
	var bounce func(any)
	bounce = func(arg any) {
		hop := arg.(int)
		dst, src := a, b
		if hop%2 == 0 {
			dst, src = b, a
		}
		log = append(log, fmt.Sprintf("%d@%v shard%d", hop, src.Now(), src.shard))
		if hop < hops {
			s.CrossAfter(src, dst, d, bounce, hop+1)
		}
	}
	a.AfterArg(10, func(any) { bounce(0) }, nil)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	return log, s
}

func TestShardPingPongDeterministic(t *testing.T) {
	l1, s := shardPing(t, 8, 150)
	l2, _ := shardPing(t, 8, 150)
	if fmt.Sprint(l1) != fmt.Sprint(l2) {
		t.Fatalf("same-seed sharded runs diverged:\n%v\n%v", l1, l2)
	}
	if len(l1) != 9 {
		t.Fatalf("hops = %d, want 9: %v", len(l1), l1)
	}
	// Hop k executes at 10 + k*150 on alternating shards.
	if l1[3] != "3@460ns shard1" {
		t.Fatalf("hop 3 = %q", l1[3])
	}
	if s.Now() != 10+8*150 {
		t.Fatalf("Now = %v", s.Now())
	}
	if s.CrossEvents != 8 {
		t.Fatalf("CrossEvents = %d, want 8", s.CrossEvents)
	}
}

func TestShardLookaheadViolationFailsLoudly(t *testing.T) {
	s, err := NewShardSet(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Engines()[0], s.Engines()[1]
	a.AfterArg(10, func(any) {
		// Delay below the declared lookahead: the destination shard may
		// already be past the delivery time, so this must fail, not
		// silently reorder.
		s.CrossAfter(a, b, 40, func(any) {}, nil)
	}, nil)
	err = s.Run(0)
	if err == nil || !strings.Contains(err.Error(), "lookahead violation") {
		t.Fatalf("Run = %v, want lookahead violation", err)
	}
}

func TestShardRunLimitResume(t *testing.T) {
	full, _ := shardPing(t, 8, 150)

	s, err := NewShardSet(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Engines()[0], s.Engines()[1]
	var log []string
	var bounce func(any)
	bounce = func(arg any) {
		hop := arg.(int)
		dst, src := a, b
		if hop%2 == 0 {
			dst, src = b, a
		}
		log = append(log, fmt.Sprintf("%d@%v shard%d", hop, src.Now(), src.shard))
		if hop < 8 {
			s.CrossAfter(src, dst, 150, bounce, hop+1)
		}
	}
	a.AfterArg(10, func(any) { bounce(0) }, nil)
	// Pause mid-run: hop 3 fires at exactly 460, so a limit of 460 must
	// include it (Engine.Run parity) and leave hop 4 queued.
	if err := s.Run(460); err != nil {
		t.Fatal(err)
	}
	if len(log) != 4 {
		t.Fatalf("events at pause = %d (%v), want 4", len(log), log)
	}
	for _, e := range s.Engines() {
		if e.Now() != 460 {
			t.Fatalf("shard %d clock = %v at pause, want 460ns", e.shard, e.Now())
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(log) != fmt.Sprint(full) {
		t.Fatalf("paused+resumed run diverged:\n%v\n%v", log, full)
	}
}

func TestShardRendezvous(t *testing.T) {
	s, err := NewShardSet(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRendezvous(s.Engines()[0], 3)
	var woke []string
	start := func(e *Engine, name string, init time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(init)
			rv.Done(p)
			rv.Wait(p)
			woke = append(woke, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	start(s.Engines()[0], "a", 50)
	start(s.Engines()[1], "b", 700)
	start(s.Engines()[0], "c", 300)
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	// Everyone resumes at the last Done's time (700): the next window
	// runs shard 0's waiters (a, c in Wait order), then shard 1's b.
	want := "[a@700ns c@700ns b@700ns]"
	if got := fmt.Sprint(woke); got != want {
		t.Fatalf("wake order = %v, want %v", got, want)
	}
}

func TestShardDeadlockAggregation(t *testing.T) {
	s, err := NewShardSet(1, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRendezvous(s.Engines()[0], 3) // one Done never arrives
	s.Engines()[0].Go("a", func(p *Proc) { rv.Done(p); rv.Wait(p) })
	s.Engines()[1].Go("b", func(p *Proc) { rv.Done(p); rv.Wait(p) })
	err = s.Run(0)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if fmt.Sprint(dl.Blocked) != "[a [rendezvous-wait] b [rendezvous-wait]]" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

// TestRendezvousWakesAtLastDone: on a single engine every waiter
// resumes at the virtual time of the last Done, in Wait order, and a
// Wait after the count drained returns at once.
func TestRendezvousWakesAtLastDone(t *testing.T) {
	e := NewEngine(1)
	rv := NewRendezvous(e, 3)
	var log []string
	for i, init := range []time.Duration{40, 90, 65} {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			p.Sleep(init)
			rv.Done(p)
			rv.Wait(p)
			log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
			p.Sleep(5)
			rv.Wait(p)
			log = append(log, fmt.Sprintf("%s-again@%v", name, p.Now()))
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	const want = "[p1@90ns p0@90ns p2@90ns p1-again@95ns p0-again@95ns p2-again@95ns]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("wake log %s, want %s", got, want)
	}
}
