// Package pool is the one free list behind every record the simulator
// recycles on its hot paths: psm's per-message records, the NIC's SDMA
// transactions, offloaded-call records, work items, system-call
// contexts, frame buffers and the fabric's packets and payloads.
//
// A Pool hands records out (Get) and takes them back (Put), last in,
// first out, and counts both. A record type that embeds a Slot (or has a
// PoolSlot method returning one) opts into two more things:
//
//   - holds: Hold records one more holder, and Release lets go of one;
//     the last Release puts the record back;
//   - poison: from Put until the next Get the record names its pool, and
//     Slot.Check, Hold, Release and a second Put panic with that name.
//
// Pools hold host-side records only. Free lists whose order is simulated
// state (the kernel slab caches and buddy lists, which decide addresses,
// and psm's RcvArray slot FIFO) are not pools.
//
// Every pool runs in simulation context, one engine at a time, so none
// needs a lock. There is no registry: each owner lists its own pools'
// Stats, and Balance checks a set of them at teardown.
package pool

import (
	"fmt"
	"iter"
	"strings"
)

// Counts is the traffic of one pool, or of several that share a block.
type Counts struct {
	Gets  uint64 // records handed out
	Hits  uint64 // gets served from the free list
	Puts  uint64 // records handed back
	Drops uint64 // records that left for good (Drop)
}

// Live returns how many records are out: handed out, and neither back
// nor dropped. It is signed because a record may come back through
// another pool of the same name (Balance).
func (c Counts) Live() int64 { return int64(c.Gets - c.Puts - c.Drops) }

// Stats is one pool's name and counts.
type Stats struct {
	Name string
	Counts
}

// Slot is the per-record state of a pool that counts holds and poisons
// free records. A record type opts in by embedding one.
type Slot struct {
	holds int32
	// freed names the pool while the record is on its free list.
	freed *string
}

// PoolSlot returns s; a record type whose Slot is not embedded declares
// its own PoolSlot returning the one it keeps.
func (s *Slot) PoolSlot() *Slot { return s }

// Check panics if the record is on its pool's free list: a holder
// outlived its hold.
func (s *Slot) Check() {
	if s.freed != nil {
		panic(*s.freed + " used after put")
	}
}

type slotted interface{ PoolSlot() *Slot }

// slotOf returns x's Slot; T must be slotted.
func slotOf[T any](x T) *Slot { return any(x).(slotted).PoolSlot() }

// Pool is a free list of T, usually a pointer type. Its owner keeps it
// by value, built by New.
type Pool[T any] struct {
	name   string
	own    Counts
	shared *Counts // counts instead of own, when non-nil
	free   []T
	newRec func() T
	reset  func(T)
	slots  bool // T has a Slot
}

// New returns an empty pool named name (the owner's package and the
// record, as panics and Balance print it). newRec makes a record when
// the free list is empty; nil makes the zero T. reset, when non-nil,
// clears a record as it goes back. shared, when non-nil, is a block the
// pool counts in together with others (the fabric's buffer size
// classes); nil gives the pool its own.
func New[T any](name string, shared *Counts, newRec func() T, reset func(T)) Pool[T] {
	var zero T
	_, slots := any(zero).(slotted)
	return Pool[T]{name: name, shared: shared, newRec: newRec, reset: reset, slots: slots}
}

func (p *Pool[T]) counts() *Counts {
	if p.shared != nil {
		return p.shared
	}
	return &p.own
}

// Get returns a record from the free list, or a new one. A record with
// a Slot comes back unheld and no longer poisoned.
func (p *Pool[T]) Get() T {
	c := p.counts()
	c.Gets++
	n := len(p.free)
	if n == 0 {
		if p.newRec == nil {
			var zero T
			return zero
		}
		return p.newRec()
	}
	c.Hits++
	x := p.free[n-1]
	var zero T
	p.free[n-1] = zero
	p.free = p.free[:n-1]
	if p.slots {
		slotOf(x).freed = nil
	}
	return x
}

// Put resets x and returns it to the free list. x must be out of the
// pool and, if it has a Slot, unheld.
func (p *Pool[T]) Put(x T) {
	var s *Slot
	if p.slots {
		s = slotOf(x)
		switch {
		case s.freed != nil:
			panic(p.name + " put twice")
		case s.holds != 0:
			panic(fmt.Sprintf("%s put with %d holds", p.name, s.holds))
		}
	}
	p.put(x, s)
}

// put resets x, poisons its Slot s (nil without one) and returns it to
// the free list.
func (p *Pool[T]) put(x T, s *Slot) {
	if p.reset != nil {
		p.reset(x)
	}
	if s != nil {
		s.freed = &p.name
	}
	p.counts().Puts++
	p.free = append(p.free, x)
}

// Drop counts x out of the pool for good: it will not come back, and
// the garbage collector takes it.
func (p *Pool[T]) Drop(T) { p.counts().Drops++ }

// Hold records one more holder of x.
func (p *Pool[T]) Hold(x T) {
	s := slotOf(x)
	if s.freed != nil {
		panic(p.name + " held after put")
	}
	s.holds++
}

// Release lets go of one hold on x; the last one puts x back, and
// Release reports whether it did.
func (p *Pool[T]) Release(x T) bool {
	s := slotOf(x)
	s.Check()
	if s.holds == 0 {
		panic(p.name + " released more often than held")
	}
	if s.holds--; s.holds > 0 {
		return false
	}
	p.put(x, s)
	return true
}

// CheckHolds returns an error naming a record of want whose hold count
// is not the count want pairs it with, or which is back in the pool
// while want says it is held.
func (p *Pool[T]) CheckHolds(want iter.Seq2[T, int]) error {
	for x, n := range want {
		switch s := slotOf(x); {
		case s.freed != nil && n > 0:
			return fmt.Errorf("%s back in the pool, want %d holds", p.name, n)
		case int(s.holds) != n:
			return fmt.Errorf("%s with %d holds, want %d", p.name, s.holds, n)
		}
	}
	return nil
}

// Stats returns the pool's name and counts.
func (p *Pool[T]) Stats() Stats { return Stats{Name: p.name, Counts: *p.counts()} }

// Balance returns an error naming every pool among ss that has records
// out. Entries of one name are added up first: one layer's pools on
// several nodes or shards count as one, since a record may leave
// through one and come back through another (a packet routed between
// shards goes back to the receiving shard's fabric).
func Balance(ss ...Stats) error {
	var names []string
	sum := map[string]Counts{}
	for _, s := range ss {
		c, seen := sum[s.Name]
		if !seen {
			names = append(names, s.Name)
		}
		c.Gets += s.Gets
		c.Hits += s.Hits
		c.Puts += s.Puts
		c.Drops += s.Drops
		sum[s.Name] = c
	}
	var bad []string
	for _, name := range names {
		if c := sum[name]; c.Live() != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d out (%d gets, %d puts, %d drops)", name, c.Live(), c.Gets, c.Puts, c.Drops))
		}
	}
	if bad != nil {
		return fmt.Errorf("pool balance: %s", strings.Join(bad, "; "))
	}
	return nil
}
