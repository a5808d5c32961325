// Package trace provides the in-kernel profilers used by the evaluation:
// per-system-call time accounting (the paper's Figures 8 and 9 come from
// "our own in-house kernel profiler") and simple named counters.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SyscallProfile accumulates time and invocation counts per system call.
type SyscallProfile struct {
	calls map[string]*Entry // Share is filled in by Top
}

// NewSyscallProfile returns an empty profile.
func NewSyscallProfile() *SyscallProfile {
	return &SyscallProfile{calls: make(map[string]*Entry)}
}

// entry returns (creating on first use) the accumulator of one call.
func (s *SyscallProfile) entry(name string) *Entry {
	e, ok := s.calls[name]
	if !ok {
		e = &Entry{Name: name}
		s.calls[name] = e
	}
	return e
}

// Add records one invocation of name taking d.
func (s *SyscallProfile) Add(name string, d time.Duration) {
	e := s.entry(name)
	e.Time += d
	e.Count++
}

// Time returns the cumulative time of one call.
func (s *SyscallProfile) Time(name string) time.Duration {
	if e, ok := s.calls[name]; ok {
		return e.Time
	}
	return 0
}

// Count returns the invocation count of one call.
func (s *SyscallProfile) Count(name string) uint64 {
	if e, ok := s.calls[name]; ok {
		return e.Count
	}
	return 0
}

// Total returns the cumulative time across all calls.
func (s *SyscallProfile) Total() time.Duration {
	var t time.Duration
	for _, e := range s.calls {
		t += e.Time
	}
	return t
}

// Clone returns a deep copy.
func (s *SyscallProfile) Clone() *SyscallProfile {
	c := NewSyscallProfile()
	c.Merge(s)
	return c
}

// Sub subtracts a baseline profile (earlier snapshot of the same
// accumulator); entries never go negative. A name is removed only once
// BOTH its time and its count reach zero, so a call whose time zeroes
// out while invocations remain (or vice versa) still shows up in Top
// and String.
func (s *SyscallProfile) Sub(base *SyscallProfile) {
	for n, b := range base.calls {
		e, ok := s.calls[n]
		if !ok {
			continue
		}
		e.Time -= min(e.Time, b.Time)
		e.Count -= min(e.Count, b.Count)
		if e.Time == 0 && e.Count == 0 {
			delete(s.calls, n)
		}
	}
}

// Merge adds another profile into this one.
func (s *SyscallProfile) Merge(o *SyscallProfile) {
	for n, oe := range o.calls {
		e := s.entry(n)
		e.Time += oe.Time
		e.Count += oe.Count
	}
}

// Entry is one row of a profile breakdown.
type Entry struct {
	Name  string
	Time  time.Duration
	Count uint64
	Share float64 // fraction of the profile total
}

// Top returns the n most expensive calls, descending by time; an entry
// with invocations but zero accumulated time is still reported.
func (s *SyscallProfile) Top(n int) []Entry {
	total := s.Total()
	var out []Entry
	for _, c := range s.calls {
		e := *c
		if total > 0 {
			e.Share = float64(e.Time) / float64(total)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// String renders the breakdown as a table.
func (s *SyscallProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %10s %7s\n", "syscall", "time", "count", "share")
	for _, e := range s.Top(0) {
		fmt.Fprintf(&b, "%-12s %14v %10d %6.1f%%\n", e.Name, e.Time, e.Count, e.Share*100)
	}
	return b.String()
}
